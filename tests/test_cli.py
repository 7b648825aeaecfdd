import gc
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from dinitz import (
    build_square_orientation,
    format_digraph,
    is_kernel,
    make_digraph,
    parse_digraph,
)
import dinitz
from dinitz import cli, galvin
from dinitz.cli import main
from dinitz.digraph import MAX_EDGES, MAX_VERTICES
from dinitz.kernel import DEFAULT_KERNEL_CAP

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="graph.txt"):
    path = tmp_path / name
    path.write_text(format_digraph(g))
    return str(path)


def write_json(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TRIANGLE = {"num_vertices": 3, "edges": [(0, 1), (1, 2), (2, 0)]}


def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    return str(path)


class TestGen:
    def test_deterministic_regeneration(self, capsys):
        code1, out1, _ = run(capsys, "gen", "--n", "2", "--universe-size", "4",
                             "--list-size", "2", "--seed", "42")
        code2, out2, _ = run(capsys, "gen", "--n", "2", "--universe-size", "4",
                             "--list-size", "2", "--seed", "42")
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()

    def test_forced_lists(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "3", "--universe-size", "3",
                           "--list-size", "3", "--seed", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        for row in doc["lists"]:
            for cell in row:
                assert sorted(cell) == ["c0", "c1", "c2"]

    def test_unsatisfiable_parameters(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "2", "--universe-size", "1",
                           "--list-size", "2")
        assert code == 2
        assert "universe" in err

    def test_undersized_needs_flag(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "3", "--list-size", "2")
        assert code == 2
        assert "--allow-undersized" in err

    def test_undersized_with_flag_warns(self, capsys):
        code, out, err = run(capsys, "gen", "--n", "3", "--list-size", "2",
                             "--allow-undersized")
        assert code == 0
        assert "warning" in err
        assert json.loads(out)["n"] == 3

    def test_quiet_suppresses_warning(self, capsys):
        code, _, err = run(capsys, "--quiet", "gen", "--n", "3", "--list-size", "2",
                           "--allow-undersized")
        assert code == 0
        assert err == ""

    def test_empty_lists_for_a_non_empty_grid_are_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "--n", "2", "--list-size", "0",
                             "--allow-undersized")
        assert (code, out) == (2, "")
        assert err == (
            "warning: lists of 0 colors are below the solvable bound of 2\n"
            "error: lists must be non-empty for a non-empty grid\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "2", "--universe-size", "100000000000"],
            ["--n", "2000", "--list-size", "2000", "--universe-size", "2000"],
            ["--n", "100000", "--list-size", "1", "--universe-size", "1",
             "--allow-undersized"],
        ],
        ids=["universe", "lists", "grid"],
    )
    def test_sizes_above_the_label_budget_are_exit_2_in_bounded_memory(self, argv):
        proc = run_limited(["gen", *argv], 800 << 20)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
    def test_child_holds_no_label_table(self):
        """A four-cell instance drawn from a universe just under the label
        budget peaked at 594 MB when gen built the universe's labels first,
        and at 16.5 MB drawing from its range (CPython 3.11, x86-64 Linux)."""
        proc, code, peak_kib = run_measured(["gen", "--n", "2", "--universe-size",
                                             "8388000"])
        assert (code, proc.stderr) == (0, "")
        assert peak_kib < 64 << 10

    @pytest.mark.parametrize("universe, refused", [(4, False), (5, True)])
    def test_label_budget_counts_list_entries_and_universe(
        self, universe, refused, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "MAX_GEN_LABELS", 2 * 2 * 4 + 4)
        code, out, err = run(capsys, "gen", "--n", "2", "--list-size", "4",
                             "--universe-size", str(universe))
        if refused:
            assert (code, out) == (2, "")
            assert err == (
                "error: n = 2 with lists of 4 from 5 labels needs 21 labels "
                "in memory, above the limit of 20\n"
            )
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["meta"]["universe_size"] == 4

    def test_defaults_are_n_and_3n(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "4")
        doc = json.loads(out)
        assert doc["meta"]["list_size"] == 4
        assert doc["meta"]["universe_size"] == 12

    @pytest.mark.parametrize(
        "argv, reported",
        [
            (["--list-size", "-1", "--allow-undersized"], "--list-size"),
            (["--universe-size", "-1", "--list-size", "-3", "--allow-undersized"],
             "--list-size"),
            (["--universe-size", "-1", "--list-size", "0", "--allow-undersized"],
             "--universe-size"),
        ],
    )
    def test_negative_sizes_are_exit_2(self, argv, reported, capsys):
        code, out, err = run(capsys, "gen", "--n", "3", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {reported} must be non-negative\n"

    # random.sample copies a population into a pool when it is no larger
    # than 21 + 4 ** ceil(log4(3k)) for k > 5, or 21 for k <= 5, and
    # otherwise keeps a set of the indices it picked.
    @pytest.mark.parametrize("seed", [0, 1, 4099, -7])
    @pytest.mark.parametrize(
        "n, universe_size, list_size",
        [(0, 0, 0), (1, 3, 1), (5, 15, 5), (12, 36, 12), (6, 40, 3), (9, 100, 9),
         (20, 60, 20), (7, 8, 3)],
        ids=["n0", "n1", "pool-5", "pool-12", "set-3", "set-9", "pool-20", "undersized"],
    )
    def test_output_is_the_whole_document_dump(
        self, n, universe_size, list_size, seed, capsys
    ):
        """gen writes a row at a time the bytes it wrote when it dumped the
        whole document at once."""
        labels = [f"c{k}" for k in range(universe_size)]
        rng = random.Random(seed)
        lists = [[rng.sample(labels, list_size) for _ in range(n)] for _ in range(n)]
        doc = {"n": n, "lists": lists, "meta": {
            "seed": seed, "universe_size": universe_size, "list_size": list_size,
        }}
        expected = json.dumps(doc, indent=2) + "\n"
        code, out, _ = run(capsys, "gen", "--n", str(n), "--seed", str(seed),
                           "--universe-size", str(universe_size),
                           "--list-size", str(list_size), "--allow-undersized")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            hashlib.sha256(expected.encode()).hexdigest()


class TestSolveAndVerify:
    def test_spec_shaped_instance(self, tmp_path, capsys):
        instance = {
            "n": 2,
            "lists": [[["a", "b"], ["a", "b"]], [["a", "b"], ["a", "b"]]],
        }
        inst = write_json(tmp_path, instance, "inst.json")
        sol = str(tmp_path / "sol.json")
        code, _, _ = run(capsys, "solve", inst, sol)
        assert code == 0
        doc = json.loads((tmp_path / "sol.json").read_text())
        assert doc == {"n": 2, "grid": [["b", "a"], ["a", "b"]]}
        code, out, _ = run(capsys, "verify", inst, sol)
        assert code == 0
        assert out.strip() == "valid"

    def test_n1(self, tmp_path, capsys):
        inst = write_json(tmp_path, {"n": 1, "lists": [[["x"]]]}, "i.json")
        sol = str(tmp_path / "s.json")
        assert run(capsys, "solve", inst, sol)[0] == 0
        assert json.loads((tmp_path / "s.json").read_text())["grid"] == [["x"]]

    def test_undersized_cell_is_usage_error(self, tmp_path, capsys):
        instance = {
            "n": 2,
            "lists": [[["a", "b"], ["a", "b"]], [["a", "b"], ["a"]]],
        }
        inst = write_json(tmp_path, instance, "i.json")
        code, _, err = run(capsys, "solve", inst, str(tmp_path / "s.json"))
        assert code == 2
        assert "(1, 1)" in err

    def test_parse_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "solve", str(bad), str(tmp_path / "s.json"))
        assert code == 2

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "solve", str(tmp_path / "nope.json"),
                         str(tmp_path / "s.json"))
        assert code == 2

    def test_duplicate_colors_warn(self, tmp_path, capsys):
        instance = {"n": 1, "lists": [[["a", "a"]]]}
        inst = write_json(tmp_path, instance, "i.json")
        code, _, err = run(capsys, "solve", inst, str(tmp_path / "s.json"))
        assert code == 0
        assert "duplicate" in err

    def test_nested_array_label_is_exit_2(self, tmp_path, capsys):
        inst = write_json(tmp_path, {"n": 1, "lists": [[[[1]]]]}, "i.json")
        code, _, err = run(capsys, "solve", inst, str(tmp_path / "s.json"))
        assert code == 2
        assert "(0, 0)" in err
        assert not (tmp_path / "s.json").exists()

    def test_duplicate_warnings_in_row_major_order(self, tmp_path, capsys):
        lists = [[["a", "b"], ["b", "b", "a"]], [[1, True, 1.0, 2], ["a", "b"]]]
        inst = write_json(tmp_path, {"n": 2, "lists": lists}, "i.json")
        code, _, err = run(capsys, "solve", inst, str(tmp_path / "s.json"))
        assert code == 0
        assert err == (
            f"warning: {inst}: cell (0, 1) has duplicate colors; deduplicated\n"
            f"warning: {inst}: cell (1, 0) has duplicate colors; deduplicated\n"
        )

    def test_unhashable_label_names_the_first_such_cell(self, tmp_path, capsys):
        lists = [[["a", "b"], ["a", {"x": 1}]], [["a", [1]], ["a", "b"]]]
        inst = write_json(tmp_path, {"n": 2, "lists": lists}, "i.json")
        code, _, err = run(capsys, "solve", inst, str(tmp_path / "s.json"))
        assert code == 2
        assert err == (
            f"error: {inst}: cell (0, 1) has an array or object as a color label\n"
        )

    @pytest.mark.parametrize(
        "lists, warned, reported",
        [
            # an unhashable label before a short row
            ([[["a", "a"], ["b", [1]]], [["a"]]],
             ["(0, 0)"], "cell (0, 1) has an array or object"),
            # an empty cell before an unhashable label
            ([[[], ["b", [1]]], [["a"], ["b"]]],
             [], "cell (0, 0) must be a non-empty array"),
            # a short row before an unhashable label in it
            ([[["a", [1]]], [["a"], ["b"]]],
             [], "row 0 must be an array of 2 cells"),
            # an unhashable label before a cell that is not an array
            ([[["b", "b"], [[1]]], ["a", ["b"]]],
             ["(0, 0)"], "cell (0, 1) has an array or object"),
            # a duplicate before a short row
            ([[["a"], ["b", "b"]], [["a"]]],
             ["(0, 1)"], "row 1 must be an array of 2 cells"),
        ],
        ids=["unhashable-then-row", "empty-then-unhashable", "row-then-unhashable",
             "unhashable-then-cell", "duplicate-then-row"],
    )
    def test_first_fault_in_row_major_order_wins(
        self, lists, warned, reported, tmp_path, capsys
    ):
        inst = write_json(tmp_path, {"n": 2, "lists": lists}, "i.json")
        code, _, err = run(capsys, "solve", inst, str(tmp_path / "s.json"))
        assert code == 2
        *warnings, error = err.splitlines()
        assert warnings == [
            f"warning: {inst}: cell {cell} has duplicate colors; deduplicated"
            for cell in warned
        ]
        assert error.startswith(f"error: {inst}: {reported}")

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_boolean_n_is_exit_2(self, command, tmp_path, capsys):
        good = write_json(tmp_path, {"n": 1, "lists": [[["a"]]]}, "good.json")
        inst = write_json(tmp_path, {"n": True, "lists": [[["a"]]]}, "i.json")
        sol = write_json(tmp_path, {"n": True, "grid": [["a"]]}, "s.json")
        if command == "solve":
            code, _, err = run(capsys, "solve", inst, str(tmp_path / "out.json"))
            assert not (tmp_path / "out.json").exists()
        else:
            code, _, err = run(capsys, "verify", good, sol)
        bad = inst if command == "solve" else sol
        assert code == 2
        assert err == f"error: {bad}: 'n' must be a non-negative integer\n"

    def test_solution_in_missing_directory_is_exit_2(self, tmp_path, capsys):
        inst = write_json(tmp_path, {"n": 1, "lists": [[["x"]]]}, "i.json")
        code, _, err = run(capsys, "solve", inst, str(tmp_path / "nope" / "s.json"))
        assert code == 2
        assert "cannot write" in err

    def test_unwritable_solution_leaves_no_temp_file(self, tmp_path, capsys):
        inst = write_json(tmp_path, {"n": 1, "lists": [[["x"]]]}, "i.json")
        target = tmp_path / "taken"
        target.mkdir()
        code, _, err = run(capsys, "solve", inst, str(target))
        assert code == 2
        assert "cannot write" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["i.json", "taken"]
        assert list(target.iterdir()) == []

    def test_solution_overwrites_existing_file(self, tmp_path, capsys):
        inst = write_json(tmp_path, {"n": 1, "lists": [[["x"]]]}, "i.json")
        sol = tmp_path / "s.json"
        sol.write_text("stale and much longer than the solution " * 10)
        assert run(capsys, "solve", inst, str(sol))[0] == 0
        assert sol.read_text() == '{\n  "n": 1,\n  "grid": [\n    [\n      "x"\n    ]\n  ]\n}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["i.json", "s.json"]

    def test_verify_nested_array_grid_entry_is_exit_2(self, tmp_path, capsys):
        inst = write_json(tmp_path, {"n": 1, "lists": [[["a"]]]}, "i.json")
        sol = write_json(tmp_path, {"n": 1, "grid": [[["a"]]]}, "s.json")
        code, out, err = run(capsys, "verify", inst, sol)
        assert code == 2
        assert out == ""
        assert "grid" in err

    @pytest.mark.parametrize("grid", ["a", [["a"], "a"], {"0": ["a"]}, None])
    def test_verify_grid_not_an_array_of_arrays_is_exit_2(self, grid, tmp_path, capsys):
        inst = write_json(tmp_path, {"n": 1, "lists": [[["a"]]]}, "i.json")
        sol = write_json(tmp_path, {"n": 1, "grid": grid}, "s.json")
        code, out, err = run(capsys, "verify", inst, sol)
        assert (code, out) == (2, "")
        assert err == f"error: {sol}: 'grid' must be an array of arrays\n"

    def test_internal_solver_failure_is_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(inst):
            raise cli.KernelOracleError(0, frozenset({0, 1}), frozenset({1}), [])

        monkeypatch.setattr(cli, "solve_dinitz", fail)
        inst = write_json(tmp_path, {"n": 1, "lists": [[["x"]]]}, "i.json")
        code, out, err = run(capsys, "solve", inst, str(tmp_path / "s.json"))
        assert (code, out) == (1, "")
        assert err == (
            "internal solver failure: oracle output [1] is not a kernel "
            "of the 2 candidates for color 0\n"
        )
        assert not (tmp_path / "s.json").exists()

    def test_verify_row_repeat(self, tmp_path, capsys):
        instance = {"n": 2, "lists": [[["a", "b"], ["a", "b"]],
                                      [["a", "b"], ["a", "b"]]]}
        inst = write_json(tmp_path, instance, "i.json")
        sol = write_json(tmp_path, {"n": 2, "grid": [["a", "a"], ["b", "b"]]},
                         "s.json")
        code, out, _ = run(capsys, "verify", inst, sol)
        assert code == 1
        assert "row 0" in out

    def test_verify_foreign_label(self, tmp_path, capsys):
        instance = {"n": 1, "lists": [[["a"]]]}
        inst = write_json(tmp_path, instance, "i.json")
        sol = write_json(tmp_path, {"n": 1, "grid": [["z"]]}, "s.json")
        code, out, _ = run(capsys, "verify", inst, sol)
        assert code == 1
        assert "(0, 0)" in out

    @pytest.mark.parametrize(
        "deep", ["instance", "verify-instance", "verify-instance-row", "verify-solution"]
    )
    def test_deeply_nested_json_is_exit_2(self, deep, tmp_path, capsys):
        nested = tmp_path / "deep.json"
        # a row nested too deep, inside the layout that verify streams
        head = '{"n": 1, "lists": [' if deep == "verify-instance-row" else ""
        nested.write_text(head + "[" * 100_000)
        good = write_json(tmp_path, {"n": 1, "lists": [[["a"]]]}, "i.json")
        sol = write_json(tmp_path, {"n": 1, "grid": [["a"]]}, "s.json")
        if deep == "instance":
            argv = ["solve", str(nested), str(tmp_path / "out.json")]
        elif deep.startswith("verify-instance"):
            argv = ["verify", str(nested), sol]
        else:
            argv = ["verify", good, str(nested)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {nested}: JSON nesting too deep\n"
        assert not (tmp_path / "out.json").exists()

    def test_verify_never_interns(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify interned the labels")

        monkeypatch.setattr("dinitz.galvin.DinitzInstance.from_labels", refuse)
        monkeypatch.setattr("dinitz.galvin.DinitzInstance.intern_grid", refuse)
        lists = [[["a", 1, None], [True, "a"]], [[2.5, "b", 1.0], ["b", None, "a"]]]
        inst = write_json(tmp_path, {"n": 2, "lists": lists}, "i.json")
        sol = write_json(tmp_path, {"n": 2, "grid": [["a", 1], [2.5, "a"]]}, "s.json")
        code, out, err = run(capsys, "verify", inst, sol)
        assert (code, out, err) == (0, "valid\n", "")

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_n_above_the_largest_length_is_exit_2(self, command, tmp_path, capsys):
        """An 'n' too large to be a length is refused like any other."""
        n = 10 ** 30
        inst = write_json(tmp_path, {"n": n, "lists": []}, "i.json")
        sol = write_json(tmp_path, {"n": n, "grid": []}, "s.json")
        out = sol if command == "verify" else str(tmp_path / "out.json")
        assert run(capsys, command, inst, out) == (
            2, "", f"error: {inst}: 'lists' must be an array of {n} rows\n"
        )

    def test_verify_dimension_mismatch(self, tmp_path, capsys):
        instance = {"n": 2, "lists": [[["a", "b"], ["a", "b"]],
                                      [["a", "b"], ["a", "b"]]]}
        inst = write_json(tmp_path, instance, "i.json")
        sol = write_json(tmp_path, {"n": 1, "grid": [["a"]]}, "s.json")
        assert run(capsys, "verify", inst, sol)[0] == 2


NAN = math.nan


class TestVerifyStream:
    """verify and solve decode an instance laid out as gen writes it one
    row at a time, and read any other text whole with json.load."""

    def read_instance_calls(self, monkeypatch):
        calls = []

        def spy(path, *rest):
            calls.append(path)
            return read_instance(path, *rest)

        read_instance = cli._read_instance
        monkeypatch.setattr(cli, "_read_instance", spy)
        return calls

    def test_gen_output_is_streamed(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run(capsys, "gen", "--n", "5", "--seed", "3")
        inst = tmp_path / "i.json"
        inst.write_text(out)
        sol = str(tmp_path / "s.json")
        assert run(capsys, "solve", str(inst), sol) == (0, "", "")
        calls = self.read_instance_calls(monkeypatch)
        assert run(capsys, "verify", str(inst), sol) == (0, "valid\n", "")
        assert calls == []

    def test_solve_on_gen_output_is_streamed(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run(capsys, "gen", "--n", "5", "--seed", "3")
        inst = tmp_path / "i.json"
        inst.write_text(out)
        calls = self.read_instance_calls(monkeypatch)
        sol = tmp_path / "s.json"
        assert run(capsys, "solve", str(inst), str(sol)) == (0, "", "")
        assert calls == []
        assert run(capsys, "verify", str(inst), str(sol)) == (0, "valid\n", "")

    def test_solve_leaves_the_labels_of_streamed_rows_to_interning(
        self, tmp_path, capsys, monkeypatch
    ):
        """solve checks only the shape of the rows it streams, and verify
        still checks each row's labels."""
        calls = []

        def spy(path, n, i, *rest):
            calls.append(i)
            return check_row(path, n, i, *rest)

        check_row = cli._check_row
        monkeypatch.setattr(cli, "_check_row", spy)
        code, out, _ = run(capsys, "gen", "--n", "5", "--seed", "3")
        inst = tmp_path / "i.json"
        inst.write_text(out)
        sol = str(tmp_path / "s.json")
        assert run(capsys, "solve", str(inst), sol) == (0, "", "")
        assert calls == []
        assert run(capsys, "verify", str(inst), sol) == (0, "valid\n", "")
        assert calls == [0, 1, 2, 3, 4]

    def test_faulty_solution_reads_the_instance_once(self, tmp_path, capsys, monkeypatch):
        """verify checks each streamed row once when the solution is at
        fault, and prints what the whole document's read prints."""
        calls = []

        def spy(path, n, i, *rest):
            calls.append(i)
            return check_row(path, n, i, *rest)

        check_row = cli._check_row
        monkeypatch.setattr(cli, "_check_row", spy)
        read_calls = self.read_instance_calls(monkeypatch)
        _, out, _ = run(capsys, "gen", "--n", "12", "--seed", "1")
        inst = tmp_path / "i.json"
        inst.write_text(out)
        sol = write_json(tmp_path, {"n": 3, "grid": [["c0"] * 3] * 3}, "s.json")
        error = "error: solution dimensions do not match the instance\n"
        assert run(capsys, "verify", str(inst), sol) == (2, "", error)
        assert (len(calls), read_calls) == (12, [])
        # Held warnings come out before the error, as the whole read's do.
        doc = json.loads(out)
        for cell in doc["lists"][0][0], doc["lists"][11][11]:
            cell.append(cell[0])
        streamed, whole = tmp_path / "dup.json", tmp_path / "sorted.json"
        streamed.write_text(json.dumps(doc, indent=2))
        whole.write_text(json.dumps(doc, sort_keys=True))
        calls.clear()
        code, out, err = run(capsys, "verify", str(streamed), sol)
        assert (code, out, len(calls), read_calls) == (2, "", 12, [])
        assert err == "".join(
            f"warning: {streamed}: cell {cell} has duplicate colors; deduplicated\n"
            for cell in ["(0, 0)", "(11, 11)"]
        ) + error
        assert run(capsys, "verify", str(whole), sol) == (
            2, "", err.replace(str(streamed), str(whole))
        )
        assert read_calls == [str(whole)]

    def test_repeated_labels_stay_streamed(self, tmp_path, capsys, monkeypatch):
        """Interning finds the labels a streamed cell repeats: solve warns
        of each such cell in row-major order, as the whole document's
        check does, and writes the same solution."""
        _, out, _ = run(capsys, "gen", "--n", "5", "--seed", "3")
        doc = json.loads(out)
        for cell in doc["lists"][0][0], doc["lists"][4][4]:
            cell.append(cell[0])
        streamed, whole = tmp_path / "i.json", tmp_path / "sorted.json"
        streamed.write_text(json.dumps(doc, indent=2))
        whole.write_text(json.dumps(doc, sort_keys=True))
        calls = self.read_instance_calls(monkeypatch)
        code, out, err = run(capsys, "solve", str(streamed), str(tmp_path / "s.json"))
        assert (code, out, calls) == (0, "", [])
        assert err == "".join(
            f"warning: {streamed}: cell {cell} has duplicate colors; deduplicated\n"
            for cell in ["(0, 0)", "(4, 4)"]
        )
        code, out, whole_err = run(capsys, "solve", str(whole), str(tmp_path / "s2.json"))
        assert (code, out, calls) == (0, "", [str(whole)])
        assert whole_err == err.replace(str(streamed), str(whole))
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("piped", ["instance", "solution"])
    @pytest.mark.parametrize("layout", ["gen", "sorted", "meta-twice"])
    def test_reads_each_file_once(self, piped, layout, tmp_path, capsys):
        """Either file may be a pipe, as a shell's <(...) gives: verify reads
        each once, whether it streams the instance or reads it whole, and
        solve reads its instance once."""
        lists = [[["a", "b"], ["b", "a"]], [["a", "b"], ["a", "b"]]]
        texts = {
            "instance": {
                "gen": json.dumps({"n": 2, "lists": lists, "meta": {}}, indent=2),
                "sorted": json.dumps({"n": 2, "lists": lists}, sort_keys=True),
                "meta-twice": f'{{"n": 2, "lists": {json.dumps(lists)}, "meta": 1, "meta": 2}}',
            }[layout],
            "solution": json.dumps({"n": 2, "grid": [["a", "b"], ["b", "a"]]}),
        }
        pipes = []

        def path(name):
            if name != piped:
                (tmp_path / name).write_text(texts[name])
                return str(tmp_path / name)
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            os.write(write_end, texts[name].encode())
            os.close(write_end)
            return f"/dev/fd/{read_end}"

        try:
            assert run(capsys, "verify", path("instance"), path("solution")) == (
                0, "valid\n", ""
            )
            if piped == "instance":
                assert run(capsys, "solve", path("instance"), str(tmp_path / "s.json")) \
                    == (0, "", "")
        finally:
            for read_end in pipes:
                os.close(read_end)
        if piped == "instance":  # the solution a file of the same text gives
            (tmp_path / "instance").write_text(texts["instance"])
            ref = tmp_path / "ref.json"
            assert run(capsys, "solve", str(tmp_path / "instance"), str(ref)) == (0, "", "")
            assert (tmp_path / "s.json").read_bytes() == ref.read_bytes()

    # (lists, grid, stdout, whether the first cell warns of duplicates).
    # json hands back one shared NaN object, so a NaN label is one color
    # by identity; 1, true and 1.0 are one color, and so are 0, -0.0 and
    # false; null is a color of its own.
    @pytest.mark.parametrize("lists, grid, verdict, warns", [
        ([[[NAN, "a"]]], [[NAN]], "valid", False),
        ([[[NAN, "a"]] * 2] * 2, [[NAN, "a"], ["a", NAN]], "valid", False),
        ([[[NAN, "a"]] * 2] * 2, [[NAN, NAN], ["a", "a"]],
         "invalid: row 0 has repeated colors", False),
        ([[[NAN, NAN]]], [[NAN]], "valid", True),
        ([[[1]]], [[True]], "valid", False),
        ([[[True, "a"]]], [[1.0]], "valid", False),
        ([[[1, True, 1.0]]], [[1]], "valid", True),
        ([[[1, 2]] * 2] * 2, [[1, 2], [2, 1.0]], "valid", False),
        ([[[1, 2]] * 2] * 2, [[True, 1.0], [2, 1]],
         "invalid: row 0 has repeated colors", False),
        ([[[0]]], [[-0.0]], "valid", False),
        ([[[False]]], [[0]], "valid", False),
        ([[[0, -0.0, False]]], [[False]], "valid", True),
        ([[[0, 1]] * 2] * 2, [[0, 1], [-0.0, 1.0]],
         "invalid: column 0 has repeated colors", False),
        ([[[None]]], [[None]], "valid", False),
        ([[["null", 0, False]]], [[None]],
         "invalid: cell (0, 0) uses a color not in its list", True),
        ([[[None, 0]]], [[False]], "valid", False),
    ])
    @pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "whole"])
    def test_labels_compare_as_before(
        self, lists, grid, verdict, warns, streamed, tmp_path, capsys, monkeypatch
    ):
        n = len(grid)
        inst = tmp_path / "i.json"
        # sort_keys puts "lists" before "n": not the layout gen writes
        inst.write_text(json.dumps({"n": n, "lists": lists}, sort_keys=not streamed))
        sol = write_json(tmp_path, {"n": n, "grid": grid}, "s.json")
        calls = self.read_instance_calls(monkeypatch)
        code, out, err = run(capsys, "verify", str(inst), sol)
        assert (code, out) == (0 if verdict == "valid" else 1, verdict + "\n")
        assert err == (
            f"warning: {inst}: cell (0, 0) has duplicate colors; deduplicated\n" * warns
        )
        assert len(calls) == (not streamed)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
    def test_verify_child_holds_one_row(self, tmp_path):
        """At n = 100 the verify child peaked at 100.7 MB when it parsed the
        whole instance and at 46.8 MB streaming it (CPython 3.11, x86-64
        Linux)."""
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        dinitz = [sys.executable, "-m", "dinitz.cli"]
        with open(inst, "w") as fh:
            subprocess.run([*dinitz, "gen", "--n", "100", "--seed", "4099"], stdout=fh,
                           env=cli_env(False), check=True, timeout=120)
        subprocess.run([*dinitz, "solve", inst, sol], env=cli_env(False), check=True,
                       timeout=120)
        proc, code, peak_kib = run_measured(["verify", inst, sol])
        assert code == 0, proc.stderr
        assert peak_kib < 75 << 10

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
    def test_solve_child_holds_one_row_of_labels(self, tmp_path):
        """At n = 100 the solve child peaked at 127.3 MB when it parsed the
        whole instance before interning it and at 74.6 MB interning it a
        row at a time (CPython 3.11, x86-64 Linux): the instance it builds
        is 42 MB of that."""
        inst = tmp_path / "i.json"
        with open(inst, "w") as fh:
            subprocess.run([sys.executable, "-m", "dinitz.cli", "gen", "--n", "100",
                            "--seed", "4099"], stdout=fh, env=cli_env(False), check=True,
                           timeout=120)
        proc, code, peak_kib = run_measured(["solve", inst, tmp_path / "s.json"])
        assert code == 0, proc.stderr
        assert peak_kib < 96 << 10


class TestOrient:
    def test_n1(self, capsys):
        code, out, _ = run(capsys, "orient", "1")
        assert code == 0
        assert out == "1 0\n"

    def test_n2_header_and_cycle(self, capsys):
        code, out, _ = run(capsys, "orient", "2")
        assert code == 0
        assert out.splitlines()[0] == "4 4"
        assert parse_digraph(out).edges == {(0, 1), (1, 3), (3, 2), (2, 0)}

    def test_n3_header(self, capsys):
        code, out, _ = run(capsys, "orient", "3")
        assert out.splitlines()[0] == "9 18"

    def test_edges_sorted(self, capsys):
        _, out, _ = run(capsys, "orient", "4")
        pairs = [tuple(map(int, line.split())) for line in out.splitlines()[1:]]
        assert pairs == sorted(pairs)

    @staticmethod
    def largest_admitted():
        """The largest N whose N^2 (N - 1) edges fit the edge budget."""
        n = 1
        while (n + 1) ** 2 * n <= MAX_EDGES:
            n += 1
        return n

    def test_size_above_the_edge_budget_is_exit_2(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("build_square_orientation was called")

        monkeypatch.setattr("dinitz.cli.build_square_orientation", refuse)
        n = self.largest_admitted() + 1
        code, out, err = run(capsys, "orient", str(n))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: n = {n} gives {n * n * (n - 1)} edges, above the limit of {MAX_EDGES}\n"
        )

    def test_size_at_the_edge_budget_is_built(self, capsys, monkeypatch):
        built = []

        def record(n):
            built.append(n)
            return make_digraph(0, [])

        monkeypatch.setattr("dinitz.cli.build_square_orientation", record)
        n = self.largest_admitted()
        assert run(capsys, "orient", str(n))[0] == 0
        assert built == [n]

    def test_the_edge_budget_refuses_every_size_above_the_vertex_cap(self):
        # 512 * 512 vertices is parse_digraph's cap, so the edge budget is
        # the only size rule orient needs.
        assert 512 * 512 == MAX_VERTICES
        assert self.largest_admitted() < 512

    @pytest.mark.parametrize("n", ["200", "512", "513"])
    def test_sizes_above_the_edge_budget_are_exit_2_in_bounded_memory(self, n):
        # At 1 GB of address space, 'orient 200' ran out of memory with a
        # MemoryError traceback before the edge budget.
        proc = run_limited(["orient", n])
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr.startswith(f"error: n = {n} gives ")
        assert proc.stderr.count("\n") == 1


class TestPropx:
    def test_triangle_fails(self, tmp_path, capsys):
        code, out, _ = run(capsys, "propx", triangle_file(tmp_path))
        assert code == 1
        assert out.strip() == "fails: 0 1 2"

    def test_square_n2_holds(self, tmp_path, capsys):
        path = write_graph(tmp_path, build_square_orientation(2))
        code, out, _ = run(capsys, "propx", path)
        assert code == 0
        assert out.strip() == "holds"

    def test_cap_is_exit_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, build_square_orientation(5))
        code, _, _ = run(capsys, "propx", path, "--max-vertices", "20")
        assert code == 2

    def test_parse_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("totally not a graph")
        assert run(capsys, "propx", str(bad))[0] == 2

    def test_negative_max_vertices_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dinitz.cli._load_digraph", refuse_to_load)
        path = write_graph(tmp_path, build_square_orientation(3))
        code, out, err = run(capsys, "propx", path, "--max-vertices", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --max-vertices must be non-negative\n"

    def test_zero_max_vertices_admits_the_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        assert run(capsys, "propx", str(path), "--max-vertices", "0")[:2] == (0, "holds\n")

    def test_cap_is_checked_before_the_edges(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dinitz.digraph.make_digraph", refuse_to_build)
        path = tmp_path / "big.txt"
        path.write_text("21 1\n0 x\n")  # a bad edge the cap must preempt
        code, _, err = run(capsys, "propx", str(path), "--max-vertices", "20")
        assert code == 2
        assert err == "error: header declares 21 vertices, above the limit of 20\n"

    @pytest.mark.parametrize("command", [["propx"], ["kernel", "0"]])
    def test_header_above_the_edge_budget_is_exit_2_in_bounded_memory(
        self, command, tmp_path
    ):
        path = tmp_path / "many.txt"
        path.write_text(f"4 {MAX_EDGES + 1}\n0 x\n")  # a bad edge the budget preempts
        proc = run_limited([command[0], str(path), *command[1:]])
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == (
            f"error: header declares {MAX_EDGES + 1} edges, above the limit of {MAX_EDGES}\n"
        )

    @pytest.mark.parametrize(
        "command", [["propx", "--max-vertices", str(1 << 30)], ["kernel", "0"]]
    )
    def test_header_above_the_vertex_cap_is_exit_2(
        self, command, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("dinitz.digraph.make_digraph", refuse_to_build)
        path = tmp_path / "big.txt"
        path.write_text(f"{MAX_VERTICES + 1} 0\n")
        code, _, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert f"header declares {MAX_VERTICES + 1} vertices" in err


def refuse_to_build(num_vertices, edges):
    raise AssertionError("make_digraph was called")


def refuse_to_load(*args):
    raise AssertionError("the graph was read")


class TestKernel:
    def test_single_edge_bruteforce(self, tmp_path, capsys):
        path = tmp_path / "edge.txt"
        path.write_text("2 1\n0 1\n")
        code, out, _ = run(capsys, "kernel", str(path), "0,1")
        assert code == 0
        assert out.strip() == "1"

    def test_triangle_full_subset_has_none(self, tmp_path, capsys):
        code, out, _ = run(capsys, "kernel", triangle_file(tmp_path), "0,1,2")
        assert code == 1
        assert out.strip() == "none"

    def test_gs_square_full_grid(self, tmp_path, capsys):
        path = write_graph(tmp_path, build_square_orientation(2))
        code, out, _ = run(capsys, "kernel", path, "0,1,2,3", "--mode", "gs-square")
        assert code == 0
        assert out.strip() == "1 2"

    def test_cell_syntax(self, tmp_path, capsys):
        path = write_graph(tmp_path, build_square_orientation(2))
        code, out, _ = run(capsys, "kernel", path, "@0,0,@0,1", "--mode", "gs-square")
        assert code == 0
        assert out.strip() == "1"

    def test_gs_square_rejects_non_square(self, tmp_path, capsys):
        code, _, err = run(capsys, "kernel", triangle_file(tmp_path), "0,1",
                           "--mode", "gs-square")
        assert code == 2
        assert "orient" in err

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 3), (3, 2), (0, 2)],  # one edge reversed
            [(0, 1), (1, 3), (3, 2)],  # one edge missing
            [(0, 1), (1, 3), (3, 2), (2, 0), (0, 3)],  # one diagonal too many
            [(1, 0), (3, 1), (2, 3), (0, 2)],  # every edge reversed
        ],
    )
    def test_gs_square_rejects_square_sized_impostors(self, edges, tmp_path, capsys):
        path = write_graph(tmp_path, make_digraph(4, edges))
        code, _, err = run(capsys, "kernel", path, "0,1", "--mode", "gs-square")
        assert code == 2
        assert "orient" in err

    @staticmethod
    def gs_square_accepts(tmp_path, capsys, g):
        code, _, _ = run(capsys, "kernel", write_graph(tmp_path, g), "", "--mode", "gs-square")
        assert code in (0, 2)
        return code == 0

    def test_gs_square_guard_matches_graph_equality_n2(self, tmp_path, capsys):
        # every orientation of every simple graph on the 4 cells of n = 2
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        square = build_square_orientation(2)
        for picks in product((None, False, True), repeat=len(pairs)):
            edges = [(u, v) if fwd else (v, u)
                     for (u, v), fwd in zip(pairs, picks) if fwd is not None]
            g = make_digraph(4, edges)
            assert self.gs_square_accepts(tmp_path, capsys, g) == (g == square), edges

    @pytest.mark.parametrize("n", [0, 1, 3, 4])
    def test_gs_square_guard_matches_graph_equality_perturbed(self, n, tmp_path, capsys):
        square = build_square_orientation(n)
        assert self.gs_square_accepts(tmp_path, capsys, square)
        edges = sorted(square.edges)
        for i, (u, v) in enumerate(edges):
            rest = edges[:i] + edges[i + 1:]
            for g in (make_digraph(n * n, rest), make_digraph(n * n, rest + [(v, u)])):
                assert not self.gs_square_accepts(tmp_path, capsys, g)
        for u in range(n * n):
            for v in range(n * n):
                if u != v and v not in square.succ[u] and u not in square.succ[v]:
                    g = make_digraph(n * n, edges + [(u, v)])
                    assert not self.gs_square_accepts(tmp_path, capsys, g)

    @pytest.mark.parametrize(
        "subset, reported",
        [
            ("@1", "cell reference '@1' is missing its column"),
            ("0,@1", "cell reference '@1' is missing its column"),
            ("@0,2", "cell (0, 2) out of range for n=2"),
            ("@-1,0", "cell (-1, 0) out of range for n=2"),
        ],
    )
    def test_bad_cell_reference_is_exit_2(self, subset, reported, tmp_path, capsys):
        path = write_graph(tmp_path, build_square_orientation(2))
        code, out, err = run(capsys, "kernel", path, subset)
        assert (code, out, err) == (2, "", f"error: {reported}\n")

    def test_bruteforce_above_the_subset_cap_is_exit_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, build_square_orientation(5))
        code, out, err = run(capsys, "kernel", path, ",".join(map(str, range(25))))
        assert (code, out) == (2, "")
        assert err == (
            f"error: subset has 25 vertices, exceeding the cap of {DEFAULT_KERNEL_CAP}\n"
        )

    def test_small_subset_of_a_large_graph_in_bounded_memory(self, tmp_path):
        """A star of MAX_VERTICES vertices, an edge from each into the last:
        bitmasks of the whole graph would take about 8.6 GB, the subgraph
        on the subset takes one vertex."""
        n = MAX_VERTICES
        path = tmp_path / "star.txt"
        path.write_text(f"{n} {n - 1}\n" + "".join(f"{v} {n - 1}\n" for v in range(n - 1)))
        proc = run_limited(["kernel", str(path), "0"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    def test_malformed_subset(self, tmp_path, capsys):
        assert run(capsys, "kernel", triangle_file(tmp_path), "0,x")[0] == 2

    def test_subset_out_of_range(self, tmp_path, capsys):
        assert run(capsys, "kernel", triangle_file(tmp_path), "0,7")[0] == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_modes_agree_up_to_validity(self, n, tmp_path, capsys):
        g = build_square_orientation(n)
        path = write_graph(tmp_path, g)
        for mask in range(1, 1 << (n * n)):
            subset = [v for v in range(n * n) if mask >> v & 1]
            spec = ",".join(map(str, subset))
            code_bf, out_bf, _ = run(capsys, "kernel", path, spec)
            code_gs, out_gs, _ = run(capsys, "kernel", path, spec,
                                     "--mode", "gs-square")
            assert code_bf == code_gs == 0
            for out in (out_bf, out_gs):
                kernel = frozenset(int(t) for t in out.split())
                assert is_kernel(g, subset, kernel)


class TestDoubleDashOperand:
    """argparse hands an operand "--" given after "--" over as an empty list."""

    @pytest.mark.parametrize(
        "command, reported",
        [
            ("verify", "[Errno 2] No such file or directory: '--'"),
            ("kernel", "invalid literal for int() with base 10: '--'"),
        ],
    )
    def test_is_read_as_the_string(self, command, reported, tmp_path, capsys):
        if command == "verify":
            first = write_json(tmp_path, {"n": 1, "lists": [[["a"]]]}, "i.json")
        else:
            first = triangle_file(tmp_path)
        code, out, err = run(capsys, command, first, "--", "--")
        assert (code, out, err) == (2, "", f"error: {reported}\n")


def cli_env(unbuffered):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_measured(argv):
    """Run the dinitz command in a child, with stdout discarded; return the
    launcher's result, the child's exit code and its peak RSS (KiB on
    Linux).  A child's ru_maxrss starts at its parent's RSS, so a small
    launcher process, not this one, starts it."""
    launcher = (
        "import os, subprocess, sys\n"
        "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-m", "dinitz.cli", *argv],
        capture_output=True, text=True, env=cli_env(False), timeout=120,
    )
    code, peak_kib = map(int, proc.stdout.split())
    return proc, code, peak_kib


def run_limited(argv, limit=1 << 30):
    """Run the dinitz command in a child limited to ``limit`` bytes of
    address space, so that a size check that fails ends in a MemoryError
    instead of exhausting the host."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "dinitz.cli", *argv], capture_output=True, text=True,
        env=cli_env(False), preexec_fn=limit_memory, timeout=60,
    )


class TestImportBoundary:
    def test_import_dinitz_loads_no_command_line_module(self):
        """The library's callers never run the command line's code."""
        code = (
            "import sys; before = set(sys.modules); import dinitz; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=cli_env(False), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        added = proc.stdout.split()
        assert "dinitz.galvin" in added
        assert not {"dinitz.cli", "argparse", "json"} & set(added)

    # Modules the solve path never runs.  The interpreter starts without
    # site (-S), which on some hosts imports random itself.
    GENERIC = {"dinitz.kernel", "dinitz.matching"}

    def fresh_python(self, code):
        """The standard output of ``code`` in a new interpreter."""
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True,
            env=cli_env(False), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize(
        "module, unloaded",
        [("dinitz", GENERIC), ("dinitz.cli", GENERIC | {"random"})],
    )
    def test_import_skips_the_kernel_and_matching_modules(self, module, unloaded):
        code = (
            "import sys; before = set(sys.modules); "
            f"import {module}; "
            "print(' '.join(sorted(before)), ' '.join(sorted(sys.modules)), sep='\\n')"
        )
        before, after = map(str.split, self.fresh_python(code).splitlines())
        assert not unloaded & set(before)
        assert "dinitz.galvin" in after
        assert not unloaded & set(after)

    def test_star_import_binds_each_name_from_its_module(self):
        homes = {
            name: "dinitz.galvin" if name in galvin.__all__ else getattr(dinitz, name).__module__
            for name in dinitz.__all__
        }
        assert set(homes.values()) == {
            "dinitz.galvin", "dinitz.digraph", "dinitz.kernel", "dinitz.matching"
        }
        code = (
            "import sys\n"
            "from dinitz import *\n"
            f"homes = {homes!r}\n"
            "print(*sorted(name for name, module in homes.items()\n"
            "              if globals()[name] is not getattr(sys.modules[module], name)))"
        )
        assert self.fresh_python(code).split() == []

    def test_dir_lists_every_public_name_and_module(self):
        code = (
            "import sys, dinitz; names = dir(dinitz); "
            "print(' '.join(names)); print(' '.join(sorted(sys.modules)))"
        )
        names, loaded = map(str.split, self.fresh_python(code).splitlines())
        assert set(dinitz.__all__) | {"kernel", "matching"} <= set(names)
        assert not self.GENERIC & set(loaded)

    @pytest.mark.parametrize("module", ["kernel", "matching"])
    def test_modules_resolve_on_first_use(self, module):
        code = (
            "import sys, dinitz\n"
            f"print(dinitz.{module} is sys.modules['dinitz.{module}'])"
        )
        assert self.fresh_python(code) == "True\n"


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv", [["gen", "--n", "60"], ["gen", "--n", "2"], ["orient", "3"]],
        ids=["gen-60", "gen-2", "orient-3"],
    )
    def test_is_exit_2_without_a_traceback(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dinitz.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=cli_env(unbuffered), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_gone_mid_write_is_exit_2(self, unbuffered):
        """``orient 40`` prints megabytes in one write.  Unbuffered, the raw
        file takes the part the pipe held and returns a short count instead
        of raising; the rest must still be written, and so fail."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "dinitz.cli", "orient", "40"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(unbuffered),
        )
        try:
            assert len(proc.stdout.read(1)) == 1
        finally:
            proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2, err
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestCollectorPaused:
    """main runs each subcommand with the cyclic garbage collector paused,
    and gives the caller back the setting it had."""

    SPEC = {"n": 2, "lists": [[["a", "b"], ["a", "b"]], [["a", "b"], ["a", "b"]]]}

    def test_is_paused_inside_the_subcommand(self, tmp_path, capsys, monkeypatch):
        seen = []

        def recording(function):
            def wrapper(*args, **kwargs):
                seen.append((function.__name__, gc.isenabled()))
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "solve_dinitz", recording(cli.solve_dinitz))
        monkeypatch.setattr(
            cli, "verify_generalized_latin", recording(cli.verify_generalized_latin)
        )
        inst = write_json(tmp_path, self.SPEC, "i.json")
        sol = str(tmp_path / "s.json")
        assert run(capsys, "solve", inst, sol)[0] == 0
        assert run(capsys, "verify", inst, sol)[:2] == (0, "valid\n")
        assert seen == [("solve_dinitz", False), ("verify_generalized_latin", False)]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "case, outcome",
        [("valid", 0), ("invalid", 1), ("missing", 2),
         ("usage", SystemExit), ("raises", RuntimeError)],
    )
    def test_caller_setting_is_restored(self, case, outcome, enabled, tmp_path, monkeypatch):
        inst = write_json(tmp_path, self.SPEC, "i.json")
        bad = write_json(tmp_path, {"n": 2, "grid": [["a", "a"], ["b", "b"]]}, "bad.json")
        out = str(tmp_path / "out.json")
        argv = {
            "valid": ["solve", inst, out],
            "invalid": ["verify", inst, bad],
            "missing": ["solve", str(tmp_path / "nope.json"), out],
            "usage": ["solve"],
            "raises": ["solve", inst, out],
        }[case]

        def fail(args):
            raise RuntimeError("solver crashed")

        if case == "raises":
            monkeypatch.setattr(cli, "cmd_solve", fail)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if isinstance(outcome, int):
                assert main(argv) == outcome
            else:
                with pytest.raises(outcome):
                    main(argv)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_leaves_no_more_cyclic_garbage_on_a_larger_input(self, tmp_path, capsys):
        def garbage(*argv):
            """Objects in reference cycles that one command left behind."""
            gc.collect()
            main(list(argv))
            return gc.collect()

        files = {}
        for n in (4, 16):
            (tmp_path / f"i{n}.json").write_text(run(capsys, "gen", "--n", str(n))[1])
            files[n] = (str(tmp_path / f"i{n}.json"), str(tmp_path / f"s{n}.json"))
        garbage("solve", *files[4])  # warm up: caches and lazy imports
        garbage("verify", *files[4])
        for command in ("solve", "verify"):
            counts = [garbage(command, *files[n]) for n in (4, 16)]
            assert counts[0] == counts[1], command
        small = write_graph(tmp_path, build_square_orientation(3), "small.txt")
        path = write_graph(tmp_path, make_digraph(12, [(v, v + 1) for v in range(11)]))
        counts = [garbage("propx", graph) for graph in (small, path)]
        assert counts[0] == counts[1]


class TestRoundTrip:
    def test_degenerate_n0(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "--n", "0")
        assert code == 0
        inst = tmp_path / "inst.json"
        inst.write_text(out)
        sol = tmp_path / "sol.json"
        assert run(capsys, "solve", str(inst), str(sol))[0] == 0
        assert json.loads(sol.read_text()) == {"n": 0, "grid": []}
        assert run(capsys, "verify", str(inst), str(sol))[0] == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_gen_solve_verify(self, n, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "--n", str(n), "--seed", str(10 + n))
        assert code == 0
        inst = tmp_path / "inst.json"
        inst.write_text(out)
        sol = tmp_path / "sol.json"
        assert run(capsys, "solve", str(inst), str(sol))[0] == 0
        code, out, _ = run(capsys, "verify", str(inst), str(sol))
        assert code == 0
        assert out.strip() == "valid"
