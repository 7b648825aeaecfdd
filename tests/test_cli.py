import json
import os
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
from dinitz.cli import main
from dinitz.digraph import MAX_VERTICES

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

    @pytest.mark.parametrize("deep", ["instance", "verify-instance", "verify-solution"])
    def test_deeply_nested_json_is_exit_2(self, deep, tmp_path, capsys):
        nested = tmp_path / "deep.json"
        nested.write_text("[" * 100_000)
        good = write_json(tmp_path, {"n": 1, "lists": [[["a"]]]}, "i.json")
        sol = write_json(tmp_path, {"n": 1, "grid": [["a"]]}, "s.json")
        if deep == "instance":
            argv = ["solve", str(nested), str(tmp_path / "out.json")]
        elif deep == "verify-instance":
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

    def test_verify_dimension_mismatch(self, tmp_path, capsys):
        instance = {"n": 2, "lists": [[["a", "b"], ["a", "b"]],
                                      [["a", "b"], ["a", "b"]]]}
        inst = write_json(tmp_path, instance, "i.json")
        sol = write_json(tmp_path, {"n": 1, "grid": [["a"]]}, "s.json")
        assert run(capsys, "verify", inst, sol)[0] == 2


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

    def test_size_above_the_vertex_cap_is_exit_2(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("build_square_orientation was called")

        monkeypatch.setattr("dinitz.cli.build_square_orientation", refuse)
        code, out, err = run(capsys, "orient", "513")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: n = 513 gives {513 * 513} vertices, above the limit of {MAX_VERTICES}\n"
        )

    def test_size_at_the_vertex_cap_is_built(self, capsys, monkeypatch):
        built = []

        def record(n):
            built.append(n)
            return make_digraph(0, [])

        monkeypatch.setattr("dinitz.cli.build_square_orientation", record)
        assert run(capsys, "orient", "512")[0] == 0
        assert built == [512] and 512 * 512 == MAX_VERTICES


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

    def test_cap_is_checked_before_the_edges(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dinitz.digraph.make_digraph", refuse_to_build)
        path = tmp_path / "big.txt"
        path.write_text("21 1\n0 x\n")  # a bad edge the cap must preempt
        code, _, err = run(capsys, "propx", str(path), "--max-vertices", "20")
        assert code == 2
        assert err == "error: header declares 21 vertices, above the limit of 20\n"

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


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv", [["gen", "--n", "60"], ["gen", "--n", "2"], ["orient", "3"]],
        ids=["gen-60", "gen-2", "orient-3"],
    )
    def test_is_exit_2_without_a_traceback(self, argv, unbuffered):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dinitz.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


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
