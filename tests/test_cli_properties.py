"""Property tests of the command line: exit codes on arbitrary input,
``dinitz verify`` against the interning path it replaced and against the
whole-document path its row stream replaced, ``dinitz solve`` against
the whole-document path its row stream replaced, and the instance loader
against its earlier check, intern, recheck form."""

import argparse
import gc
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dinitz import DinitzInstance, cli, format_digraph, solve_dinitz, verify_generalized_latin
from dinitz.cli import (
    _error,
    _load_instance,
    _load_solution,
    _read_instance,
    _warn,
    _write_json,
    main,
)

from strategies import digraphs

NAN = math.nan


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert gc.isenabled(), "main left the cyclic garbage collector paused"
    return code, out.getvalue(), err.getvalue()


def write(directory, name, text):
    path = directory / name
    path.write_text(text)
    return str(path)


def reference_check_lists(
    path: str, n: int, lists: list, args: argparse.Namespace | None = None
) -> None:
    """The CLI's list check as it was when it had a quick mode: without
    ``args``, shapes only; with them, unhashable labels too, and duplicate
    warnings for the cells before the first fault."""
    for i, row in enumerate(lists):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"{path}: row {i} must be an array of {n} cells")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or not cell:
                raise ValueError(f"{path}: cell ({i}, {j}) must be a non-empty array")
            if args is None:
                continue
            try:
                distinct = len(set(cell))
            except TypeError:
                raise ValueError(
                    f"{path}: cell ({i}, {j}) has an array or object as a color label"
                ) from None
            if distinct != len(cell):
                _warn(args, f"{path}: cell ({i}, {j}) has duplicate colors; deduplicated")


def reference_load_instance(path: str, args: argparse.Namespace) -> DinitzInstance:
    """The CLI's instance loader as it was: a quick shape check, interning,
    the whole check again on any fault, then duplicate warnings read off
    the interned cells."""
    n, lists = _read_instance(path)
    try:
        reference_check_lists(path, n, lists)
        inst = DinitzInstance.from_labels(lists)
    except (TypeError, ValueError):
        reference_check_lists(path, n, lists, args)
        raise
    for i, (row, interned) in enumerate(zip(lists, inst.lists)):
        for j, (cell, ids) in enumerate(zip(row, interned)):
            if len(ids) != len(cell):
                _warn(args, f"{path}: cell ({i}, {j}) has duplicate colors; deduplicated")
    return inst


def interning_verify(args: argparse.Namespace) -> int:
    """``dinitz verify`` as it was before it checked the parsed labels:
    intern the instance, intern the grid, check the ids."""
    try:
        inst = reference_load_instance(args.instance, args)
        n, grid = _load_solution(args.solution)
        if n != inst.n or len(grid) != n or any(len(row) != n for row in grid):
            raise ValueError("solution dimensions do not match the instance")
        try:
            ids = inst.intern_grid(grid)
        except TypeError:
            raise ValueError(
                f"{args.solution}: 'grid' has an array or object as a color label"
            ) from None
        report = verify_generalized_latin(inst, ids)
    except (OSError, ValueError) as exc:
        return _error(str(exc))
    return print_verdict(report)


def print_verdict(report) -> int:
    if report.valid:
        print("valid")
        return 0
    if report.reason == "row-repeat":
        print(f"invalid: row {report.row} has repeated colors")
    elif report.reason == "column-repeat":
        print(f"invalid: column {report.col} has repeated colors")
    else:
        print(f"invalid: cell ({report.row}, {report.col}) uses a color not in its list")
    return 1


# Labels that Python equality mixes up (1/true/1.0, 0/false/-0.0), NaN,
# null, and strings that look like the others.
LABELS = st.sampled_from(
    ["a", "b", "c", "1", "NaN", "", 1, True, 1.0, 0, False, -0.0, 2, 2.5, None, NAN]
) | st.integers(-3, 3) | st.text(max_size=2)
UNKNOWN = st.sampled_from(["zz", 99, -7.5, "A"])
UNHASHABLE = st.sampled_from([[1], [], {"x": 1}, {}])


@st.composite
def verify_cases(draw):
    """An instance and a grid around a Latin square of the drawn labels,
    each cell's list holding its entry among extras, then perturbed: grid
    entries swapped within a row, copied within a row or column or
    replaced by other or unknown labels, entries left off their lists, and now and then one shape or
    label fault."""
    n = draw(st.integers(0, 4))
    base = draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))
    grid = [[base[(i + j) % n] for j in range(n)] for i in range(n)]
    lists = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = draw(st.lists(LABELS, max_size=4))
            if draw(st.integers(0, 9)):
                cell.insert(draw(st.integers(0, len(cell))), grid[i][j])
            row.append(cell or [draw(LABELS)])
        lists.append(row)
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if draw(st.booleans()):  # repeats in columns j and k, not in row i
            grid[i][j], grid[i][k] = grid[i][k], grid[i][j]
        else:
            grid[i][j] = draw(st.sampled_from([grid[i][k], grid[k][j]]) | LABELS | UNKNOWN)
    fault = draw(st.sampled_from(
        [None] * 6 + ["list-label", "grid-label", "empty-cell", "short-row", "grid-n"]
    ))
    if n and fault is not None:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if fault == "list-label":
            lists[i][j].append(draw(UNHASHABLE))
        elif fault == "grid-label":
            grid[i][j] = draw(UNHASHABLE)
        elif fault == "empty-cell":
            lists[i][j] = []
        elif fault == "short-row":
            del lists[i][j]
        else:
            grid = grid[1:]
    return {"n": n, "lists": lists}, {"n": len(grid), "grid": grid}


class TestVerifyMatchesInterning:
    @settings(max_examples=200, deadline=None)
    @given(case=verify_cases(), quiet=st.booleans())
    def test_same_exit_code_stdout_and_stderr(self, case, quiet, tmp_path_factory):
        directory = tmp_path_factory.mktemp("verify")
        instance, solution = case
        inst = write(directory, "i.json", json.dumps(instance))
        sol = write(directory, "s.json", json.dumps(solution))
        argv = ["--quiet"] * quiet + ["verify", inst, sol]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = interning_verify(argparse.Namespace(
                quiet=quiet, instance=inst, solution=sol
            ))
        event(" ".join(out.getvalue().split()[:2]) or err.getvalue().split()[0])
        assert call(*argv) == (code, out.getvalue(), err.getvalue())


def whole_document_verify(args: argparse.Namespace) -> int:
    """``dinitz verify`` as it was before it streamed the instance: the
    whole document through json.load, every row checked, then the
    solution."""
    try:
        n, lists = _read_instance(args.instance)
        reference_check_lists(args.instance, n, lists, args)
        grid_n, grid = _load_solution(args.solution)
        if grid_n != n or len(grid) != n or any(len(row) != n for row in grid):
            raise ValueError("solution dimensions do not match the instance")
        try:
            hash(tuple(map(tuple, grid)))
        except TypeError:
            raise ValueError(
                f"{args.solution}: 'grid' has an array or object as a color label"
            ) from None
        report = verify_generalized_latin(SimpleNamespace(n=n, lists=lists), grid)
    except (OSError, ValueError) as exc:
        return _error(str(exc))
    return print_verdict(report)


# Every label of verify_cases, and the infinities, which json writes as
# the constants Infinity and -Infinity beside NaN.
STREAM_LABELS = LABELS | st.sampled_from([math.inf, -math.inf])
SPACE = st.text(alphabet=" \t\n\r", max_size=3)


@st.composite
def document_texts(draw, doc: dict, field: str):
    """The text of ``doc``: as gen writes it, compact, with extra
    whitespace, with its keys reordered, one given twice or one not a
    string, and now and then with one character deleted, inserted or
    changed at a random offset or at its end."""
    layout = draw(st.sampled_from(
        ["gen", "gen", "compact", "spaced", "reordered", "sorted", "repeated", "repeated",
         "odd key", "meta"]
    ))
    event(f"{field} {layout}")
    meta = {"seed": draw(st.integers(0, 9)), "universe_size": 3, "list_size": NAN}
    if layout == "gen":
        text = json.dumps({**doc, "meta": meta}, indent=2) + "\n"
    elif layout == "compact":
        text = json.dumps(doc)
    elif layout == "spaced":
        items = draw(st.sampled_from([",", " ,", ",\n\t", "\r\n,  "]))
        keys = draw(st.sampled_from([":", " : ", ":\r\n", "\t:"]))
        text = draw(SPACE) + json.dumps(
            doc, indent=draw(st.none() | st.integers(0, 3)), separators=(items, keys)
        ) + draw(SPACE)
    elif layout == "reordered":
        text = json.dumps(dict(reversed(list(doc.items()))))
    elif layout == "sorted":
        text = json.dumps({**doc, "meta": meta}, sort_keys=True)
    elif layout in ("repeated", "odd key"):
        # json.load keeps the last value of a key, and refuses one not a string
        key = draw(st.sampled_from(
            ["n", field] if layout == "repeated" else ["meta", 5, None, []]
        ))
        value = draw(st.sampled_from(
            [doc["n"], 0, 1, 2] if key == "n" else [doc[field], []] if key == field
            else [meta]
        ))
        pairs = [(k, json.dumps(v)) for k, v in doc.items()] + [("meta", "{}")]
        pairs.insert(draw(st.integers(0, len(pairs))), (key, json.dumps(value)))
        text = "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"
    else:  # keys beside 'n' and the field, before, between or after them
        pairs = list(doc.items())
        pairs.insert(draw(st.integers(0, 2)), ("meta", meta))
        text = json.dumps(dict(pairs))
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "change", "unclose", "append"]))
        char = draw(st.sampled_from('[]{}",:0a- \\'))
        event(f"{field} {edit}")
        if edit == "unclose":  # the last bracket goes
            text = text.rstrip()[:-1]
        elif edit == "append":
            text += char
        else:
            text = text[:at] + (char if edit != "delete" else "") + text[at + (edit != "insert"):]
    return text


@st.composite
def streamed_cases(draw, padded=False):
    """The instance and solution of verify_cases, with infinities among
    the labels, now and then an 'n' of another kind, a row too many or a
    row not an array, both as document_texts.  If ``padded``, every
    non-empty cell of about half the instances also gets n labels of its
    own, so that those instances can be solved."""
    instance, solution = draw(verify_cases())
    n = instance["n"]
    lists = instance["lists"]
    pad = [f"p{k}" for k in range(n)] if padded and draw(st.booleans()) else []
    for row in lists:
        for cell in row:
            if draw(st.integers(0, 9)) == 0:
                cell.append(draw(STREAM_LABELS))
            if cell:
                cell.extend(pad)
    fault = draw(st.sampled_from([None] * 6 + ["n", "extra-row", "odd-row"]))
    if fault == "n":
        instance["n"] = draw(st.sampled_from([str(n), float(n), n == 1, -1, None, n + 1]))
    elif fault == "extra-row":
        lists.append(lists[-1] if lists else [])
    elif fault == "odd-row" and n:
        lists[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["ab", {}, 1, None, NAN]))
    return (draw(document_texts(instance, "lists")),
            draw(document_texts(solution, "grid")))


class TestVerifyMatchesWholeDocument:
    @settings(max_examples=400, deadline=None)
    @given(case=streamed_cases(), quiet=st.booleans())
    def test_same_exit_code_stdout_and_stderr(self, case, quiet, tmp_path_factory):
        directory = tmp_path_factory.mktemp("stream")
        inst = write(directory, "i.json", case[0])
        sol = write(directory, "s.json", case[1])
        argv = ["--quiet"] * quiet + ["verify", inst, sol]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = whole_document_verify(argparse.Namespace(
                quiet=quiet, instance=inst, solution=sol
            ))
        event(f"exit {code}")
        assert call(*argv) == (code, out.getvalue(), err.getvalue())


def whole_document_solve(args: argparse.Namespace) -> int:
    """``dinitz solve`` as it was before it streamed the instance: the
    whole document through json.load, interned, solved and written."""
    try:
        inst = reference_load_instance(args.instance, args)
        grid = solve_dinitz(inst)
    except (OSError, ValueError) as exc:  # UndersizedListError is a ValueError
        return _error(str(exc))
    _write_json(args.solution, {"n": inst.n, "grid": inst.label_grid(grid)})
    return 0


class TestSolveMatchesWholeDocument:
    @settings(max_examples=400, deadline=None)
    @given(case=streamed_cases(padded=True), quiet=st.booleans())
    def test_same_exit_code_output_and_solution(self, case, quiet, tmp_path_factory):
        directory = tmp_path_factory.mktemp("solve")
        inst = write(directory, "i.json", case[0])
        solution = directory / "s.json"
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = whole_document_solve(argparse.Namespace(
                quiet=quiet, instance=inst, solution=str(solution)
            ))
        event(f"exit {code}")
        expected = solution.read_bytes() if code == 0 else None
        solution.unlink(missing_ok=True)
        argv = ["--quiet"] * quiet + ["solve", inst, str(solution)]
        assert call(*argv) == (code, out.getvalue(), err.getvalue())
        assert (solution.read_bytes() if solution.exists() else None) == expected


class TestSolveFallsBackToWholeDocument:
    """A label that is an array or object, in a row streamed in gen's
    layout, sends solve to the whole document, whose check names it.
    streamed_cases seldom draws that document, so these cases pin it."""

    @pytest.mark.parametrize("cell, label, repeated", [
        ((0, 0), [1], None),
        ((4, 4), {}, None),
        ((2, 3), [1], (1, 2)),
    ], ids=["first-cell", "last-cell", "after-a-repeat"])
    def test_same_exit_code_and_stderr(self, cell, label, repeated, tmp_path, monkeypatch):
        doc = json.loads(call("gen", "--n", "5", "--seed", "3")[1])
        doc["lists"][cell[0]][cell[1]].append(label)
        if repeated:
            labels = doc["lists"][repeated[0]][repeated[1]]
            labels.append(labels[0])
        inst = write(tmp_path, "i.json", json.dumps(doc, indent=2))
        solution = tmp_path / "s.json"
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = whole_document_solve(argparse.Namespace(
                quiet=False, instance=inst, solution=str(solution)
            ))
        assert code == 2
        assert len(err.getvalue().splitlines()) == 1 + bool(repeated)
        calls = []

        def spy(path, *rest):
            calls.append(path)
            return read_instance(path, *rest)

        read_instance = cli._read_instance
        monkeypatch.setattr(cli, "_read_instance", spy)
        assert call("solve", inst, str(solution)) == (code, out.getvalue(), err.getvalue())
        assert calls == [inst]
        assert not solution.exists()


# Cells of every kind a JSON document can hold: label arrays with
# duplicates, NaN and 1/true/1.0 among them, empty arrays, arrays holding
# an array or object, strings, objects, numbers and null.
ODD_CELLS = (
    st.just([])
    | st.lists(LABELS | UNHASHABLE, min_size=1, max_size=3)
    | st.sampled_from(["ab", "", {"a": ["b"]}, {}, 0, 1, 2.5, True, None, NAN])
)


@st.composite
def lists_documents(draw):
    """An instance of label cells with now and then an odd cell, a row one
    cell short or long, or a row that is not an array."""
    n = draw(st.integers(0, 4))
    lists = []
    for _ in range(n):
        row = [
            draw(ODD_CELLS if draw(st.integers(0, 19)) == 0
                 else st.lists(LABELS, min_size=1, max_size=4))
            for _ in range(n)
        ]
        fault = draw(st.sampled_from([None] * 14 + ["short", "long", "odd"]))
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append(draw(st.lists(LABELS, min_size=1, max_size=2)))
        elif fault == "odd":
            row = draw(st.sampled_from(["a" * n, {"a": []}, n, None, True]))
        lists.append(row)
    return {"n": n, "lists": lists}


def load(loader, path, quiet):
    """What loader reports: its lists and labels, or its exception, and
    its stderr."""
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            inst = loader(path, argparse.Namespace(quiet=quiet))
        except Exception as exc:  # compared, not handled
            outcome = (type(exc), str(exc))
        else:  # repr tells 1, True and 1.0 apart, and NaN equals itself
            outcome = (inst.lists, list(map(repr, inst.labels)))
    return outcome, err.getvalue()


class TestLoadInstanceMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(doc=lists_documents(), quiet=st.booleans())
    def test_same_instance_error_and_warnings(self, doc, quiet, tmp_path_factory):
        path = write(tmp_path_factory.mktemp("load"), "i.json", json.dumps(doc))
        expected = load(reference_load_instance, path, quiet)
        outcome, err = expected
        event(("loaded" if isinstance(outcome[0], tuple) else "refused")
              + (", warned" if err else ""))
        assert load(_load_instance, path, quiet) == expected


# --- exit-code contract on arbitrary input --------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "lists", "grid", "x"]), kids, max_size=3),
    max_leaves=16,
)


@st.composite
def instances(draw):
    """Solvable instances (n distinct labels per cell or more), n x n
    grids of any cells, and documents with any 'n' and 'lists'."""
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["solvable", "solvable", "cells", "fields"]))
    if kind == "fields":
        return {"n": draw(st.just(n) | JSON), "lists": draw(JSON)}
    if kind == "solvable":
        cells = st.lists(LABELS, min_size=n, max_size=n + 2, unique=True)
    else:
        cells = st.lists(LABELS | JSON, max_size=n + 2) | JSON
    row = st.lists(cells, min_size=n, max_size=n)
    return {"n": n, "lists": draw(st.lists(row, min_size=n, max_size=n))}


SOLUTIONS = st.integers(0, 3).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n) | JSON,
    "grid": st.lists(st.lists(LABELS | JSON, min_size=n, max_size=n),
                     min_size=n, max_size=n) | JSON,
}))


def documents(shaped):
    """JSON text of a shaped document, of any JSON value, or not JSON."""
    return (
        shaped.map(json.dumps)
        | JSON.map(json.dumps)
        | st.text(alphabet='[]{}",:0123456789naeltrufs ', max_size=12)
    )


TOKENS = st.integers(-2, 7).map(str) | st.sampled_from(["x", "1.5", "-", "@", ""])
DIGRAPH_TEXTS = digraphs(max_vertices=5).map(format_digraph) | st.lists(
    st.tuples(TOKENS, st.sampled_from([" ", "\n", "  ", "\t"])), max_size=9
).map(lambda pairs: "".join(t + sep for t, sep in pairs))
SUBSETS = st.text(alphabet="0123456789,@ -x", max_size=8)
SIZES = st.integers(-3, 6).map(str)


class TestExitCodeContract:
    @settings(max_examples=100, deadline=None)
    @given(instance=documents(instances()), solution=documents(SOLUTIONS))
    def test_solve_and_verify(self, instance, solution, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fuzz")
        inst = write(directory, "i.json", instance)
        sol = write(directory, "s.json", solution)
        out = str(directory / "out.json")
        code, stdout, _ = call("solve", inst, out)
        event(f"solve exit {code}")
        assert code in (0, 1, 2)
        assert stdout == ""
        if code == 0:
            assert call("verify", inst, out)[:2] == (0, "valid\n")
        for argv in (["verify", inst, sol], ["verify", sol, inst]):
            assert call(*argv)[0] in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(text=DIGRAPH_TEXTS, subset=SUBSETS,
           mode=st.sampled_from(["bruteforce", "gs-square"]))
    def test_propx_and_kernel(self, text, subset, mode, tmp_path_factory):
        graph = write(tmp_path_factory.mktemp("fuzz"), "g.txt", text)
        assert call("propx", graph, "--max-vertices", "6")[0] in (0, 1, 2)
        # "--": a subset such as "-1" is not taken for an option
        assert call("kernel", "--mode", mode, graph, "--", subset)[0] in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(n=SIZES, universe=st.none() | SIZES, size=st.none() | SIZES,
           undersized=st.booleans())
    def test_gen_and_orient(self, n, universe, size, undersized):
        argv = ["gen", "--n", n]
        if universe is not None:
            argv += ["--universe-size", universe]
        if size is not None:
            argv += ["--list-size", size]
        argv += ["--allow-undersized"] * undersized
        assert call(*argv)[0] in (0, 1, 2)
        assert call("orient", n)[0] in (0, 1, 2)
