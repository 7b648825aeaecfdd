"""Property tests of the command line: exit codes on arbitrary input, and
``dinitz verify`` against the interning path it replaced."""

import argparse
import gc
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, given, settings
from hypothesis import strategies as st

from dinitz import format_digraph, verify_generalized_latin
from dinitz.cli import _error, _load_instance, _load_solution, main

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


def interning_verify(args: argparse.Namespace) -> int:
    """``dinitz verify`` as it was before it checked the parsed labels:
    intern the instance, intern the grid, check the ids."""
    try:
        inst = _load_instance(args.instance, args)
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
