"""Command-line front end.

Subcommands: gen, solve, verify, orient, propx, kernel.  Instances and
solutions are UTF-8 JSON ({"n": ..., "lists": ...} / {"n": ..., "grid":
...}); digraphs use the plain-text "n m" format.  Exit codes: 0 for
success or a positive verdict, 1 for a negative result (invalid
solution, failed audit, no kernel) or an internal solver defect, 2 for
usage and input errors.  Warnings go to stderr; stdout carries only
machine-readable output.

``verify`` checks the parsed label lists directly: every test it makes
(row repeats, column repeats, list membership) runs on the labels with
Python equality, as interning would, so it never builds the interned
instance that ``solve`` needs.

``kernel --mode gs-square`` accepts a graph only if it equals the
orientation ``orient`` prints for its side length.  A reader that
closes stdout early (``dinitz gen --n 60 | head -c 1``) gives exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import sys
from types import SimpleNamespace

from .digraph import MAX_VERTICES, Digraph, format_digraph, parse_digraph
from .galvin import (
    DinitzInstance,
    KernelOracleError,
    UndersizedListError,
    build_square_orientation,
    solve_dinitz,
    square_kernel_oracle,
    verify_generalized_latin,
)
from .kernel import find_kernel_bruteforce, has_property_x

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _warn(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(f"warning: {message}", file=sys.stderr)


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nesting too deep") from None


def _check_lists(
    path: str, n: int, lists: list, args: argparse.Namespace | None = None
) -> None:
    """Raise ValueError at the first row or cell, in row-major order, that
    is not an array of the right size.  Given ``args``, a cell with an
    array or object as a label counts too, and duplicate labels in the
    cells before the fault are warned about: the whole per-cell check,
    which _load_instance runs only once the quick one or interning failed
    and cmd_verify always runs.
    """
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


def _check_n(path: str, n) -> None:
    if type(n) is not int or n < 0:  # JSON true is a Python int
        raise ValueError(f"{path}: 'n' must be a non-negative integer")


def _read_instance(path: str) -> tuple[int, list]:
    """The instance's 'n' and its 'lists' array of n rows, unchecked below
    the rows."""
    data = _read_json(path)
    if not isinstance(data, dict) or "n" not in data or "lists" not in data:
        raise ValueError(f"{path}: instance JSON needs fields 'n' and 'lists'")
    n, lists = data["n"], data["lists"]
    _check_n(path, n)
    if not isinstance(lists, list) or len(lists) != n:
        raise ValueError(f"{path}: 'lists' must be an array of {n} rows")
    return n, lists


def _load_instance(path: str, args: argparse.Namespace) -> DinitzInstance:
    n, lists = _read_instance(path)
    try:
        _check_lists(path, n, lists)
        inst = DinitzInstance.from_labels(lists)
    except (TypeError, ValueError):
        # An unhashable label (TypeError from interning) may sit before
        # the first shape fault: report whichever comes first.
        _check_lists(path, n, lists, args)
        raise
    for i, (row, interned) in enumerate(zip(lists, inst.lists)):
        for j, (cell, ids) in enumerate(zip(row, interned)):
            if len(ids) != len(cell):
                _warn(args, f"{path}: cell ({i}, {j}) has duplicate colors; deduplicated")
    return inst


def _load_solution(path: str) -> tuple[int, list]:
    data = _read_json(path)
    if not isinstance(data, dict) or "n" not in data or "grid" not in data:
        raise ValueError(f"{path}: solution JSON needs fields 'n' and 'grid'")
    n, grid = data["n"], data["grid"]
    _check_n(path, n)
    if not isinstance(grid, list) or any(not isinstance(row, list) for row in grid):
        raise ValueError(f"{path}: 'grid' must be an array of arrays")
    return n, grid


def _write_json(path: str, doc) -> None:
    """Write doc as indented JSON, atomically: readers see the old file or
    the whole new one, and a failed write leaves no partial file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _load_digraph(path: str, max_vertices: int = MAX_VERTICES) -> Digraph:
    with open(path, encoding="utf-8") as fh:
        return parse_digraph(fh.read(), max_vertices)


def _parse_subset(spec: str, g: Digraph) -> frozenset[int]:
    """Parse "0,3,5" vertex ids or "@r,c" cell refs (square graphs only)."""
    tokens = [t.strip() for t in spec.split(",")] if spec.strip() else []
    n = math.isqrt(g.num_vertices)
    members: set[int] = set()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("@"):
            if n * n != g.num_vertices:
                raise ValueError("cell syntax '@r,c' needs a square-orientation graph")
            if i + 1 >= len(tokens):
                raise ValueError(f"cell reference {tok!r} is missing its column")
            r, c = int(tok[1:]), int(tokens[i + 1])
            if not (0 <= r < n and 0 <= c < n):
                raise ValueError(f"cell ({r}, {c}) out of range for n={n}")
            members.add(r * n + c)
            i += 2
        else:
            v = int(tok)
            if not 0 <= v < g.num_vertices:
                raise ValueError(f"vertex {v} out of range [0, {g.num_vertices})")
            members.add(v)
            i += 1
    return frozenset(members)


def cmd_gen(args: argparse.Namespace) -> int:
    n = args.n
    list_size = args.list_size if args.list_size is not None else n
    universe_size = args.universe_size if args.universe_size is not None else 3 * n
    if n < 0:
        return _error("--n must be non-negative")
    if list_size < 0:
        return _error("--list-size must be non-negative")
    if universe_size < 0:
        return _error("--universe-size must be non-negative")
    if universe_size < list_size:
        return _error(
            f"universe of {universe_size} labels cannot supply lists of {list_size}"
        )
    if list_size < n:
        if not args.allow_undersized:
            return _error(
                f"lists of {list_size} colors are below the solvable bound of {n}; "
                "pass --allow-undersized to generate anyway"
            )
        _warn(args, f"lists of {list_size} colors are below the solvable bound of {n}")
    if n > 0 and list_size == 0:
        return _error("lists must be non-empty for a non-empty grid")
    labels = [f"c{k}" for k in range(universe_size)]
    rng = random.Random(args.seed)
    lists = [[rng.sample(labels, list_size) for _ in range(n)] for _ in range(n)]
    doc = {
        "n": n,
        "lists": lists,
        "meta": {
            "seed": args.seed,
            "universe_size": universe_size,
            "list_size": list_size,
        },
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        inst = _load_instance(args.instance, args)
    except (OSError, ValueError) as exc:
        return _error(str(exc))
    try:
        grid = solve_dinitz(inst)
    except UndersizedListError as exc:
        return _error(str(exc))
    except KernelOracleError as exc:
        print(f"internal solver failure: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    try:
        _write_json(args.solution, {"n": inst.n, "grid": inst.label_grid(grid)})
    except OSError as exc:
        return _error(f"cannot write {args.solution}: {exc.strerror or exc}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        n, lists = _read_instance(args.instance)
        _check_lists(args.instance, n, lists, args)
        grid_n, grid = _load_solution(args.solution)
        if grid_n != n or len(grid) != n or any(len(row) != n for row in grid):
            raise ValueError("solution dimensions do not match the instance")
        try:
            hash(tuple(map(tuple, grid)))  # JSON arrays and objects are unhashable
        except TypeError:
            raise ValueError(
                f"{args.solution}: 'grid' has an array or object as a color label"
            ) from None
        report = verify_generalized_latin(SimpleNamespace(n=n, lists=lists), grid)
    except (OSError, ValueError) as exc:
        return _error(str(exc))
    if report.valid:
        print("valid")
        return EXIT_OK
    if report.reason == "row-repeat":
        print(f"invalid: row {report.row} has repeated colors")
    elif report.reason == "column-repeat":
        print(f"invalid: column {report.col} has repeated colors")
    else:
        print(f"invalid: cell ({report.row}, {report.col}) uses a color not in its list")
    return EXIT_NEGATIVE


def cmd_orient(args: argparse.Namespace) -> int:
    if args.n < 0:
        return _error("n must be non-negative")
    if args.n * args.n > MAX_VERTICES:  # parse_digraph would refuse the output
        return _error(
            f"n = {args.n} gives {args.n * args.n} vertices, "
            f"above the limit of {MAX_VERTICES}"
        )
    sys.stdout.write(format_digraph(build_square_orientation(args.n)))
    return EXIT_OK


def cmd_propx(args: argparse.Namespace) -> int:
    try:
        g = _load_digraph(args.graph, min(args.max_vertices, MAX_VERTICES))
        report = has_property_x(g, cap=args.max_vertices)
    except (OSError, ValueError) as exc:
        return _error(str(exc))
    if report.holds:
        print("holds")
        return EXIT_OK
    print("fails: " + " ".join(str(v) for v in sorted(report.witness)))
    return EXIT_NEGATIVE


def cmd_kernel(args: argparse.Namespace) -> int:
    try:
        g = _load_digraph(args.graph)
        subset = _parse_subset(args.subset, g)
    except (OSError, ValueError) as exc:
        return _error(str(exc))
    if args.mode == "bruteforce":
        try:
            found = find_kernel_bruteforce(g, subset)
        except ValueError as exc:
            return _error(str(exc))
    else:
        n = math.isqrt(g.num_vertices)
        if n * n != g.num_vertices or g != build_square_orientation(n):
            return _error("gs-square mode needs the graph emitted by 'orient'")
        found = square_kernel_oracle(n, subset)
    if found is None:
        print("none")
        return EXIT_NEGATIVE
    print(" ".join(str(v) for v in sorted(found)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dinitz",
        description="Pick one color per grid cell from its list so that rows "
        "and columns stay all-distinct, plus the machinery behind it: "
        "grid orientations, kernels, and stable matchings.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress warnings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance on stdout")
    p.add_argument("--n", type=int, required=True, help="grid side length")
    p.add_argument("--universe-size", type=int, default=None,
                   help="number of distinct color labels (default 3n)")
    p.add_argument("--list-size", type=int, default=None,
                   help="colors per cell (default n)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--allow-undersized", action="store_true",
                   help="permit list sizes below n (instance may be unsolvable)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("solution", help="solution JSON path to write")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a solution against an instance")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("solution", help="solution JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orient", help="print the n x n grid orientation")
    p.add_argument("n", type=int, help="grid side length")
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("propx", help="audit that every vertex subset has a kernel")
    p.add_argument("graph", help="digraph text file")
    p.add_argument("--max-vertices", type=int, default=20,
                   help="refuse graphs above this size (default 20)")
    p.set_defaults(func=cmd_propx)

    p = sub.add_parser("kernel", help="find a kernel of a vertex subset")
    p.add_argument("graph", help="digraph text file")
    p.add_argument("subset", help="comma-separated vertex ids, or '@r,c' cells")
    p.add_argument("--mode", choices=["bruteforce", "gs-square"],
                   default="bruteforce",
                   help="exhaustive search, or the stable-matching fast path "
                   "(square orientations only)")
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if value == []:  # argparse's value for an operand "--" after "--"
            setattr(args, name, "--")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _error("standard output was closed before all output was written")
    return code


if __name__ == "__main__":
    sys.exit(main())
