"""Command-line front end.

Subcommands: gen, solve, verify, orient, propx, kernel.  Instances and
solutions are UTF-8 JSON ({"n": ..., "lists": ...} / {"n": ..., "grid":
...}); digraphs use the plain-text "n m" format.  Exit codes: 0 for
success or a positive verdict, 1 for a negative result (invalid
solution, failed audit, no kernel) or an internal solver defect, 2 for
usage and input errors.  Warnings go to stderr; stdout carries only
machine-readable output.

``solve`` and ``verify`` read an instance laid out as ``gen`` writes it
one row at a time, each row checked and handed on before the next is
decoded: ``solve`` checks its shape and interns it, hashing each label
once, and ``verify`` keeps only whether each cell holds the solution's
color.  Any other text, and any instance with a fault, is parsed whole
and checked in full, which supplies the error text.  Each file is read
once, so either may be a pipe.  ``verify`` compares labels with Python
equality, as interning would, so it never builds the interned instance.

``kernel --mode gs-square`` accepts a graph only if it equals the
orientation ``orient`` prints for its side length.  A reader that
closes stdout early (``dinitz gen --n 60 | head -c 1``) gives exit 2,
with or without ``PYTHONUNBUFFERED``.

``main`` runs each subcommand with the cyclic garbage collector paused
and restores the caller's setting on every exit.  Parsed JSON trees,
the interned instance and the solver hold no reference cycles, so the
collector could free nothing in them; at n = 100 it spent about 0.1 s
of a ``dinitz solve`` walking them.  Reference counting still frees
them as they go.  ``DinitzInstance.from_labels`` pauses the collector
itself as well, so library callers intern at the same speed; here the
pause covers the JSON reading, the solve and the output too.  The only
cyclic garbage a command leaves is its argparse parser, a fixed few
hundred objects, collected once the collector is back on.

Each subcommand imports what only it needs when it runs: ``gen`` the
``random`` module, ``propx`` and ``kernel`` the exhaustive kernel
module.  ``solve`` and ``verify`` load neither.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import re
import sys
from types import SimpleNamespace

from .digraph import MAX_EDGES, MAX_VERTICES, Digraph, format_digraph, parse_digraph
from .galvin import (
    DinitzInstance,
    KernelOracleError,
    LatinReport,
    UndersizedListError,
    build_square_orientation,
    solve_dinitz,
    square_kernel_oracle,
    verify_generalized_latin,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

# gen refuses n * n * list size + universe size above this many labels.
# It draws label numbers from range(universe size), formats each one it
# draws and holds one row of the grid at a time: on 64-bit CPython 3.11,
# n = 2 with a universe just under the limit peaks at 16.5 MB, and
# n = 200 at the default sizes, which fits, peaks at 24 MB and writes
# 127 MB.
MAX_GEN_LABELS = 1 << 23


def _warn(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(f"warning: {message}", file=sys.stderr)


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_stdout(text: str) -> None:
    """Write text to stdout in full.  Unbuffered (``PYTHONUNBUFFERED``),
    stdout's binary layer is the raw file, whose write may take only part
    of the bytes, and the text layer would drop the rest: write them until
    all are taken, so a reader gone mid-write raises BrokenPipeError."""
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:  # a text-only stream, such as io.StringIO
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[binary.write(data):]


def _read_json(path: str, text: str | None = None):
    """The JSON document in the file at ``path``, or in ``text``, the
    file's text, when it has been read already."""
    try:
        if text is not None:
            return json.loads(text)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nesting too deep") from None


def _check_row(path: str, n: int, i: int, row, warn) -> list:
    """Check row ``i`` of an instance's lists: it must be an array of ``n``
    cells, a cell a non-empty array of labels none of which is an array
    or object.  Call ``warn`` with a message for each cell that repeats a
    label, and raise ValueError at the first fault.  Return the row's
    cells as sets of labels.
    """
    if not isinstance(row, list) or len(row) != n:
        raise ValueError(f"{path}: row {i} must be an array of {n} cells")
    cells = []
    for j, cell in enumerate(row):
        if not isinstance(cell, list) or not cell:
            raise ValueError(f"{path}: cell ({i}, {j}) must be a non-empty array")
        try:
            distinct = set(cell)
        except TypeError:
            raise ValueError(
                f"{path}: cell ({i}, {j}) has an array or object as a color label"
            ) from None
        if len(distinct) != len(cell):
            warn(f"{path}: cell ({i}, {j}) has duplicate colors; deduplicated")
        cells.append(distinct)
    return cells


def _check_shape(path: str, n: int, i: int, row, warn) -> list:
    """_check_row without the labels: row ``i`` itself, once it is an
    array of ``n`` non-empty arrays."""
    if not (isinstance(row, list) and len(row) == n
            and all(isinstance(cell, list) and cell for cell in row)):
        raise ValueError(f"{path}: row {i} is not an array of {n} non-empty arrays")
    return row


def _read_doc(
    path: str, kind: str, field: str, text: str | None = None
) -> tuple[int, object]:
    """The 'n', a non-negative integer, and the ``field`` of a JSON object."""
    data = _read_json(path, text)
    if not isinstance(data, dict) or "n" not in data or field not in data:
        raise ValueError(f"{path}: {kind} JSON needs fields 'n' and '{field}'")
    n = data["n"]
    if type(n) is not int or n < 0:  # JSON true is a Python int
        raise ValueError(f"{path}: 'n' must be a non-negative integer")
    return n, data[field]


def _read_instance(path: str, text: str | None = None) -> tuple[int, list]:
    """The instance's 'n' and its 'lists' array of n rows, unchecked below
    the rows."""
    n, lists = _read_doc(path, "instance", "lists", text)
    if not isinstance(lists, list) or len(lists) != n:
        raise ValueError(f"{path}: 'lists' must be an array of {n} rows")
    return n, lists


def _load_instance(path: str, args: argparse.Namespace) -> DinitzInstance:
    """The instance file at ``path``, interned, once each of its rows
    passes _check_row: the same warnings, and the same ValueError at the
    first fault.  Rows streamed in gen's layout pass _check_shape only:
    interning finds their unhashable labels, which send the read whole,
    and their repeated ones, which leave a cell fewer colors than the
    check's length for it (read whole, the length of its label set)."""
    def intern(rows: _Rows) -> DinitzInstance:
        sizes = []  # the length of each cell the check passed, row by row

        def labels():
            for row, cells in rows:
                sizes.append(list(map(len, cells)))
                yield row

        try:
            inst = DinitzInstance.from_labels(_Rows(len(rows), labels(), rows.warn))
        except TypeError:  # an array or object as a label
            raise ValueError(f"{path}: a color label is an array or object") from None
        for i, (reported, cells) in enumerate(zip(sizes, inst.lists)):
            for j, (size, cell) in enumerate(zip(reported, cells)):
                if len(cell) < size:
                    rows.warn(f"{path}: cell ({i}, {j}) has duplicate colors; deduplicated")
        return inst

    return _read_lists(path, args, intern, _check_shape)


def _load_solution(path: str) -> tuple[int, list]:
    n, grid = _read_doc(path, "solution", "grid")
    if not isinstance(grid, list) or any(not isinstance(row, list) for row in grid):
        raise ValueError(f"{path}: 'grid' must be an array of arrays")
    return n, grid


def _check_grid(path: str, solution, n: int) -> list:
    """The grid of ``solution``, what _load_solution returned for the file
    at ``path`` or the exception it raised, once it is an n x n array of
    hashable labels."""
    if isinstance(solution, Exception):
        raise solution
    grid_n, grid = solution
    if grid_n != n or len(grid) != n or any(len(row) != n for row in grid):
        raise ValueError("solution dimensions do not match the instance")
    try:
        hash(tuple(map(tuple, grid)))  # JSON arrays and objects are unhashable
    except TypeError:
        raise ValueError(f"{path}: 'grid' has an array or object as a color label") from None
    return grid


# Whitespace as JSON, and the json module, read it.
_SPACE = re.compile(r"[ \t\n\r]*")


def _gen_layout(text: str):
    """Walk instance text laid out as ``gen`` writes it: an object whose
    first key is "n", a non-negative integer, and whose second is "lists",
    each key of it given once.  Yield 'n', then each row of 'lists',
    decoded one at a time, and read the rest of the text after the last
    row.  Raise ValueError wherever the text leaves that layout, a syntax
    error included.
    """
    decode = json.JSONDecoder().raw_decode
    skip = _SPACE.match

    def expect(pos: int, char: str) -> int:
        if not text.startswith(char, pos):
            raise ValueError(f"not the {char!r} of gen's layout")
        return skip(text, pos + 1).end()

    def value(pos: int):
        found, end = decode(text, pos)
        return found, skip(text, end).end()

    key, pos = value(expect(skip(text).end(), "{"))
    if key != "n":
        raise ValueError("not the keys of gen's layout")
    n, pos = value(expect(pos, ":"))
    if type(n) is not int or not 0 <= n <= len(text):  # n rows take n characters
        raise ValueError("not the 'n' of gen's layout")
    yield n
    key, pos = value(expect(pos, ","))
    if key != "lists":
        raise ValueError("not the keys of gen's layout")
    pos = expect(expect(pos, ":"), "[")
    for i in range(n):
        row, pos = value(expect(pos, ",") if i else pos)
        yield row
    pos = expect(pos, "]")
    keys = {"n", "lists"}
    while not text.startswith("}", pos):
        key, pos = value(expect(pos, ","))
        if not isinstance(key, str) or key in keys:
            raise ValueError("not the keys of gen's layout")
        keys.add(key)
        _, pos = value(expect(pos, ":"))
    if expect(pos, "}") != len(text):
        raise ValueError("text after gen's layout")


class _Rows:
    """The n rows of an instance, read once: a sized iterable, as
    DinitzInstance.from_labels takes its rows.  ``warn`` takes a warning
    about the instance, held or printed as the read's own are."""

    def __init__(self, n: int, rows, warn) -> None:
        self.n, self.rows, self.warn = n, rows, warn

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return self.rows


def _read_lists(path: str, args: argparse.Namespace, use, check):
    """``use(rows)`` for the instance file at ``path``: ``rows`` is a
    _Rows that gives each row of its lists once, in order, with what its
    check returned, ``(row, cells)``.  The rows ``use`` leaves when it
    raises OSError or ValueError are read before that is raised again,
    so that the instance's faults come first.

    Text laid out as ``gen`` writes it is decoded a row at a time, each
    row checked by ``check`` (_check_row's signature), and its warnings,
    ``rows.warn``'s too, are held until ``use`` returns or raises.  On a
    fault in the text or its rows, for any other text, and when ``use``
    raises after a ``check`` other than _check_row, the whole document is
    read, checked by _check_row, whose cells are sets of labels, and
    ``use`` is called again: that read prints each warning as it goes and
    raises the first fault's error.  When ``use`` raises after rows that
    _check_row passed, and the text after them reads cleanly, that read
    would end the same way, so the held warnings are printed and the
    error raised without it.  The file is read once, so it may be a pipe.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()

    def use_checked(n: int, source, warn, check):
        """(what ``use`` returned, None), or (None, the OSError or
        ValueError ``use`` raised) once every row it left has been read
        from ``source`` and has passed ``check``; a fault in the rows is
        raised."""
        clean = []  # one entry once the last row has passed its check

        def checked():
            for i, row in enumerate(source):
                yield row, check(path, n, i, row, warn)
            clean.append(True)

        rows = _Rows(n, checked(), warn)
        try:
            return use(rows), None
        except (OSError, ValueError) as exc:
            for _ in rows:  # the instance's faults come first
                pass
            if not clean:  # the rows raised it, through use
                raise
            return None, exc

    warnings: list[str] = []
    try:
        layout = _gen_layout(text)
        result, error = use_checked(next(layout), layout, warnings.append, check)
        for _ in layout:  # the text after the last row
            pass
        if error is not None and check is not _check_row:
            raise error  # rows _check_row never saw: the whole read decides
    except (OSError, ValueError, RecursionError):
        n, lists = _read_instance(path, text)
        result, error = use_checked(n, lists, lambda message: _warn(args, message), _check_row)
    else:
        for message in warnings:
            _warn(args, message)
    if error is not None:
        raise error
    return result


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
    for flag, value in (("--n", n), ("--list-size", list_size),
                        ("--universe-size", universe_size)):
        if value < 0:
            return _error(f"{flag} must be non-negative")
    labels_held = n * n * list_size + universe_size
    if labels_held > MAX_GEN_LABELS:
        return _error(
            f"n = {n} with lists of {list_size} from {universe_size} labels needs "
            f"{labels_held} labels in memory, above the limit of {MAX_GEN_LABELS}"
        )
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
    import random

    universe = range(universe_size)
    rng = random.Random(args.seed)
    meta = {"seed": args.seed, "universe_size": universe_size, "list_size": list_size}
    # The text of json.dumps({"n": n, "lists": rows, "meta": meta}, indent=2),
    # a row at a time.  Labels c<k> need no escaping, and no cell is empty.
    _write_stdout(f'{{\n  "n": {n},\n  "lists": [')
    for i in range(n):
        cells = ('",\n        "c'.join(map(str, rng.sample(universe, list_size)))
                 for _ in range(n))
        row = '"\n      ],\n      [\n        "c'.join(cells)
        _write_stdout(("," if i else "") + f'\n    [\n      [\n        "c{row}"\n      ]\n    ]')
    meta_text = json.dumps(meta, indent=2).replace("\n", "\n  ")
    _write_stdout(("\n  ]" if n else "]") + f',\n  "meta": {meta_text}\n}}\n')
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
    # Each file is read once, so that either may be a pipe; the solution's
    # errors are reported after the instance's.
    try:
        solution = _load_solution(args.solution)
    except (OSError, ValueError) as exc:
        solution = exc

    def verdict(rows: _Rows) -> LatinReport:
        grid = _check_grid(args.solution, solution, len(rows))
        # Each cell cut down to the solution's color if it holds it, so
        # that verify_generalized_latin gives the verdict the whole lists
        # would.
        held = [[(c,) if c in cell else () for c, cell in zip(colors, cells)]
                for colors, (_, cells) in zip(grid, rows)]
        return verify_generalized_latin(SimpleNamespace(n=len(rows), lists=held), grid)

    try:
        report = _read_lists(args.instance, args, verdict, _check_row)
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
    edges = args.n * args.n * (args.n - 1)
    if edges > MAX_EDGES:  # parse_digraph would refuse the output
        return _error(f"n = {args.n} gives {edges} edges, above the limit of {MAX_EDGES}")
    _write_stdout(format_digraph(build_square_orientation(args.n)))
    return EXIT_OK


def cmd_propx(args: argparse.Namespace) -> int:
    from .kernel import has_property_x

    if args.max_vertices < 0:
        return _error("--max-vertices must be non-negative")
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
    from .kernel import find_kernel_bruteforce

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
    was_enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
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
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
