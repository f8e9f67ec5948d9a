"""
Command-line surface and the JSON wire formats.  Each subcommand validates
its input once, calls the library and writes the result, ``rim`` one
element at a time and ``cell`` a few hundred lines at a time.  The search bound is ``--max-n`` alone.

Formats (all coordinates and entries 1-based):
  permutation   [2, 1, 3]                       row-form
  composition   [2, 1]
  diagram       {"nodes": [[r, c], ...]}        row-major sorted
  k-path        {"paths": [[[r, c], ...], ...]}
  rim           {"composition": [...],
                 "rim": [{"row_form": [...], "reduced_word": [...],
                          "diagram": [[r, c], ...], "special": bool}, ...],
                 "cell_size": int}

Coordinates are JSON integers; floats, booleans and anything else are
refused.

Exit codes: 0 success, 1 verification mismatch or cross-check diff,
2 malformed input, search bound exceeded, or a verify rule with nothing to
check.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
from itertools import islice
from typing import Any, Sequence

from .compositions import Composition, check_composition
from .diagrams import Diagram, Node, is_admissible, subsequence_type
from .paths import KPath, order_kpath
from .permutations import reduced_word
from .rims import (
    DEFAULT_SEARCH_BOUND,
    RimResult,
    THEOREMS,
    _MARK,
    _cell,
    cell_size,
    check_search_bound,
    rim_closed_form,
    rim_search,
    verify_theorems,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def parse_composition(text: str) -> Composition:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse composition {text!r}; expected e.g. 2,1")
    return check_composition(parts)


# --- JSON codecs -----------------------------------------------------------


def _read_json(stdin, what: str) -> Any:
    """The JSON document on ``stdin``; anything undecodable is a ValueError."""
    try:
        return json.load(stdin)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {what} JSON: {exc}")
    except RecursionError:
        raise ValueError(f"malformed {what} JSON: nested too deeply to decode")


def diagram_to_json(diagram: Diagram) -> dict[str, Any]:
    return {"nodes": [[r, c] for r, c in diagram.nodes]}


def _nodes_from_json(items: Any, what: str) -> tuple[Node, ...]:
    """A JSON list of [r, c] integer pairs as nodes; anything else is refused."""
    if not isinstance(items, list):
        raise ValueError(f"{what} must be a list of [r, c] pairs, got {items!r}")
    nodes = []
    for item in items:
        if not (
            isinstance(item, list)
            and len(item) == 2
            and type(item[0]) is int
            and type(item[1]) is int
        ):
            raise ValueError(f"{what} must hold [r, c] integer pairs, got {item!r}")
        nodes.append((item[0], item[1]))
    return tuple(nodes)


def diagram_from_json(obj: Any) -> Diagram:
    if not isinstance(obj, dict) or "nodes" not in obj:
        raise ValueError('diagram JSON must be {"nodes": [[r, c], ...]}')
    return Diagram(_nodes_from_json(obj["nodes"], "diagram nodes"))


def kpath_to_json(kpath: KPath) -> dict[str, Any]:
    return {"paths": [[[r, c] for r, c in path] for path in kpath.paths]}


def kpath_from_json(obj: Any) -> KPath:
    """A hostless k-path: the wire format carries no host diagram."""
    if not isinstance(obj, dict) or "paths" not in obj:
        raise ValueError('k-path JSON must be {"paths": [[[r, c], ...], ...]}')
    if not isinstance(obj["paths"], list):
        raise ValueError(f"k-path paths must be a list of paths, got {obj['paths']!r}")
    return KPath(tuple(_nodes_from_json(path, "a k-path path") for path in obj["paths"]))


# --- writers ---------------------------------------------------------------


def render_diagram(diagram: Diagram, indent: str = "") -> str:
    # marks a blank grid node by node: testing each cell would keep a node set
    grid = [[" "] * diagram.column_count for _ in range(diagram.row_count)]
    for r, c in diagram.nodes:
        grid[r - 1][c - 1] = "×"
    return "\n".join((indent + " ".join(cells)).rstrip() for cells in grid)


def _render_word(word: Sequence[int]) -> str:
    return " ".join(str(k) for k in word) if word else "(identity)"


def _write_rim_json(result: RimResult, size: int, out) -> None:
    # the text json.dumps gives for the whole rim object, one element at a time
    out.write(f'{{"composition": {list(result.composition)}, "rim": [')
    separator = ""
    for y, d, special in zip(result.rim, result.diagrams, result.special):
        element = {
            "row_form": list(y),
            "reduced_word": list(reduced_word(y)),
            "diagram": [[r, c] for r, c in d.nodes],
            "special": special,
        }
        out.write(separator + json.dumps(element))
        separator = ", "
    out.write(f'], "cell_size": {size}}}\n')


def _write_rim_text(result: RimResult, size: int, out) -> None:
    out.write(
        f"composition: {','.join(map(str, result.composition))}\n"
        f"rim size: {result.rim_size}\ncell size: {size}\n"
    )
    for y, d, special in zip(result.rim, result.diagrams, result.special):
        out.write(
            f"y = {list(y)}\n  word: {_render_word(reduced_word(y))}\n"
            f"  special: {'yes' if special else 'no'}\n  diagram:\n"
            f"{render_diagram(d, indent='    ')}\n"
        )


# --- subcommands -----------------------------------------------------------


def _cmd_rim(args: argparse.Namespace, out, stdin) -> int:
    parts = parse_composition(args.composition)
    searched = closed = None
    if args.method in ("search", "cross-check"):
        searched = rim_search(parts, args.max_n)
    if args.method in ("closed", "cross-check"):
        closed = rim_closed_form(parts)
        if closed is None:
            raise ValueError(
                f"no closed form known for composition {parts}; use --method search"
            )
    if args.method == "cross-check" and searched != closed:
        print(
            f"cross-check mismatch for {parts}: "
            f"search {list(searched.rim)} vs closed {list(closed.rim)}",
            file=out,
        )
        return EXIT_MISMATCH

    result = searched if searched is not None else closed
    if args.count_only:
        print(result.rim_size, file=out)
    else:
        write = _write_rim_json if args.format == "json" else _write_rim_text
        write(result, cell_size(parts), out)
    return EXIT_OK


def _cmd_cell(args: argparse.Namespace, out, stdin) -> int:
    parts = parse_composition(args.composition)
    if args.count_only:
        # the count walks nothing, so _cell's check of the bound is made here
        check_search_bound(sum(parts), args.max_n)
        print(cell_size(parts), file=out)
        return EXIT_OK
    # each text holds the values and the word of e of its line, spelled as
    # json.dumps spells lists of ints; the lines are framed, and w_J's word
    # put in place of the mark, a chunk of texts at a time
    word_sep = ", " if args.format == "json" else " "
    head, texts = _cell(parts, args.max_n, str, ", ", word_sep)
    if args.format == "json":
        start, between, end = '{"row_form": [', f'], "reduced_word": [{head}', "]}\n"
    else:
        start, between, end = "[", f"]  word: {head or '(identity)'}", "\n"
    joint = end + start
    while chunk := list(islice(texts, 256)):
        out.write(start + joint.join(chunk).replace(_MARK, between) + end)
    return EXIT_OK


def _cmd_order_path(args: argparse.Namespace, out, stdin) -> int:
    kpath = kpath_from_json(_read_json(stdin, "k-path"))
    ordered = order_kpath(kpath, parts=args.parts)
    print(json.dumps(kpath_to_json(ordered)), file=out)
    return EXIT_OK


def _cmd_admissible(args: argparse.Namespace, out, stdin) -> int:
    diagram = diagram_from_json(_read_json(stdin, "diagram"))
    # both read the type the diagram computes once
    admissible = is_admissible(diagram)
    seq_type = subsequence_type(diagram)
    if args.format == "json":
        print(
            json.dumps(
                {"admissible": admissible, "subsequence_type": list(seq_type)}
            ),
            file=out,
        )
    else:
        print(f"admissible: {'yes' if admissible else 'no'}", file=out)
        print("subsequence type: " + ",".join(map(str, seq_type)), file=out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out, stdin) -> int:
    theorems = THEOREMS if args.theorem == "all" else (args.theorem,)
    # every rule runs before anything is printed, so a rule with nothing to
    # check fails the command with stdout still empty
    reports = verify_theorems(theorems, args.max_n, bound=args.max_n)
    for report in reports:
        theorem = report.theorem
        for check in report.checks:
            status = "PASS" if check.ok else f"FAIL ({check.detail})"
            parts = ",".join(map(str, check.composition))
            print(f"{theorem} {parts}: {status}", file=out)
        summary = "PASS" if report.passed else "FAIL"
        print(f"{theorem}: {len(report.checks)} compositions checked: {summary}", file=out)
    return EXIT_OK if all(report.passed for report in reports) else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klrim",
        description=(
            "Right Kazhdan-Lusztig cells of symmetric groups attached to "
            "compositions: rims, reduced forms, diagrams and ordered k-paths."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--composition", required=True, help="comma-separated parts, e.g. 2,1"
        )
        p.add_argument(
            "--format", choices=("json", "text"), default="text", help="output format"
        )
        p.add_argument(
            "--max-n",
            type=int,
            default=None,
            dest="max_n",
            help=f"search bound override (default {DEFAULT_SEARCH_BOUND})",
        )
        p.add_argument(
            "--count-only", action="store_true", help="print only the element count"
        )

    p_rim = sub.add_parser("rim", help="compute the rim of a cell")
    add_common(p_rim)
    p_rim.add_argument(
        "--method",
        choices=("closed", "search", "cross-check"),
        default="search",
        help="engine: closed form, search, or both with a diff",
    )
    p_rim.set_defaults(run=_cmd_rim)

    p_cell = sub.add_parser("cell", help="stream all cell elements with reduced words")
    add_common(p_cell)
    p_cell.set_defaults(run=_cmd_cell)

    p_order = sub.add_parser(
        "order-path", help="read k-path JSON on stdin, write an equivalent ordered one"
    )
    p_order.add_argument(
        "--parts",
        type=int,
        default=None,
        help="force exactly this many constituent paths",
    )
    p_order.set_defaults(run=_cmd_order_path)

    p_adm = sub.add_parser(
        "admissible", help="read diagram JSON on stdin, report admissibility and type"
    )
    p_adm.add_argument("--format", choices=("json", "text"), default="text")
    p_adm.set_defaults(run=_cmd_admissible)

    p_verify = sub.add_parser(
        "verify", help="diff the closed-form rules against the search engine"
    )
    p_verify.add_argument("theorem", choices=THEOREMS + ("all",))
    p_verify.add_argument("--max-n", type=int, default=6, dest="max_n")
    p_verify.set_defaults(run=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None, stdin=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    source = stdin if stdin is not None else sys.stdin
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, out, source)
    except ValueError as exc:  # SearchBoundExceeded included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    # a reader that stops early, as `klrim cell ... | head -1` does, closes
    # the pipe: the default SIGPIPE action ends the process quietly, where
    # Python's own would raise BrokenPipeError and exit 1, "mismatch"
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
