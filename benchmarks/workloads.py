"""
The four workloads: seeded inputs, the timed call into klrim, and the
independent check of each output.

Every workload is a closed loop with one client: ``run`` issues one item
and returns only when the program has answered.  ``build`` makes the inputs
from the seed and is part of the measured set-up; ``check`` never calls
klrim, it recomputes what it needs in ``oracles``.

Inputs are stratified so that a pass does nearly the same work under every
seed: cost follows the cell size f^{lambda'}, which depends only on the
multiset of parts, so the seed picks the arrangement inside fixed strata.
"""
from __future__ import annotations

import io
import json
import random
import re
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import oracles


@dataclass(frozen=True)
class Item:
    key: str
    payload: Any
    n: int
    cell_size: int | None = None


@dataclass
class Outcome:
    ok: bool
    detail: str
    rim_size: int | None
    bytes_out: int
    work: int  # cell elements, or diagram / k-path nodes on calculus


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., list[Item]]
    run: Callable[[Item], Any]
    check: Callable[[Item, Any], Outcome]
    via_main: bool  # outputs go through cli.main and count as cli bytes


def _klrim(layer: str):
    """The current klrim module; looked up per call since set-up re-imports it."""
    return sys.modules[f"klrim.{layer}"]


def compositions_of(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, from the subsets of the n-1 cut points."""
    result = []
    for size in range(n):
        for cuts in combinations(range(1, n), size):
            bounds = (0,) + cuts + (n,)
            result.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return sorted(result)


def _text(parts) -> str:
    return ",".join(map(str, parts))


def _run_main(item: Item) -> tuple[int, str]:
    sink = io.StringIO()
    code = _klrim("cli").main(item.payload, stdout=sink)
    return code, sink.getvalue()


def _failed(detail: str, text: str = "", rim_size: int | None = None) -> Outcome:
    return Outcome(False, detail, rim_size, len(text.encode()), 0)


# --- cell_search -------------------------------------------------------------


def build_cell_search(seed: int, n: int = 12, band: tuple[int, int] = (1100, 2200)) -> list[Item]:
    """
    One composition of n with no closed form from every multiset of parts
    whose cell size lies in ``band``; the search work of the arrangements
    of one multiset agrees within a few percent.
    """
    rng = random.Random(seed)
    closed_form = _klrim("rims").rim_closed_form
    strata: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for parts in compositions_of(n):
        key = tuple(sorted(parts, reverse=True))
        if band[0] <= oracles.cell_size(key) <= band[1] and closed_form(parts) is None:
            strata.setdefault(key, []).append(parts)
    items = []
    for key in sorted(strata):
        parts = rng.choice(strata[key])
        argv = ["cell", "--composition", _text(parts), "--format", "json", "--max-n", str(n)]
        items.append(Item(_text(parts), argv, n, oracles.cell_size(parts)))
    rng.shuffle(items)
    return items


def check_cell_search(item: Item, output: tuple[int, str]) -> Outcome:
    code, text = output
    if code != 0:
        return _failed(f"exit code {code}", text)
    lines = text.splitlines()
    if len(lines) != item.cell_size:
        return _failed(f"{len(lines)} elements, hook-length formula gives {item.cell_size}", text)
    rows = set()
    for line in lines:
        element = json.loads(line)
        row, word = tuple(element["row_form"]), element["reduced_word"]
        if oracles.evaluate_word(item.n, word) != row:
            return _failed(f"word {word} does not evaluate to {list(row)}", text)
        if len(word) != oracles.inversions(row):
            return _failed(f"word {word} is not reduced for {list(row)}", text)
        rows.add(row)
    if len(rows) != len(lines):
        return _failed("repeated cell elements", text)
    parts = tuple(int(p) for p in item.key.split(","))
    rim_size = oracles.rim_size_of_cell(parts, rows)
    return Outcome(True, "ok", rim_size, len(text.encode()), len(lines))


# --- verify_sweep ------------------------------------------------------------

RULES = ("T2.16a", "T3.5a", "T3.7a", "T3.15a", "C3.16a", "P3.2a")


def build_verify_sweep(seed: int, max_n: int = 8) -> list[Item]:
    """``verify all`` is deterministic: the seed changes nothing."""
    return [Item(f"verify all --max-n {max_n}", ["verify", "all", "--max-n", str(max_n)], max_n)]


def check_verify_sweep(item: Item, output: tuple[int, str]) -> Outcome:
    code, text = output
    if code != 0:
        return _failed(f"exit code {code}", text)
    if "FAIL" in text:
        return _failed("a FAIL line was printed", text)
    work = 0
    for rule in RULES:
        summary = re.findall(rf"^{re.escape(rule)}: (\d+) compositions checked: PASS$", text, re.M)
        checked = re.findall(rf"^{re.escape(rule)} ([\d,]+): PASS$", text, re.M)
        if len(summary) != 1 or int(summary[0]) == 0:
            return _failed(f"{rule}: no PASS summary with a nonzero count", text)
        if int(summary[0]) != len(checked):
            return _failed(f"{rule}: summary says {summary[0]}, {len(checked)} lines", text)
        for parts_text in checked:
            parts = tuple(int(p) for p in parts_text.split(","))
            work += oracles.cell_size(parts)
            if rule == "P3.2a":  # also searches the composition with a part 1 appended
                work += oracles.cell_size(parts + (1,))
    return Outcome(True, "ok", None, len(text.encode()), work)


# --- closed_json -------------------------------------------------------------

ANCHOR = (7, 6, 5)  # 466,752 elements: the memory-heavy item


def build_closed_json(
    seed: int, n: int = 13, min_cell: int = 6000, min_cell_single: int = 15000, anchor=ANCHOR
) -> list[Item]:
    """
    The anchor, plus one order of every pair {c, reverse of c} of
    closed-family compositions of n with cell size >= ``min_cell`` whose rim
    has several elements, or with cell size >= ``min_cell_single``.  The
    seed picks the order.  Both orders have the same cell size and rim
    size, so every seed enumerates the same number of standard fillings.
    """
    rng = random.Random(seed)
    closed_form = _klrim("rims").rim_closed_form
    chosen = [anchor] if anchor else []
    for parts in compositions_of(n):
        size = oracles.cell_size(parts)
        if parts >= parts[::-1] or size < min_cell:
            continue
        result = closed_form(parts)
        if result is None or closed_form(parts[::-1]) is None:
            continue
        if result.rim_size > 1 or size >= min_cell_single:
            chosen.append(parts if rng.random() < 0.5 else parts[::-1])
    items = []
    for parts in chosen:
        argv = ["rim", "--method", "closed", "--format", "json",
                "--composition", _text(parts), "--max-n", str(sum(parts))]
        items.append(Item(_text(parts), argv, sum(parts), oracles.cell_size(parts)))
    rng.shuffle(items)
    return items


def column_reading(nodes) -> tuple[int, ...]:
    """Number the nodes 1..n down the columns, then read them row by row."""
    label = {node: i for i, node in enumerate(sorted(nodes, key=lambda rc: (rc[1], rc[0])), 1)}
    return tuple(label[node] for node in sorted(nodes))


def check_closed_json(item: Item, output: tuple[int, str]) -> Outcome:
    code, text = output
    if code != 0:
        return _failed(f"exit code {code}", text)
    result = json.loads(text)
    parts = [int(p) for p in item.key.split(",")]
    rim = result["rim"]
    if result["composition"] != parts:
        return _failed(f"composition {result['composition']} echoed for {parts}", text)
    if result["cell_size"] != item.cell_size:
        return _failed(f"cell_size {result['cell_size']}, hook-length formula gives {item.cell_size}", text, len(rim))
    if not rim:
        return _failed("empty rim", text)
    for entry in rim:
        row, word = tuple(entry["row_form"]), entry["reduced_word"]
        nodes = [tuple(node) for node in entry["diagram"]]
        if oracles.evaluate_word(item.n, word) != row or len(word) != oracles.inversions(row):
            return _failed(f"word {word} is not a reduced word for {list(row)}", text, len(rim))
        if column_reading(nodes) != row:
            return _failed(f"diagram {nodes} does not read as {list(row)}", text, len(rim))
        rows = [sum(1 for r, _ in nodes if r == i) for i in range(1, len(parts) + 1)]
        if rows != parts or not isinstance(entry["special"], bool):
            return _failed(f"diagram {nodes} has rows {rows}, expected {parts}", text, len(rim))
    return Outcome(True, "ok", len(rim), len(text.encode()), item.cell_size)


# --- calculus ----------------------------------------------------------------


def _compress(nodes) -> list[list[int]]:
    """Renumber occupied rows and columns consecutively from 1."""
    rows = {r: i for i, r in enumerate(sorted({r for r, _ in nodes}), 1)}
    cols = {c: i for i, c in enumerate(sorted({c for _, c in nodes}), 1)}
    return sorted([rows[r], cols[c]] for r, c in nodes)


def _random_cells(rng: random.Random, size: int) -> list[tuple[int, int]]:
    rows = rng.randint(max(2, size // 10), max(3, size // 3))
    cols = max(2, -(-size * rng.randint(13, 25) // (10 * rows)))
    grid = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    return rng.sample(grid, size)


def random_diagram(rng: random.Random, size: int) -> dict:
    return {"nodes": _compress(_random_cells(rng, size))}


def random_kpath(rng: random.Random, size: int) -> dict:
    """Sweep random cells row-major, extending a compatible path or opening one."""
    paths: list[list[tuple[int, int]]] = []
    for node in sorted(_random_cells(rng, size)):
        options = [p for p in paths if p[-1][0] < node[0] and p[-1][1] <= node[1]]
        if options and rng.random() < 0.7:
            rng.choice(options).append(node)
        else:
            paths.append([node])
    rng.shuffle(paths)
    return {"paths": [[list(node) for node in p] for p in paths]}


def build_calculus(seed: int, count: int = 60, smallest: int = 30, largest: int = 150) -> list[Item]:
    """``count`` diagrams and ``count`` k-paths with node counts spread evenly over the range."""
    rng = random.Random(seed)
    items = []
    for i in range(count):
        size = smallest + round(i * (largest - smallest) / max(1, count - 1))
        items.append(Item(f"diagram#{i}", random_diagram(rng, size), size))
        items.append(Item(f"kpath#{i}", random_kpath(rng, size), size))
    rng.shuffle(items)
    return items


def run_calculus(item: Item):
    cli = _klrim("cli")
    if "nodes" in item.payload:
        diagrams = _klrim("diagrams")
        diagram = cli.diagram_from_json(item.payload)
        return (
            diagrams.is_admissible(diagram),
            diagrams.subsequence_type(diagram),
            diagrams.is_special(diagram),
        )
    kpath = cli.kpath_from_json(item.payload)
    return cli.kpath_to_json(_klrim("paths").order_kpath(kpath))


def _check_diagram(item: Item, output) -> Outcome:
    admissible, seq_type, special = output
    nodes = [tuple(node) for node in item.payload["nodes"]]
    size = json.dumps([admissible, list(seq_type), special]).encode()
    row_counts = [sum(1 for r, _ in nodes if r == i) for i in range(1, nodes[-1][0] + 1)]
    if sum(seq_type) != len(nodes) or list(seq_type) != sorted(seq_type, reverse=True):
        return _failed(f"subsequence type {seq_type} is no partition of {len(nodes)}")
    if seq_type[0] != oracles.longest_path(nodes):
        return _failed(f"subsequence type {seq_type} disagrees with the longest path")
    if admissible != (tuple(seq_type) == oracles.conjugate(row_counts)):
        return _failed(f"admissible={admissible} disagrees with type {seq_type}")
    # special <=> the column sets of the rows form a chain under inclusion
    column_sets = sorted(
        ({c for r, c in nodes if r == i} for i in range(1, len(row_counts) + 1)), key=len
    )
    if special != all(a <= b for a, b in zip(column_sets, column_sets[1:])):
        return _failed(f"special={special} disagrees with the row column sets")
    return Outcome(True, "ok", None, len(size), len(nodes))


def _check_kpath(item: Item, output: dict) -> Outcome:
    given = [[tuple(node) for node in p] for p in item.payload["paths"]]
    paths = [[tuple(node) for node in p] for p in output["paths"]]
    size = len(json.dumps(output).encode())
    nodes = [node for p in paths for node in p]
    if sorted(nodes) != sorted(node for p in given for node in p):
        return _failed("order_kpath changed the support")
    if not all(p and oracles.is_path(p) for p in paths):
        return _failed("a constituent is not a path")
    if len(paths) > len(given):
        return _failed(f"{len(paths)} ordered paths from a {len(given)}-path")
    if not oracles.is_ordered(paths):
        return _failed("the result is not ordered")
    return Outcome(True, "ok", None, size, len(nodes))


def check_calculus(item: Item, output) -> Outcome:
    if "nodes" in item.payload:
        return _check_diagram(item, output)
    return _check_kpath(item, output)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cell_search", build_cell_search, _run_main, check_cell_search, True),
        Workload("verify_sweep", build_verify_sweep, _run_main, check_verify_sweep, True),
        Workload("closed_json", build_closed_json, _run_main, check_closed_json, True),
        Workload("calculus", build_calculus, run_calculus, check_calculus, False),
    )
}
