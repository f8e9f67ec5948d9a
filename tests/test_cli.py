import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import klrim.cli as cli
import klrim.diagrams as diagrams
import klrim.rims as rims
from klrim.cli import (
    diagram_from_json,
    diagram_to_json,
    kpath_from_json,
    kpath_to_json,
    main,
    parse_composition,
    render_diagram,
)
from klrim.compositions import compositions_of
from klrim.diagrams import Diagram, young_diagram

from support import compress_nodes, count_walks, random_kpath

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the stdout of `klrim cell --format <format>`, concatenated over
# every composition of n = 1..8 in compositions_of order
CELL_DIGESTS = {
    "json": "38fedd6af3211666246511c92c69e3e9e3eeb9bf49ed000cbbc3775a65ad2e5b",
    "text": "8656851cf1e27a005e8d986105f367f3bc14b48453359244e110afbe608fbec6",
}

# sha256 of the stdout of `klrim cell --composition 1,3,2,1,3,2 --max-n 12
# --format <format>`: 2673 elements, a composition with no closed form
CELL_12_DIGESTS = {
    "json": "5e523df35f0e9a028737fde7e5848455095107d2466d50799e2fef4747085539",
    "text": "a85421b8c0ad92dc4aad26c133314d4c51a5e399f938b98f02abdde505705d4c",
}

# sha256 of the stdout of `klrim cell --composition 2,1,3,1,2,3,2 --max-n 14
# --format <format>`: 14014 elements, a composition with no closed form
CELL_14_DIGESTS = {
    "json": "22d178ae06291e1d9ec8b133be6baf220dde3f0df666cdd3c1c977414fc18fee",
    "text": "f3385ae9375fd8be3b5d62d6a5178b9c418a8cdfa7f8b75ed3eb0faea064eb56",
}

# sha256 of the stdout of `klrim cell --composition 1,120,1 --max-n 122
# --format json`: 7260 elements of n = 122, about 209 MB, each line a walk
# of 119 steps above the last three through a tall shape
CELL_122_DIGEST = "e5d5e9d710cdea8233c282d0b9b00221139dae4a53f6e5e67bb50f9d9a74b086"

# sha256 of the stdout of `klrim rim --method search --format json` past the
# default bound, on compositions with no closed form: rims of 21 and 107
SEARCH_DIGESTS = {
    ("2,1,3,1,2,3,2", "14"): "fa2aad597e6387c5b028fc6b4a5de80cdefe87dc552e6f78fd6fae796b1127a5",
    ("3,1,2,4,1,3,2", "16"): "2cd6ce1d5b4b6505bfba3d1707b9cc4a183cedc7f8886238ea5c869f09a060c4",
}

# sha256 of the stdout of `klrim rim --method <method> --format <format>`,
# concatenated over every composition of n = 1..7 in compositions_of order,
# then search and, where a closed form exists, closed, then json and text
RIM_DIGEST = "5894e7cf18c4e45a812db9376fd96c6c5618b8c653c2a9e5ffba38bfa57cddc0"

# sha256 of exit code and stdout over calculus_inputs(): `order-path`, then
# `order-path --parts k` for the input's k, on each k-path; `admissible
# --format json` on each diagram
CALCULUS_DIGESTS = {
    "order-path": "bfd5aa3f05b004f325a695e2e5ab6b5ecb0cf9579e3ea4b0330b5c0f1b617837",
    "admissible": "045dba52425881a136a24bbc6e198ee3fd888fee923a8a547e3f48065140d8e9",
}


def run(argv, stdin_text=None):
    out = io.StringIO()
    stdin = io.StringIO(stdin_text) if stdin_text is not None else None
    code = main(argv, stdin=stdin, stdout=out)
    return code, out.getvalue()


def test_parse_composition():
    assert parse_composition("2,1") == (2, 1)
    with pytest.raises(ValueError):
        parse_composition("2,x")
    with pytest.raises(ValueError):
        parse_composition("2,0")


def test_codecs_round_trip():
    d = young_diagram((3, 1))
    assert diagram_from_json(diagram_to_json(d)) == d
    kp = kpath_from_json({"paths": [[[1, 1], [2, 1]], [[1, 2]]]})
    assert kpath_to_json(kp) == {"paths": [[[1, 1], [2, 1]], [[1, 2]]]}
    with pytest.raises(ValueError):
        diagram_from_json({"rows": []})


@pytest.mark.parametrize(
    "command, payload",
    [
        ("admissible", {"nodes": 5}),
        ("admissible", {"nodes": [7]}),
        ("admissible", {"nodes": [[1.7, 1]]}),
        ("admissible", {"nodes": [[True, 1]]}),
        ("admissible", {"nodes": [["1", 1]]}),
        ("admissible", {"nodes": [[1, 1, 1]]}),
        ("order-path", {"paths": 3}),
        ("order-path", {"paths": [3]}),
        ("order-path", {"paths": [[[1, 1.5]]]}),
        ("order-path", {"paths": [[[1, False]]]}),
        ("admissible", {"nodes": [[1, 10**12]]}),
        ("admissible", {"nodes": [[10**12, 1]]}),
        # [[1, -1]], which once hung, runs in a child process below
        ("order-path", {"paths": [[[0, 1]]]}),
        ("order-path", {"paths": [[[1, 0]]]}),
    ],
)
def test_malformed_coordinates_exit_2(command, payload, capsys):
    assert run([command], stdin_text=json.dumps(payload)) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_order_path_on_a_nonpositive_column_exits_instead_of_hanging():
    # run in a child process, so that a hang fails the test instead of
    # stalling the suite
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, "-c", "from klrim.cli import entry_point; entry_point()", "order-path"],
        input=b'{"paths": [[[1, -1]]]}',
        capture_output=True,
        env=env,
        timeout=10,
    )
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr == b"error: k-path coordinates are 1-based positive: (1, -1)\n"


def test_python_m_klrim_runs_the_command_line():
    # the child process exits through entry_point's sys.exit, which the
    # in-process tests never reach
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def klrim(*argv):
        return subprocess.run(
            [sys.executable, "-m", "klrim", *argv], capture_output=True, env=env, timeout=30
        )

    cell = klrim("cell", "--composition", "2,1", "--format", "json")
    assert (cell.returncode, cell.stderr) == (0, b"")
    assert len(cell.stdout.splitlines()) == 2
    bad = klrim("rim", "--composition", "0")
    assert (bad.returncode, bad.stdout) == (2, b"")
    lines = bad.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["cell", "--composition", "2,1,3,1,2,3,2", "--max-n", "14", "--format", "json"],
        ["verify", "all", "--max-n", "8"],
    ],
    ids=["cell", "verify"],
)
def test_a_reader_that_closes_the_pipe_early_ends_klrim_quietly(argv):
    # as `klrim ... | head -1` does: no traceback, and no exit 1, "mismatch"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    child = subprocess.Popen(
        [sys.executable, "-m", "klrim", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert child.stdout.readline()
        child.stdout.close()
        assert child.wait(timeout=60) in (0, -getattr(signal, "SIGPIPE", 0))
    finally:
        child.kill()
        child.wait()
    assert child.stderr.read() == b""
    child.stderr.close()


def calculus_inputs():
    """
    40 seeded diagrams of 30, 33, ..., 147 nodes, each with a random k-path
    covering it.  Every fourth diagram is the Young diagram of a random
    partition, hence admissible; the others are random cells of a grid.
    Every other k-path has its rows spread 10**10 apart, so its support is
    no diagram and it travels without a host.
    """
    rng = random.Random(2019)
    for i in range(40):
        size = 30 + 3 * i
        rows = rng.randint(size // 10, size // 3)
        if i % 4 == 0:
            cuts = sorted(rng.sample(range(1, size), rows - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [size])]
            diagram = young_diagram(sorted(parts, reverse=True))
        else:
            cols = -(-2 * size // rows)
            grid = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
            diagram = Diagram(compress_nodes(rng.sample(grid, size)))
        paths = [[list(node) for node in p] for p in random_kpath(rng, diagram, cover=True).paths]
        if i % 2:
            paths = [[[r * 10**10, c] for r, c in p] for p in paths]
        yield diagram, {"paths": paths}


def test_calculus_output_is_pinned_byte_for_byte():
    digests = {command: hashlib.sha256() for command in CALCULUS_DIGESTS}
    for diagram, kpath in calculus_inputs():
        stdin = json.dumps(kpath)
        for argv in (["order-path"], ["order-path", "--parts", str(len(kpath["paths"]))]):
            code, out = run(argv, stdin_text=stdin)
            digests["order-path"].update(f"{code}\n{out}".encode())
        code, out = run(["admissible", "--format", "json"], stdin_text=json.dumps(diagram_to_json(diagram)))
        digests["admissible"].update(f"{code}\n{out}".encode())
    assert {command: d.hexdigest() for command, d in digests.items()} == CALCULUS_DIGESTS


def test_kpath_from_json_builds_no_host(monkeypatch):
    built = []

    def counting_diagram(*args, **kwargs):
        built.append(args)
        return Diagram(*args, **kwargs)

    monkeypatch.setattr(cli, "Diagram", counting_diagram)
    for _, payload in calculus_inputs():
        assert kpath_from_json(payload).host is None
    assert built == []


@pytest.mark.parametrize("command", ["admissible", "order-path"])
def test_deeply_nested_stdin_exits_2(command, capsys):
    assert run([command], stdin_text="[" * 100_000 + "]" * 100_000) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: malformed ") and err.count("\n") == 1


def test_render_diagram():
    assert render_diagram(young_diagram((2, 1))) == "× ×\n×"
    assert render_diagram(Diagram(((1, 2), (2, 1))), indent="  ") == "    ×\n  ×"


def test_rim_json_output():
    code, out = run(["rim", "--composition", "2,1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["composition"] == [2, 1]
    assert payload["cell_size"] == 2
    assert payload["rim"] == [
        {
            "row_form": [1, 3, 2],
            "reduced_word": [2],
            "diagram": [[1, 1], [1, 2], [2, 1]],
            "special": True,
        }
    ]


def test_rim_text_and_determinism():
    first = run(["rim", "--composition", "1,2,1"])
    second = run(["rim", "--composition", "1,2,1"])
    assert first == second
    assert first[0] == 0
    assert "rim size: 2" in first[1]
    assert "×" in first[1]


def test_rim_count_only_and_methods():
    assert run(["rim", "--composition", "1,2,1", "--count-only"]) == (0, "2\n")
    closed = run(["rim", "--composition", "1,2,1", "--method", "closed", "--format", "json"])
    searched = run(["rim", "--composition", "1,2,1", "--method", "search", "--format", "json"])
    assert closed == searched
    code, _ = run(["rim", "--composition", "1,2,2,1", "--method", "cross-check"])
    assert code == 0


def test_rim_output_is_pinned_byte_for_byte():
    digest = hashlib.sha256()
    for n in range(1, 8):
        for parts in compositions_of(n):
            text = ",".join(map(str, parts))
            methods = ["search"] + (["closed"] if rims.rim_closed_form(parts) else [])
            for method in methods:
                for fmt in ("json", "text"):
                    argv = ["rim", "--composition", text, "--method", method, "--format", fmt]
                    code, out = run(argv)
                    assert code == 0
                    digest.update(out.encode())
    assert digest.hexdigest() == RIM_DIGEST


@pytest.mark.parametrize("composition, max_n", sorted(SEARCH_DIGESTS))
def test_searched_rims_past_the_default_bound_are_pinned(composition, max_n):
    argv = ["rim", "--composition", composition, "--method", "search", "--max-n", max_n]
    code, out = run(argv + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_DIGESTS[composition, max_n]


def test_rim_json_is_the_json_dumps_text():
    for n in range(1, 9):
        for parts in compositions_of(n):
            text = ",".join(map(str, parts))
            for method in ("search", "closed"):
                argv = ["rim", "--composition", text, "--method", method, "--format", "json"]
                code, out = run(argv)
                if code == 0:
                    assert json.dumps(json.loads(out)) + "\n" == out, (parts, method)


class _Discard:
    def write(self, text):
        pass


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rim_json_is_written_without_a_second_copy_of_the_rim():
    # the rim result itself is the peak: writing it holds one element of
    # the output at a time, never a second copy of the whole rim
    argv = ["rim", "--method", "closed", "--composition", "1,300,1", "--format", "json"]
    alone = _peak_bytes(lambda: rims.rim_closed_form((1, 300, 1)))
    assert _peak_bytes(lambda: main(argv, stdout=_Discard())) < 1.5 * alone


def test_the_text_writer_builds_no_node_set():
    # render_diagram marks a grid from the nodes; a membership test per cell
    # would build a node set on every rim diagram, which the result keeps
    result = rims.rim_closed_form((1, 300, 1))
    assert result.rim_size == 300
    cli._write_rim_text(result, 0, _Discard())
    assert not any("node_set" in d.__dict__ for d in result.diagrams)


def test_rim_closed_method_unrecognized_composition():
    code, _ = run(["rim", "--composition", "1,3,1,2", "--method", "closed"])
    assert code == 2


def test_cell_stream_and_count():
    code, out = run(["cell", "--composition", "2,1", "--format", "json"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [
        {"row_form": [2, 1, 3], "reduced_word": [1]},
        {"row_form": [3, 1, 2], "reduced_word": [1, 2]},
    ]
    assert run(["cell", "--composition", "2,1", "--count-only"]) == (0, "2\n")


@pytest.mark.parametrize("fmt", sorted(CELL_DIGESTS))
def test_cell_output_is_pinned_byte_for_byte(fmt):
    digest = hashlib.sha256()
    for n in range(1, 9):
        for parts in compositions_of(n):
            text = ",".join(map(str, parts))
            code, out = run(["cell", "--composition", text, "--format", fmt])
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == CELL_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", sorted(CELL_12_DIGESTS))
def test_an_n12_cell_is_pinned_byte_for_byte(fmt):
    code, out = run(["cell", "--composition", "1,3,2,1,3,2", "--max-n", "12", "--format", fmt])
    assert code == 0 and out.count("\n") == 2673
    assert hashlib.sha256(out.encode()).hexdigest() == CELL_12_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", sorted(CELL_14_DIGESTS))
def test_an_n14_cell_is_pinned_byte_for_byte(fmt):
    code, out = run(["cell", "--composition", "2,1,3,1,2,3,2", "--max-n", "14", "--format", fmt])
    assert code == 0 and out.count("\n") == 14014
    assert hashlib.sha256(out.encode()).hexdigest() == CELL_14_DIGESTS[fmt]


class Digest:
    """A stdout that keeps only the sha256 of what is written and its line count."""

    def __init__(self):
        self.sha, self.lines = hashlib.sha256(), 0

    def write(self, text):
        self.sha.update(text.encode())
        self.lines += text.count("\n")


def test_a_tall_n122_cell_is_pinned_byte_for_byte():
    out = Digest()
    argv = ["cell", "--composition", "1,120,1", "--max-n", "122", "--format", "json"]
    assert main(argv, stdout=out) == 0
    assert out.lines == 7260
    assert out.sha.hexdigest() == CELL_122_DIGEST


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "composition, size, digests",
    [("1,3,2,1,3,2", 2673, CELL_12_DIGESTS), ("2,1,3,1,2,3,2", 14014, CELL_14_DIGESTS)],
    ids=["n12", "n14"],
)
def test_the_n12_and_n14_cells_are_pinned_when_written_in_bands(
    composition, size, digests, fmt, monkeypatch
):
    # a budget of a quarter of the cell: at least four bands, a walk each
    monkeypatch.setattr(rims, "_RECORD_BUDGET", size // 4)
    walks = count_walks(monkeypatch)
    argv = ["cell", "--composition", composition, "--max-n", "14", "--format", fmt]
    code, out = run(argv)
    assert code == 0 and out.count("\n") == size and len(walks) >= 4 and sum(walks) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]


def test_cell_json_lines_are_the_json_dumps_text():
    cases = [(parts, None) for n in range(1, 9) for parts in compositions_of(n)]
    for parts, bound in cases + [((1, 3, 2, 1, 3, 2), 12)]:
        argv = ["cell", "--composition", ",".join(map(str, parts)), "--format", "json"]
        code, out = run(argv + (["--max-n", str(bound)] if bound else []))
        expected = [
            json.dumps({"row_form": list(w), "reduced_word": list(word)})
            for w, word in rims.cell_elements(parts, bound)
        ]
        assert code == 0 and out.splitlines() == expected, parts


def test_cell_text_lines_are_the_rendered_elements():
    cases = [(parts, None) for n in range(1, 9) for parts in compositions_of(n)]
    for parts, bound in cases + [((1, 3, 2, 1, 3, 2), 12)]:
        argv = ["cell", "--composition", ",".join(map(str, parts)), "--format", "text"]
        code, out = run(argv + (["--max-n", str(bound)] if bound else []))
        expected = [
            f"{list(w)}  word: {cli._render_word(word)}"
            for w, word in rims.cell_elements(parts, bound)
        ]
        assert code == 0 and out.splitlines() == expected, parts
    assert run(["cell", "--composition", "1", "--format", "text"]) == (0, "[1]  word: (identity)\n")
    assert run(["cell", "--composition", "1,1,1", "--format", "text"]) == (
        0,
        "[1, 2, 3]  word: (identity)\n",
    )


def test_cell_count_only_counts_the_streamed_elements(capsys):
    for n in range(1, 9):
        for parts in compositions_of(n):
            text = ",".join(map(str, parts))
            lines = run(["cell", "--composition", text, "--format", "json"])[1].count("\n")
            assert run(["cell", "--composition", text, "--count-only"]) == (0, f"{lines}\n")
    capsys.readouterr()
    assert run(["cell", "--composition", "2,2,2", "--count-only", "--max-n", "5"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: n=6 exceeds the search bound 5; raise the bound explicitly\n"
    )


@pytest.mark.parametrize("output", [["--format", "json"], ["--format", "text"], ["--count-only"]])
def test_cell_refuses_a_huge_composition_before_any_work(output, capsys):
    argv = ["cell", "--composition", "1000000000", "--max-n", "8"] + output
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == (
        "error: n=1000000000 exceeds the search bound 8; raise the bound explicitly\n"
    )


def test_rim_refuses_a_huge_composition_before_any_work(capsys):
    assert run(["rim", "--composition", "1000000000000", "--max-n", "8"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: n=1000000000000 exceeds the search bound 8; raise the bound explicitly\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["rim", "--composition", "1100", "--max-n", "2000", "--count-only"],
        ["cell", "--composition", "1100", "--max-n", "2000", "--format", "json"],
    ],
)
def test_a_walk_past_the_recursion_limit_is_refused(argv, capsys):
    # the fiber walk recurses once per step; past the limit it would end
    # in a RecursionError traceback
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default, whatever ran before
    try:
        assert run(argv) == (2, "")
    finally:
        sys.setrecursionlimit(limit)
    err = capsys.readouterr().err
    assert err.startswith("error: n=1100 exceeds the depth ")
    assert err.count("\n") == 1


def test_a_banded_cell_past_the_recursion_limit_is_refused_before_any_band(monkeypatch, capsys):
    # 605,550 elements past a budget of 1,000: the listing walk of every band
    # recurses once per step, so the cell is refused before any is walked
    monkeypatch.setattr(rims, "_RECORD_BUDGET", 1000)
    walks = count_walks(monkeypatch)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default, whatever ran before
    try:
        assert run(["cell", "--composition", "1,1100,1", "--max-n", "2000"]) == (2, "")
    finally:
        sys.setrecursionlimit(limit)
    assert walks == []
    err = capsys.readouterr().err
    assert err.startswith("error: n=1102 exceeds the depth ")
    assert err.count("\n") == 1


def test_a_cell_past_the_record_character_range_is_refused(capsys):
    # a cell record holds the code entry c_i as the character i(i+1)/2 + c_i,
    # which passes U+10FFFF from n = 1493 on, whatever the recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        assert run(["cell", "--composition", "1493", "--max-n", "2000"]) == (2, "")
    finally:
        sys.setrecursionlimit(limit)
    err = capsys.readouterr().err
    assert err.startswith("error: n=1493 exceeds 1492, ")
    assert err.count("\n") == 1


def test_the_count_of_a_cell_past_the_character_range_is_bounded_by_max_n_alone(capsys):
    # the 1492 limit is on listing elements; --count-only is the hook-length
    # count, which walks nothing
    argv = ["cell", "--composition", "1493", "--max-n", "2000"]
    assert run(argv + ["--count-only"]) == (0, "1\n")
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: n=1493 exceeds 1492, ")
    assert err.count("\n") == 1


def test_a_huge_cell_under_an_equally_huge_bound_is_refused_before_any_work(capsys):
    # the range is checked before w_J or Q(w_J) is built, so this returns at once
    argv = ["cell", "--composition", "1000000000", "--max-n", "1000000000"]
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: n=1000000000 exceeds 1492, ")
    assert err.count("\n") == 1


def test_order_path_round_trip():
    seven = {
        "paths": [
            [[1, 1], [4, 2], [6, 4]],
            [[1, 2], [3, 3], [4, 3], [6, 5]],
            [[1, 3], [3, 4], [4, 4]],
            [[3, 5], [4, 5]],
            [[1, 4], [2, 4], [5, 4], [6, 6]],
            [[1, 5], [3, 6], [4, 7]],
            [[2, 1], [5, 3]],
        ]
    }
    code, out = run(["order-path"], stdin_text=json.dumps(seven))
    assert code == 0
    assert json.loads(out) == {
        "paths": [
            [[1, 1], [2, 1], [4, 2]],
            [[1, 2], [3, 3], [4, 3], [5, 3], [6, 4]],
            [[1, 3], [3, 4], [4, 4], [5, 4], [6, 5]],
            [[1, 4], [2, 4], [3, 5], [4, 5], [6, 6]],
            [[1, 5], [3, 6], [4, 7]],
        ]
    }

    code, out = run(
        ["order-path", "--parts", "3"],
        stdin_text='{"paths": [[[1, 1], [2, 2], [3, 3]]]}',
    )
    assert code == 0
    assert json.loads(out) == {"paths": [[[3, 3]], [[2, 2]], [[1, 1]]]}


def test_order_path_malformed():
    assert run(["order-path"], stdin_text="{oops")[0] == 2
    assert run(["order-path"], stdin_text='{"paths": [[[1, 1], [1, 2]]]}')[0] == 2


def test_admissible_command():
    code, out = run(
        ["admissible", "--format", "json"],
        stdin_text='{"nodes": [[1, 1], [1, 2], [2, 1]]}',
    )
    assert code == 0
    assert json.loads(out) == {"admissible": True, "subsequence_type": [2, 1]}
    code, out = run(["admissible"], stdin_text='{"nodes": [[1, 2], [2, 1]]}')
    assert code == 0
    assert out == "admissible: no\nsubsequence type: 1,1\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_admissible_inserts_once_per_call(fmt, monkeypatch):
    # the one insertion is the shape behind the subsequence type
    calls = []
    real_shape = diagrams.shape

    def counting_shape(word):
        calls.append(word)
        return real_shape(word)

    monkeypatch.setattr(diagrams, "shape", counting_shape)
    for nodes in ([[1, 1], [1, 2], [2, 1]], [[1, 2], [2, 1]]):
        calls.clear()
        assert run(["admissible", "--format", fmt], json.dumps({"nodes": nodes}))[0] == 0
        assert len(calls) == 1


def test_verify_pass_and_output():
    code, out = run(["verify", "T3.15a", "--max-n", "6"])
    assert code == 0
    assert "T3.15a 1,2,1: PASS" in out
    assert out.strip().endswith("PASS")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "T3.15a", "--max-n", "3"],
        ["verify", "all", "--max-n", "0"],
        ["verify", "all", "--max-n", "3"],
        ["verify", "T2.16a", "--max-n", "-1"],
    ],
)
def test_verify_refuses_a_rule_with_no_checks(argv, capsys):
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_detects_injected_perturbation(monkeypatch):
    true_builder = rims._d_tsu_diagram

    def skewed(t, s, u, rows):
        diagram = true_builder(t, s, u, rows)
        if u == 1:
            nodes = tuple(
                (r, 2) if (r, c) == (rows, 1) else (r, c) for r, c in diagram.nodes
            )
            return type(diagram)(nodes)
        return diagram

    monkeypatch.setattr(rims, "_d_tsu_diagram", skewed)
    code, out = run(["verify", "T3.5a", "--max-n", "5"])
    assert code == 1
    assert "FAIL" in out


def test_bound_exceeded_and_env_override(monkeypatch):
    # the bound is --max-n alone: KLRIM_MAX_N, once an override, is ignored
    assert run(["rim", "--composition", "2,2,2,2,2,2"])[0] == 2
    assert run(["rim", "--composition", "12", "--count-only", "--max-n", "12"]) == (0, "1\n")
    assert run(["rim", "--composition", "3,2", "--max-n", "4"])[0] == 2
    monkeypatch.setenv("KLRIM_MAX_N", "12")
    assert run(["rim", "--composition", "12", "--count-only"]) == (2, "")
    monkeypatch.setenv("KLRIM_MAX_N", "banana")
    assert run(["rim", "--composition", "2,1"])[0] == 0
    assert run(["rim", "--composition", "2,1", "--method", "closed"])[0] == 0
    monkeypatch.delenv("KLRIM_MAX_N")
    assert run(["rim", "--composition", "3,2"])[0] == 0
