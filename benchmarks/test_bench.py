"""
Tests of the benchmark itself, at tiny sizes:

    python3 -m pytest benchmarks
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads

HERE = Path(__file__).resolve().parent
TEST_OUT = HERE / "out" / "tests"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "cell_search": {"n": 6, "band": (1, 100)},
    "verify_sweep": {"max_n": 5},
    "closed_json": {"n": 8, "min_cell": 30, "anchor": (3, 2, 1)},  # no staircase: star_extend calls rsk
    "calculus": {"count": 3, "smallest": 5, "largest": 12},
}


@pytest.fixture(autouse=True)
def pinned():
    run.pin_environment()


@pytest.fixture
def out_dir(request):
    """A fresh directory inside the checkout, which the benchmark never leaves."""
    path = TEST_OUT / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tiny_run(name, out_dir, trace=False, seed=3):
    return run.run_workload(name, seed, 0, trace, sizes=TINY[name], out_dir=out_dir)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(name, out_dir, capsys):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        summary = tiny_run(name, out_dir, trace)
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
        run.print_summary(name, summary)
        printed = capsys.readouterr().out
        assert "failed_ratio 0" in printed
        for metric, unit in expected.items():
            assert any(line.split()[0] == metric and line.split()[-1] == unit
                       for line in printed.splitlines()[1:])
    end_to_end = tiny_run(name, out_dir)["metrics"]
    assert all(v["value"] > 0 for v in end_to_end.values())


def test_traced_counts_repeat_and_bypasses_hold(out_dir):
    counts = {}
    for name in workloads.WORKLOADS:
        first, second = (tiny_run(name, out_dir, trace=True)["metrics"] for _ in range(2))
        counts[name] = {k: v["value"] for k, v in first.items() if not k.endswith(("_s", "_ratio"))}
        assert counts[name] == {k: v["value"] for k, v in second.items() if k in counts[name]}
    assert counts["closed_json"]["permutations.rsk.calls"] == 0
    assert counts["closed_json"]["rims.rim_search.calls"] == 0
    assert all(c["paths.order_kpath.calls"] == 0 for n, c in counts.items() if n != "calculus")
    assert counts["calculus"]["paths.order_kpath.calls"] > 0
    assert all(v == 0 for k, v in counts["calculus"].items() if k.startswith("rims.") and k.endswith(".calls"))


def test_same_seed_same_inputs():
    run.import_klrim()
    build = workloads.build_cell_search
    assert build(5, **TINY["cell_search"]) == build(5, **TINY["cell_search"])
    assert any(build(5, **TINY["cell_search"]) != build(s, **TINY["cell_search"]) for s in range(6, 10))


def _corrupt_first_word(output):
    code, text = output
    first, rest = text.split("\n", 1)
    element = json.loads(first)
    element["reduced_word"] = element["reduced_word"][::-1] + [1]
    return code, json.dumps(element) + "\n" + rest


def test_corrupted_output_counts_as_failed(out_dir, monkeypatch):
    honest = workloads.WORKLOADS["cell_search"]
    corrupt = dataclasses.replace(honest, run=lambda item: _corrupt_first_word(honest.run(item)))
    monkeypatch.setitem(workloads.WORKLOADS, "cell_search", corrupt)
    summary = tiny_run("cell_search", out_dir)
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] > 0


@pytest.mark.parametrize("name, corrupt", [
    ("verify_sweep", lambda out: (out[0], out[1].replace(": PASS", ": FAIL (x)", 1))),
    ("verify_sweep", lambda out: (1, out[1])),
    ("closed_json", lambda out: (out[0], out[1].replace('"cell_size": ', '"cell_size": 1'))),
    ("calculus", lambda out: {"paths": out["paths"][::-1]} if isinstance(out, dict) else out),
    ("calculus", lambda out: (not out[0], *out[1:]) if isinstance(out, tuple) else out),
])
def test_checks_reject_corrupted_outputs(name, corrupt):
    run.import_klrim()
    workload = workloads.WORKLOADS[name]
    items = workload.build(3, **TINY[name])
    verdicts = [workload.check(item, corrupt(workload.run(item))).ok for item in items]
    assert not all(verdicts)


def test_empty_item_set_fails_the_gate(out_dir, monkeypatch):
    empty = dataclasses.replace(workloads.WORKLOADS["calculus"], build=lambda seed, **_: [])
    monkeypatch.setitem(workloads.WORKLOADS, "calculus", empty)
    with pytest.raises(run.CannotRun):
        tiny_run("calculus", out_dir)


def test_oracles():
    assert oracles.cell_size((3, 2, 1)) == 16
    assert oracles.cell_size((7, 6, 5)) == 466_752
    assert oracles.cell_size((1, 3, 2, 1, 3, 2)) == 2673
    assert oracles.evaluate_word(4, (1, 2, 3)) == (4, 1, 2, 3)
    assert oracles.inversions((4, 1, 2, 3)) == 3
    assert oracles.precedes({(2, 3)}, {(1, 1)}) and not oracles.precedes({(2, 3)}, {(3, 2)})
    assert oracles.longest_path([(1, 1), (1, 2), (2, 2), (3, 1)]) == 2


def _bench(cwd, *flags):
    argv = [sys.executable, *flags, "benchmarks/run.py", "--workload", "calculus",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_optimized_python():
    done = _bench(HERE.parent, "-O")
    assert done.returncode == 2 and not done.stdout


def test_fails_without_the_program(out_dir):
    shutil.copy(HERE.parent / "BENCHMARK.json", out_dir)
    # without this file too, so that pytest does not collect the copy
    skip = shutil.ignore_patterns("out", "__pycache__", Path(__file__).name)
    shutil.copytree(HERE, out_dir / "benchmarks", ignore=skip)
    done = _bench(out_dir)
    assert done.returncode != 0 and not done.stdout
