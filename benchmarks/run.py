"""
The klrim benchmark: one seeded workload per run, end-to-end metrics from
untraced passes, per-layer metrics from a separate traced pass.

    python3 benchmarks/run.py --workload cell_search --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (item
sizes, per-pass latency and machine-speed probe, failed checks,
provenance) go to ``benchmarks/out/<workload>-seed<seed>-trace<0|1>.json``;
a traced run also writes its spans to
``benchmarks/out/trace-<workload>-seed<seed>.tsv.gz``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
benchmark cannot run here or has nothing to check.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import oracles
from tracing import Tracer
from workloads import WORKLOADS, Item, Outcome, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 9
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
TAIL_BEYOND = 10
# The tail stops at p99, keeping one sample in a hundred beyond it: past p99,
# on runs with thousands of sub-millisecond items, it measures the host
# pausing the process, not the program.
TAIL_SHARE_BEYOND = 100


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer", as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class CannotRun(Exception):
    """The benchmark cannot run in this environment; no result is printed."""


# --- environment -------------------------------------------------------------


def pin_environment() -> None:
    if sys.flags.optimize:
        raise CannotRun("refusing to run under python -O: it strips the library's assert invariants")
    # the CLI reads this to change its search bounds; every bound is passed explicitly
    os.environ.pop("KLRIM_MAX_N", None)
    source = ROOT / "src"
    if not (source / "klrim" / "__init__.py").is_file():
        raise CannotRun(f"no klrim sources under {source}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


def import_klrim() -> None:
    """A fresh import of klrim, so that every set-up round pays for it."""
    for key in [k for k in sys.modules if k == "klrim" or k.startswith("klrim.")]:
        del sys.modules[key]
    package = importlib.import_module("klrim")
    importlib.import_module("klrim.cli")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise CannotRun(f"imported klrim from {package.__file__}, not from {ROOT / 'src'}")


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


# --- measurement ---------------------------------------------------------------


def set_up(workload: Workload, seed: int, sizes: dict) -> tuple[list[Item], list[float]]:
    """Import klrim and build the inputs, several times; the last build is used."""
    times, builds = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        import_klrim()
        builds.append(workload.build(seed, **sizes))
        times.append(perf_counter() - start)
    if any(b != builds[0] for b in builds):
        raise RuntimeError(f"{workload.name}: the same seed built different inputs")
    return builds[-1], times


def run_pass(workload: Workload, items: list[Item], tracer: Tracer | None = None):
    """Issue every item once, in order; returns each item's latency and outcome."""
    latencies, outcomes = array("d"), []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        start = perf_counter()
        try:
            output = workload.run(item)
            latency = perf_counter() - start
            outcome = workload.check(item, output)
        except Exception:  # one broken item must not stop the run; it counts as failed
            latency = perf_counter() - start
            outcome = Outcome(False, traceback.format_exc(limit=3), None, 0, 0)
        latencies.append(latency)
        outcomes.append(outcome)
    return latencies, outcomes


def tail(latencies: list[float]) -> tuple[float, float]:
    """
    The latency at the highest percentile, at most p99, with at least ten
    samples beyond it, and that percentile.
    """
    ordered = sorted(latencies)
    beyond = max(TAIL_BEYOND, -(-len(ordered) // TAIL_SHARE_BEYOND))
    index = max(0, len(ordered) - beyond - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def layer_metrics(tracer: Tracer, bytes_out: int, workload: Workload, overhead: float) -> dict:
    """
    "<layer>.<function>.<calls|self_s|yielded>" come straight from the
    tracer; the others are derived here.
    """
    values = {}
    for name in metric_units("per_layer"):
        function, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tracer.calls[function]
        elif kind == "self_s":
            values[name] = tracer.self_ns[function] / 1e9
        elif kind == "yielded":
            values[name] = tracer.yielded[function]
    searched = tracer.kept["rims.rim_search"]
    fiber = sum(oracles.cell_size(args[0]) for args, _ in searched)
    tested = tracer.nested["permutations.rsk@rims.rim_search"]
    results = searched + tracer.kept["rims.rim_closed_form"]
    values.update({
        "rims.fiber_elements": fiber,
        "rims.search.admit_ratio": fiber / tested if tested else 0.0,
        "rims.rim_elements": sum(len(r.rim) for _, r in results if r is not None),
        "cli.bytes_out": bytes_out if workload.via_main else 0,
        "trace.overhead_ratio": overhead,
    })
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None, out_dir: Path = OUT) -> dict:
    workload = WORKLOADS[name]
    items, setup_times = set_up(workload, seed, sizes or {})
    if not items:
        raise CannotRun(f"{name} built no items, so nothing would be checked")
    latencies = array("d")  # every item of every pass, kept compact so RSS stays the program's
    passes: list[dict] = []
    failures: list[dict] = []
    sizes_seen: list[dict] = []
    details: dict = {}

    def one_pass(tracer=None) -> dict:
        probe = oracles.reference_loop_s()
        pass_latencies, outcomes = run_pass(workload, items, tracer)
        latencies.extend(pass_latencies)
        summary = {
            "probe_s": probe, "latency_s": sum(pass_latencies),
            "work": sum(o.work for o in outcomes), "bytes_out": sum(o.bytes_out for o in outcomes),
            "failed": sum(not o.ok for o in outcomes), "traced": tracer is not None,
        }
        passes.append(summary)
        failures.extend({"pass": len(passes), "item": item.key, "detail": o.detail}
                        for item, o in zip(items, outcomes) if not o.ok)
        if not sizes_seen:
            sizes_seen.extend({
                "item": item.key, "n": item.n, "cell_size": item.cell_size,
                "rim_size": o.rim_size, "bytes_out": o.bytes_out, "work": o.work,
            } for item, o in zip(items, outcomes))
        return summary

    if trace:
        untraced = one_pass()
        tracer = Tracer(
            watch=[("permutations.rsk", "rims.rim_search")],
            keep_results=["rims.rim_search", "rims.rim_closed_form"],
        )
        tracer.install()
        try:
            traced = one_pass(tracer)
        finally:
            tracer.uninstall()
        overhead = traced["latency_s"] / untraced["latency_s"]
        metrics = layer_metrics(tracer, traced["bytes_out"], workload, overhead)
        units = metric_units("per_layer")
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(out_dir / f"trace-{name}-seed{seed}.tsv.gz")
        details["spans_stored"] = tracer.span_count
    else:
        # stop once another pass would likely end more than half a pass late
        start = perf_counter()
        while True:
            one_pass()
            elapsed = perf_counter() - start
            if len(latencies) >= MIN_SAMPLES and elapsed * (1 + 0.5 / len(passes)) >= seconds:
                break
        tail_s, tail_pct = tail(latencies)
        # Run totals, not medians over passes: the host's speed changes every
        # few seconds, and a median snaps to whichever speed held longest.
        busy = sum(p["latency_s"] for p in passes)
        metrics = {
            "wall_s": busy / len(passes),
            "item_p50_s": statistics.median(latencies),
            "item_tail_s": tail_s,
            "work_per_s": sum(p["work"] for p in passes) / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        units = metric_units("end_to_end")
        details.update({
            "tail_percentile": tail_pct, "samples": len(latencies),
            "work_unit": "nodes" if name == "calculus" else "cell elements",
        })

    failed = sum(p["failed"] for p in passes)
    summary = {
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details.update({
        "failed_ratio": failed / len(latencies),
        "setup_s": setup_times,
        "probe_s_median": statistics.median(p["probe_s"] for p in passes),
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": provenance(), "summary": summary, "details": details,
        "items": sizes_seen, "passes": passes, "failures": failures,
    }
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return summary


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is measured per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 2 or not lines:
            raise CannotRun(f"{name}: exited {done.returncode} without a result")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print_summary(name, result)
    return combined


def print_summary(name: str, result: dict) -> None:
    failed_ratio = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"{name}: attempted {result['attempted']}  failed_ratio {failed_ratio:g}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:40s} {value['value']:>14.6g} {value['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pin_environment()
        if args.workload == "all":
            summary = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print_summary(args.workload, summary)
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
