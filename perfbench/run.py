"""Benchmark of the casteljau library: end-to-end metrics, or per-layer with --trace 1.

    python3 perfbench/run.py --workload eval-sweep --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``paper-cli``: ``cli.main`` in-process for the five paper experiments;
* ``eval-sweep``: seeded root-form polynomials near their multiple root,
  one ``BernsteinPoly`` reused per polynomial, K = 1..4;
* ``eval-fresh``: a new plain coefficient list per call, n = 1..8, K = 1..3;
* ``all``: each of the above with tracing, for a human-readable overview.

Each run sets up (import, input generation, warm-up) several times, spread
over the run, and reports the median; it measures for ``--seconds`` in a
closed loop with one caller, checks every result outside the timed window,
prints one line per metric with its unit, and prints a JSON summary as the
last line.  With
``--trace 1`` half of the time is measured untraced and half with the layer
wrappers of ``tracing.py`` installed; the per-layer metrics come from there.
The library is imported from ``src/`` next to this directory; the run exits
with an error, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import CliWorkload, EvalWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "root_neighborhood.csv"
SETUP_REPEATS = 9
WORKLOADS = ("paper-cli", "eval-sweep", "eval-fresh")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "evals_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "eft.two_sum.calls": "count",
    "eft.two_prod.calls": "count",
    "eft.sum_k.calls": "count",
    "eft.self_s": "s",
    "eft.two_sum.ns": "ns",
    "eft.two_prod.ns": "ns",
    "evaluate.calls": "count",
    "evaluate.flops": "count",
    "evaluate.self_s": "s",
    "evaluate.ns_per_flop": "ns/flop",
    "evaluate.k1.ns_per_flop": "ns/flop",
    "evaluate.k2.ns_per_flop": "ns/flop",
    "evaluate.k3.ns_per_flop": "ns/flop",
    "evaluate.k4.ns_per_flop": "ns/flop",
    "oracle.condition_number.calls": "count",
    "oracle.condition_number.us": "us",
    "oracle.self_s": "s",
    "counting.calls": "count",
    "counting.flops_counted": "count",
    "counting.self_s": "s",
    "experiments.records": "count",
    "experiments.bytes_out": "bytes",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "cli.root_neighborhood_s": "s",
    "cli.condition_sweep_s": "s",
    "cli.cubic_compare_s": "s",
    "cli.flops_s": "s",
    "trace.overhead_s": "s",
}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


def load_casteljau():
    """Import the package from ``src/`` afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "casteljau" or m.startswith("casteljau.")]:
        del sys.modules[name]
    cj = importlib.import_module("casteljau")
    importlib.import_module("casteljau.cli")
    if Path(cj.__file__).resolve().parent != SRC / "casteljau":
        raise ImportError(f"casteljau was imported from {cj.__file__}, not from {SRC}")
    return cj


def make_workload(name: str, cj, seed: int, workdir: Path):
    if name == "paper-cli":
        return CliWorkload(cj, seed, workdir, GOLDEN.read_bytes())
    if name == "eval-sweep":
        return EvalWorkload.sweep(cj, seed)
    return EvalWorkload.fresh_calls(cj, seed)


def environment() -> str:
    fma = "present" if hasattr(math, "fma") else "absent (two_prod_fma uses Fraction)"
    numpy = "present" if importlib.util.find_spec("numpy") else "absent"
    return (
        f"python={sys.version.split()[0]} math.fma={fma} numpy={numpy} "
        f"nproc={len(os.sched_getaffinity(0))} cpu_pinning=unavailable "
        "frequency_governor=unavailable"
    )


def set_up(name: str, seed: int, workdir: Path):
    """Import the package afresh, generate the inputs, warm up; returns (seconds, cj, workload)."""
    t0 = time.perf_counter()
    cj = load_casteljau()
    workload = make_workload(name, cj, seed, workdir)
    workload.warm_up()
    return time.perf_counter() - t0, cj, workload


class Tally:
    """Each case's fastest call and the failed results, over rounds.

    On a shared host without CPU pinning the speed drifts by up to 2x over
    seconds, and drift only ever adds time; a case's fastest call is the
    estimate of its cost that drift disturbs least.  Results are checked as
    each round ends and then dropped, so memory does not grow with the
    number of calls a run makes.
    """

    def __init__(self, workload):
        self.workload = workload
        self.best: list[int] = []
        self.calls = 0
        self.failed = 0

    def add(self, times, values) -> None:
        if self.best:
            self.best[: len(times)] = map(min, self.best, times)
        else:
            self.best = list(times)
        self.calls += len(values)
        self.failed += self.workload.failures(values)


def run_rounds(workload, seconds: float, between) -> tuple[Tally, int]:
    """Rounds until ``seconds`` have passed; returns the tally and evals per round.

    The first round always completes, so every case has a time; later
    rounds stop at the deadline.  ``between(share)`` runs before each later
    round with the share of the window used so far.
    """
    tally = Tally(workload)
    gc.collect()
    clock = time.perf_counter_ns
    start = clock()
    span = int(seconds * 1e9)
    times, values = workload.run_round(float("inf"))
    evals = sum(workload.evals(i, v) for i, v in enumerate(values))
    tally.add(times, values)
    while clock() < start + span:
        between((clock() - start) / span)
        tally.add(*workload.run_round(start + span))
    return tally, evals


def _percentile(sorted_values, q: float):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def end_to_end(best: list[int], evals: int, setup_s: float) -> dict:
    run_s = sum(best) / 1e9
    latencies = sorted(best)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "evals_per_s": evals / run_s,
        "call_p50_us": statistics.median(latencies) / 1e3,
        "call_p99_us": _percentile(latencies, 0.99) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def untraced_layers(workload, best: list[int]) -> dict:
    """Per-layer figures that must come from untraced per-call timings."""
    ns, flops = {}, {}
    for i, t in enumerate(best):
        label = workload.label(i)
        ns[label] = ns.get(label, 0) + t
        flops[label] = flops.get(label, 0) + workload.flops(i)
    total_flops = sum(flops.values())
    out = {"evaluate.ns_per_flop": sum(ns.values()) / total_flops if total_flops else 0.0}
    for k in range(1, 5):
        label = f"k{k}"
        out[f"evaluate.{label}.ns_per_flop"] = ns[label] / flops[label] if flops.get(label) else 0.0
    for experiment in ("root-neighborhood", "condition-sweep", "cubic-compare", "flops"):
        out[f"cli.{experiment.replace('-', '_')}_s"] = ns.get(experiment, 0) / 1e9
    return out


def traced_layers(stats: list[dict], traced_run_s: float, untraced_run_s: float) -> dict:
    """Counts of the first traced round; times of the fastest round, as for run_s."""
    first = stats[0]
    calls = first["calls"]

    def self_s(layer: str) -> float:
        return min(st["self_ns"][layer] for st in stats) / 1e9

    def per_call(name: str, scale: float) -> float:
        n = calls[name]
        return min(st["ns"][name] for st in stats) / n / scale if n else 0.0

    return {
        "eft.two_sum.calls": calls["eft.two_sum"],
        "eft.two_prod.calls": calls["eft.two_prod"],
        "eft.sum_k.calls": calls["eft.sum_k"],
        "eft.self_s": self_s("eft"),
        "eft.two_sum.ns": per_call("eft.two_sum", 1.0),
        "eft.two_prod.ns": per_call("eft.two_prod", 1.0),
        "evaluate.calls": first["layer_calls"]["evaluate"],
        "evaluate.flops": first["flops"],
        "evaluate.self_s": self_s("evaluate"),
        "oracle.condition_number.calls": calls["oracle.condition_number"],
        "oracle.condition_number.us": per_call("oracle.condition_number", 1e3),
        "oracle.self_s": self_s("oracle"),
        "counting.calls": calls["counting.count_evaluation_flops"],
        "counting.flops_counted": first["flops_counted"],
        "counting.self_s": self_s("counting"),
        "experiments.records": first["records"],
        "experiments.bytes_out": first["bytes_out"],
        "experiments.self_s": self_s("experiments"),
        "cli.self_s": self_s("cli"),
        "trace.overhead_s": traced_run_s - untraced_run_s,
    }


# Figures of a traced round that must repeat exactly in every round.
_COUNTS = ("calls", "layer_calls", "flops", "flops_counted", "records", "bytes_out")


def traced_phase(cj, workload, seconds: float):
    """Whole rounds with the tracer installed; returns (tally, per-round stats, failures).

    A failure is a counted evaluation whose flop tally differs from the
    closed form, or a round whose counts differ from the first round's.
    """
    tracer = tracing.Tracer()
    tally, stats = Tally(workload), []
    clock = time.perf_counter_ns
    gc.collect()
    deadline = clock() + int(seconds * 1e9)
    with tracer.installed(cj):
        while not stats or clock() < deadline:
            tracer.reset()
            times, values = workload.run_round(float("inf"))
            stats.append(
                {
                    "calls": tracer.calls,
                    "layer_calls": tracer.layer_calls,
                    "ns": tracer.ns,
                    "self_ns": tracer.self_ns,
                    "flops": tracer.flops,
                    "flops_counted": tracer.flops_counted,
                    "records": tracer.records,
                    "bytes_out": sum(workload.output_bytes(i, v) for i, v in enumerate(values)),
                    "flop_mismatches": tracer.flop_mismatches,
                }
            )
            tally.add(times, values)
    failures = sum(st["flop_mismatches"] for st in stats)
    failures += sum(1 for st in stats[1:] if any(st[c] != stats[0][c] for c in _COUNTS))
    return tally, stats, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    first_s, cj, workload = set_up(name, seed, workdir)
    setups = [first_s]

    def sample_setup(share: float) -> None:
        # The other set-ups are spread over the window, so that their median
        # speaks for the whole run and not for one moment of it.  The
        # measured package is put back into sys.modules afterwards.
        if len(setups) < SETUP_REPEATS and share >= len(setups) / SETUP_REPEATS:
            measured_modules = {k: v for k, v in sys.modules.items() if k.startswith("casteljau")}
            setups.append(set_up(name, seed, workdir)[0])
            sys.modules.update(measured_modules)

    workload.prepare_checks()
    measured = seconds / 2 if trace else seconds
    tally, evals = run_rounds(workload, measured, sample_setup)
    while len(setups) < SETUP_REPEATS:
        sample_setup(1.0)
    metrics = end_to_end(tally.best, evals, statistics.median(setups))
    attempted, failed = tally.calls, tally.failed
    if trace:
        metrics.update(untraced_layers(workload, tally.best))
        traced, stats, trace_failures = traced_phase(cj, workload, measured)
        metrics.update(traced_layers(stats, sum(traced.best) / 1e9, metrics["run_s"]))
        # Traced results go through the same checks, so they must carry
        # the same bits as the untraced ones.
        attempted += traced.calls
        failed += traced.failed + trace_failures
    return {
        "name": name,
        "seed": seed,
        "trace": trace,
        "digest": workload.input_digest(),
        "cases": len(workload.cases),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(run: dict) -> None:
    print(f"workload {run['name']} seed={run['seed']} trace={int(run['trace'])}")
    print(f"env {environment()}")
    print(f"inputs sha256={run['digest']} cases={run['cases']} calls={run['attempted']}")
    for key, value in run["metrics"].items():
        print(f"metric {key} {value} {UNITS[key]}")
    print(f"metric failed_share {run['failed'] / run['attempted']} share")


def summary(run: dict, keys) -> dict:
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            key: {"value": run["metrics"][key], "unit": UNITS[key]} for key in keys
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    try:
        load_casteljau()
        GOLDEN.stat()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot find the program to measure: {exc}", file=sys.stderr)
        return 2

    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.workload == "all":
            runs = [run_workload(w, args.seed, args.seconds, True, workdir) for w in WORKLOADS]
        else:
            runs = [run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for run in runs:
        report(run)
    if args.workload == "all":
        result = {
            "correct": all(r["failed"] == 0 for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                f"{r['name']}/{key}": entry
                for r in runs
                for key, entry in summary(r, r["metrics"])["metrics"].items()
            },
        }
    else:
        keys = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        result = summary(runs[0], keys)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
