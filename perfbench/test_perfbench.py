"""Tests of the benchmark's own checks, seeding and tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
from workloads import CliWorkload, EvalWorkload

sys.path.insert(0, str(run.SRC))


def flip_low_bit(x: float) -> float:
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


@pytest.fixture(scope="module")
def cj():
    return run.load_casteljau()


@pytest.fixture(scope="module")
def sweep(cj):
    return EvalWorkload.sweep(cj, 7)


def sample(workload, per_k: int = 3):
    """A few case indices of every K the workload runs."""
    picked, seen = [], {}
    for i, (_, _, k) in enumerate(workload.cases):
        if seen.get(k, 0) < per_k:
            seen[k] = seen.get(k, 0) + 1
            picked.append(i)
    return picked


def library_value(workload, i):
    poly, s, k = workload.cases[i]
    return workload.cj.evaluate.comp_de_casteljau_k(list(poly) if workload.fresh else poly, s, k)


@pytest.mark.parametrize("kind", ["sweep", "fresh"])
def test_library_results_pass_and_flipped_low_bit_fails(cj, sweep, kind):
    workload = sweep if kind == "sweep" else EvalWorkload.fresh_calls(cj, 7)
    for i in sample(workload):
        value = library_value(workload, i)
        assert workload.check(i, value), workload.cases[i]
        assert not workload.check(i, flip_low_bit(value)), workload.cases[i]


def test_round_failures_count_a_flipped_low_bit(sweep):
    sweep.prepare_checks()
    _, values = sweep.run_round(float("inf"))
    assert sweep.failures(values) == 0
    values[7] = flip_low_bit(values[7])
    assert sweep.failures(values) == 1


def test_bound_rejects_a_large_error(cj):
    coeffs, s = (1.0, -0.5, 0.25), 0.375
    exact = cj.oracle.exact_eval(coeffs, s)
    tilde = cj.oracle.p_tilde(coeffs, s)
    for k in (1, 2, 3, 4):
        value, leading = checks.reference(coeffs, s, k)
        assert checks.within_bound(2, k, value, leading, exact, tilde)
        assert not checks.within_bound(2, k, value * (1 + 2**-20), leading, exact, tilde)


def test_cli_outputs_pass_and_flipped_low_bit_fails(cj, tmp_path):
    golden = run.GOLDEN.read_bytes()
    assert checks.cli_output_ok("root-neighborhood", 0, golden, golden)
    assert not checks.cli_output_ok("root-neighborhood", 1, golden, golden)
    # The first data row's value_hex ends in a hex digit; flip its low bit.
    header, row = golden.split(b"\n")[:2]
    fields = row.split(b",")
    digit = int(fields[4][-1:], 16) ^ 1
    fields[4] = fields[4][:-1] + format(digit, "x").encode()
    flipped = golden.replace(row, b",".join(fields), 1)
    assert flipped != golden
    assert not checks.cli_output_ok("root-neighborhood", 0, flipped, golden)

    for experiment in ("table1", "flops"):
        out = tmp_path / f"{experiment}.out"
        assert cj.cli.main([experiment, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert checks.cli_output_ok(experiment, 0, data, golden)
        changed = bytearray(data)
        changed[-2] ^= 1
        assert not checks.cli_output_ok(experiment, 0, bytes(changed), golden)


def test_same_seed_same_inputs(cj, tmp_path):
    assert EvalWorkload.sweep(cj, 3).input_digest() == EvalWorkload.sweep(cj, 3).input_digest()
    assert EvalWorkload.sweep(cj, 3).input_digest() != EvalWorkload.sweep(cj, 4).input_digest()
    fresh = EvalWorkload.fresh_calls
    assert fresh(cj, 3).input_digest() == fresh(cj, 3).input_digest()
    assert fresh(cj, 3).input_digest() != fresh(cj, 4).input_digest()
    cli = CliWorkload(cj, 3, tmp_path, b"")
    assert cli.input_digest() == CliWorkload(cj, 3, tmp_path, b"").input_digest()


def test_tracer_counts_repeat_and_results_keep_their_bits(cj, sweep):
    small = EvalWorkload(cj, sweep.cases[:: len(sweep.cases) // 24], fresh=False)
    untraced = small.run_round(float("inf"))[1]
    saved = [(ns, key, ns[key]) for ns, key, *_ in tracing.targets(cj)]
    tracer = tracing.Tracer()
    counts = []
    with tracer.installed(cj):
        assert all(ns[key] is not original for ns, key, original in saved)
        for _ in range(2):
            tracer.reset()
            traced = small.run_round(float("inf"))[1]
            assert all(checks.same_bits(a, b) for a, b in zip(traced, untraced))
            counts.append((dict(tracer.calls), tracer.flops))
        tracer.reset()
        cj.experiments.count_evaluation_flops([1.0, -2.0, 3.0, -4.0], 0.75, 3)
        assert tracer.flops_counted == checks.flop_count(3, 3)
        assert tracer.flop_mismatches == 0
    assert counts[0] == counts[1]
    assert counts[0][0]["evaluate.comp_de_casteljau_k"] == len(small.cases)
    assert counts[0][1] == sum(small.flops(i) for i in range(len(small.cases)))
    assert all(ns[key] is original for ns, key, original in saved)


def test_exits_nonzero_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "eval-fresh", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
