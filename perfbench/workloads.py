"""The three workloads: seeded inputs, one timed round each, and result checks.

Each workload is a closed loop with one caller.  A round runs every input of
the workload once, in a fixed order, timing each public call on its own; the
per-call results are checked afterwards, outside the timed window.

Costs depend only on each input's (degree, K) mix, which is the same for
every seed; the seed moves the values.  So timings and call counts are
comparable across seeds, and counts repeat exactly.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from array import array
from fractions import Fraction
from pathlib import Path

import checks

# eval-sweep: one polynomial per multiplicity m of its multiple root, degree
# m + 3 (three simple roots), so degrees 6..10; points straddle the multiple
# root at distances 2**-4 .. 2**-37, condition numbers from ~1e2 past 1e60.
SWEEP_MULTIPLICITIES = (3, 4, 5, 6, 7)
SWEEP_POINTS = 12
SWEEP_K = (1, 2, 3, 4)

# eval-fresh: every block holds each (degree, K) class once, in seeded order.
FRESH_DEGREES = tuple(range(1, 9))
FRESH_K = (1, 2, 3)
FRESH_BLOCKS = 128

CLI_EXPERIMENTS = ("root-neighborhood", "condition-sweep", "cubic-compare", "flops", "table1")
CLI_SWEEPS = ("root-neighborhood", "condition-sweep", "cubic-compare")
CLI_WARMUP = (
    ("table1",),
    ("root-neighborhood", "--points", "3"),
    ("condition-sweep", "--points", "3"),
    ("cubic-compare", "--points", "3"),
    ("flops", "--k", "1"),
)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _root_form(cj, rng: random.Random, m: int, n: int):
    """lcm(C(n,i)) * (s - r0)^m * prod(s - r_i) with dyadic roots.

    Returns the polynomial and r0.  Redraws (from the same generator) in the
    rare case a Bernstein coefficient is not exactly representable, which
    the library's constructor refuses.
    """
    scale = math.lcm(*(math.comb(n, i) for i in range(n + 1)))
    while True:
        r0 = Fraction(rng.randint(3, 13), 16)
        simple = []
        while len(simple) < n - m:
            r = Fraction(rng.randint(-8, 16), 8)
            if abs(r - r0) >= Fraction(1, 4):
                simple.append(r)
        factors = [(r0, m)] + [(r, 1) for r in simple]
        try:
            return cj.oracle.bernstein_from_root_form(factors, scale=scale), r0
        except ValueError:
            continue


class EvalWorkload:
    """Direct calls of ``comp_de_casteljau_k``; one case is (poly, s, k)."""

    def __init__(self, cj, cases, fresh: bool):
        self.cj = cj
        self.cases = cases
        # fresh: every call gets a new plain list, so no work can be shared.
        self.fresh = fresh
        self._verdicts: dict[int, tuple[float, bool]] = {}

    @classmethod
    def sweep(cls, cj, seed: int) -> "EvalWorkload":
        rng = random.Random(seed)
        cases = []
        for m in SWEEP_MULTIPLICITIES:
            poly, r0 = _root_form(cj, rng, m, m + 3)
            for i in range(SWEEP_POINTS):
                d = (1.0 + rng.random()) * 2.0 ** -(4 + 3 * i)
                s = float(r0) + d if i % 2 else float(r0) - d
                cases.extend((poly, s, k) for k in SWEEP_K)
        return cls(cj, cases, fresh=False)

    @classmethod
    def fresh_calls(cls, cj, seed: int) -> "EvalWorkload":
        rng = random.Random(seed)
        classes = [(n, k) for n in FRESH_DEGREES for k in FRESH_K]
        cases = []
        for _ in range(FRESH_BLOCKS):
            rng.shuffle(classes)
            for n, k in classes:
                coeffs = tuple(rng.uniform(-1.0, 1.0) for _ in range(n + 1))
                cases.append((coeffs, rng.random(), k))
        return cls(cj, cases, fresh=True)

    def _coeffs(self, i: int):
        poly = self.cases[i][0]
        return getattr(poly, "coeffs", poly)

    def input_digest(self) -> str:
        return _digest(
            ",".join(c.hex() for c in self._coeffs(i)) + f";{s.hex()};{k}"
            for i, (_, s, k) in enumerate(self.cases)
        )

    def warm_up(self) -> None:
        seen = set()
        evaluate = self.cj.evaluate.comp_de_casteljau_k
        for i, (poly, s, k) in enumerate(self.cases):
            key = (len(self._coeffs(i)), k)
            if key not in seen:
                seen.add(key)
                evaluate(list(poly) if self.fresh else poly, s, k)

    def run_round(self, deadline: float) -> tuple[array, array]:
        """Nanoseconds and value of each call in case order; stops once past ``deadline``."""
        evaluate = self.cj.evaluate.comp_de_casteljau_k
        clock = time.perf_counter_ns
        fresh = self.fresh
        times, values = array("q"), array("d")
        for poly, s, k in self.cases:
            arg = list(poly) if fresh else poly
            t0 = clock()
            value = evaluate(arg, s, k)
            t1 = clock()
            times.append(t1 - t0)
            values.append(value)
            if t1 >= deadline:
                break
        return times, values

    def label(self, i: int) -> str:
        return f"k{self.cases[i][2]}"

    def flops(self, i: int) -> int:
        return checks.flop_count(len(self._coeffs(i)) - 1, self.cases[i][2])

    def evals(self, i: int, value) -> int:
        return 1

    def output_bytes(self, i: int, value) -> int:
        return 0

    def _verdict(self, i: int) -> tuple[float, bool]:
        """The reference value of case i and whether it lies inside gate 4's bound."""
        if i not in self._verdicts:
            coeffs = self._coeffs(i)
            _, s, k = self.cases[i]
            want, leading = checks.reference(coeffs, s, k)
            exact = self.cj.oracle.exact_eval(coeffs, s)
            tilde = self.cj.oracle.p_tilde(coeffs, s)
            ok = checks.within_bound(len(coeffs) - 1, k, want, leading, exact, tilde)
            self._verdicts[i] = (want, ok)
        return self._verdicts[i]

    def check(self, i: int, value: float) -> bool:
        """Bit-identical to the reference and inside gate 4's bound."""
        want, ok = self._verdict(i)
        return ok and checks.same_bits(value, want)

    def prepare_checks(self) -> None:
        """Judge every case once, before anything is timed."""
        verdicts = [self._verdict(i) for i in range(len(self.cases))]
        self._expected = array("d", [want for want, _ in verdicts])
        self._out_of_bound = [i for i, (_, ok) in enumerate(verdicts) if not ok]

    def failures(self, values: array) -> int:
        """Failed results among one round's values (case order)."""
        n = len(values)
        if values.tobytes() == self._expected[:n].tobytes():
            return sum(1 for i in self._out_of_bound if i < n)
        return sum(not self.check(i, v) for i, v in enumerate(values))


class CliWorkload:
    """``cli.main`` in-process for each paper experiment, ``--out`` into a work dir."""

    def __init__(self, cj, seed: int, workdir: Path, golden: bytes):
        self.cj = cj
        self.workdir = workdir
        self.golden = golden
        order = list(CLI_EXPERIMENTS)
        random.Random(seed).shuffle(order)
        self.cases = order

    def _out(self, experiment: str) -> Path:
        return self.workdir / f"{experiment}.out"

    def input_digest(self) -> str:
        return _digest(self.cases)

    def warm_up(self) -> None:
        for argv in CLI_WARMUP:
            self.cj.cli.main([*argv, "--out", str(self.workdir / "warmup.out")])

    def run_round(self, deadline: float) -> tuple[array, list[tuple[int, bytes]]]:
        """Nanoseconds and (exit code, output bytes) of each experiment run."""
        clock = time.perf_counter_ns
        times, values = array("q"), []
        for experiment in self.cases:
            out = self._out(experiment)
            out.unlink(missing_ok=True)
            argv = [experiment, "--out", str(out)]
            t0 = clock()
            rc = self.cj.cli.main(argv)
            t1 = clock()
            times.append(t1 - t0)
            values.append((rc, out.read_bytes() if out.exists() else b""))
            if t1 >= deadline:
                break
        return times, values

    def label(self, i: int) -> str:
        return self.cases[i]

    def flops(self, i: int) -> int:
        return 0

    def evals(self, i: int, value) -> int:
        # One CSV record is one evaluator result judged by the oracle.
        if self.cases[i] not in CLI_SWEEPS:
            return 0
        return max(value[1].count(b"\n") - 1, 0)

    def output_bytes(self, i: int, value) -> int:
        return len(value[1])

    def check(self, i: int, value) -> bool:
        rc, data = value
        return checks.cli_output_ok(self.cases[i], rc, data, self.golden)

    def prepare_checks(self) -> None:
        pass

    def failures(self, values) -> int:
        return sum(not self.check(i, v) for i, v in enumerate(values))
