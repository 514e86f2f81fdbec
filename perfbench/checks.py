"""Result checks for the benchmark, kept apart from the library under test.

Evaluator results are judged twice, in exact arithmetic and outside any timed
window:

* bit for bit against :func:`reference`, a plain-float transcription of the
  paper's K-fold compensated de Casteljau algorithm with the library's fixed
  operation order, so a single flipped low bit counts as a failure;
* against the exact oracle with the a priori error bounds of acceptance
  gate 4, re-derived here from the paper (the test suite is not imported).

CLI outputs must match the golden root-neighborhood CSV byte for byte and the
SHA-256 digests of the other experiments' outputs, recorded from the
commit that introduced this benchmark.
"""

from __future__ import annotations

import hashlib
import math
import struct
from fractions import Fraction
from typing import Sequence

U = Fraction(1, 2**53)

# SHA-256 of each experiment's --out file.  root-neighborhood is compared with
# tests/data/root_neighborhood.csv itself, byte for byte.
CLI_DIGESTS = {
    "condition-sweep": "584c2b1ad38a03ddfa7606f2dd0d7b4cc1d4c8d0cff3c3a169cd4d15759ac5d8",
    "cubic-compare": "e8b04c6ca9b9a4c9a388309ff74246bdb93c9e86fe314a0db93df7c65d56e95a",
    "flops": "ea748eb7a7fc6bb04c6758d3626cb4a68684cbcec7ad1d1a76b5c57dd172e875",
    "table1": "c61bbf941deb980aa885b3c0ebf2d8abb4949d13407e92f9642175cd10b67582",
}


def cli_output_ok(experiment: str, returncode: int, data: bytes, golden: bytes) -> bool:
    """True when a CLI run exited 0 and wrote exactly the recorded bytes."""
    if returncode != 0:
        return False
    if experiment == "root-neighborhood":
        return data == golden
    return hashlib.sha256(data).hexdigest() == CLI_DIGESTS[experiment]


def flop_count(n: int, k: int) -> int:
    """The paper's closed-form operation count of the K-fold evaluator."""
    t_n = n * (n + 1) // 2
    if k == 1:
        return 3 * t_n + 1
    return (15 * k * k + 11 * k - 34) * t_n + 6 * k * k - 11 * k + 11


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


# -- reference evaluator ------------------------------------------------------


def _two_sum(a: float, b: float) -> tuple[float, float]:
    x = a + b
    z = x - a
    return x, (a - (x - z)) + (b - z)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    x = a * b
    za = a * 134217729.0
    ah = za - (za - a)
    al = a - ah
    zb = b * 134217729.0
    bh = zb - (zb - b)
    bl = b - bh
    return x, al * bl - (((x - ah * bh) - al * bh) - ah * bl)


def _sum_k(terms: Sequence[float], k: int) -> float:
    q = list(terms)
    for _ in range(k - 1):
        for j in range(1, len(q)):
            q[j], q[j - 1] = _two_sum(q[j], q[j - 1])
    total = q[0]
    for x in q[1:]:
        total = total + x
    return total


def reference(coeffs: Sequence[float], s: float, k: int) -> tuple[float, list[float]]:
    """K-fold compensated de Casteljau; returns the value and the k leading terms.

    Stage f of the error cascade captures its own rounding errors with EFTs
    and hands them to stage f + 1; the last stage accumulates without
    capture, and the k leading values are distilled by a k-fold sum.
    """
    if k == 1:
        r = 1.0 - s
        row = list(coeffs)
        while len(row) > 1:
            row = [(r * row[j]) + (s * row[j + 1]) for j in range(len(row) - 1)]
        return row[0], row[:1]
    n = len(coeffs) - 1
    r, rho = _two_sum(1.0, -s)
    base = list(coeffs)
    errs = [[0.0] * (n + 1) for _ in range(k - 1)]
    for level in range(n - 1, -1, -1):
        new_base = []
        new_errs = [[] for _ in range(k - 1)]
        for j in range(level + 1):
            p_r, e_r = _two_prod(r, base[j])
            p_s, e_s = _two_prod(s, base[j + 1])
            value, sigma = _two_sum(p_r, p_s)
            new_base.append(value)
            e = [e_r, e_s, sigma]
            delta = base[j]
            for f in range(k - 2):
                acc, t = _two_sum(e[0], e[1])
                eta = [t]
                for x in e[2:]:
                    acc, t = _two_sum(acc, x)
                    eta.append(t)
                prod, t = _two_prod(rho, delta)
                eta.append(t)
                acc, t = _two_sum(acc, prod)
                eta.append(t)
                p_s2, t1 = _two_prod(s, errs[f][j + 1])
                part, t2 = _two_sum(acc, p_s2)
                p_r2, t3 = _two_prod(r, errs[f][j])
                updated, t4 = _two_sum(part, p_r2)
                eta.extend((t1, t2, t3, t4))
                new_errs[f].append(updated)
                e = eta
                delta = errs[f][j]
            acc = e[0] + e[1]
            for x in e[2:]:
                acc = acc + x
            acc = acc + (rho * delta)
            last = errs[k - 2]
            new_errs[k - 2].append(acc + (s * last[j + 1]) + (r * last[j]))
        base = new_base
        errs = new_errs
    leading = [base[0]] + [tri[0] for tri in errs]
    return _sum_k(leading, k), leading


# -- gate 4's a priori bounds -------------------------------------------------


def gamma(m: int) -> Fraction:
    nu = m * U
    return nu / (1 - nu)


def cond_multiplier(n: int, k: int) -> Fraction:
    """Leading coefficient of cond(p, s) in the K-fold relative bound, times u**k."""
    if k == 2:
        q = Fraction(3 * n * (3 * n + 7), 2)
    elif k == 3:
        q = Fraction(3 * n * (3 * n * n + 36 * n + 61), 2)
    elif k == 4:
        q = Fraction(
            81 * math.comb(n, 4) + 810 * math.comb(n, 3) + 2475 * math.comb(n, 2) + 2250 * n
        )
    else:
        raise ValueError(f"no closed-form multiplier for k={k}")
    return q * U**k


def within_bound(
    n: int, k: int, value: float, leading: Sequence[float], exact: Fraction, tilde: Fraction
) -> bool:
    """Gate 4's per-instance bound for one result, checked exactly.

    k=1: absolute error <= gamma(3n) * ptilde.  k=2: relative error <=
    u + 2 gamma(3n)^2 cond.  k>=3: relative error <= u + 3 gamma(k-1)^2 +
    gamma(2k-2)^k sum|leading| / |p| + cond_multiplier(n, k) cond, where the
    middle terms bound the final k-term compensated sum.  Relative bounds
    are skipped at an exact root, as in gate 4.
    """
    err = abs(Fraction(value) - exact)
    if k == 1:
        return err <= gamma(3 * n) * tilde
    if exact == 0:
        return True
    cond = tilde / abs(exact)
    if k == 2:
        bound = U + 2 * gamma(3 * n) ** 2 * cond
    else:
        sum_abs = sum(abs(Fraction(v)) for v in leading)
        bound = (
            U
            + 3 * gamma(k - 1) ** 2
            + gamma(2 * k - 2) ** k * sum_abs / abs(exact)
            + cond_multiplier(n, k) * cond
        )
    return err <= bound * abs(exact)
