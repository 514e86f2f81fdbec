"""Deterministic accuracy experiments, returned as CSV records or text reports.

The three sweeps run a fixed family of evaluation points, compare every
computed value against the exact rational oracle, and return one record per
(point, method, K), so ``compK`` gives one row per K from 3 up: two per
point in condition-sweep.  root-neighborhood and condition-sweep run the
octic; cubic-compare runs the cubic, then the quartic.  The other two
runners return text lines: ``run_table_reproduction`` audits the spotlight
triangle and ``run_flop_report`` the flop counts.  Runners write nothing.
Points are constructed by plain float arithmetic, left to right, exactly as
written, and every float lands in the output as a hexadecimal literal, so
runs are byte-for-byte reproducible across machines.

The test polynomials:

* octic: (s - 1)(s - 3/4)^7, evaluated near its multiple root 3/4,
* quartic: (2s - 1)^3 (s - 1), evaluated near its triple root 1/2,
* cubic: (2s - 1)^3, for the Horner versus de Casteljau comparison.

All have exactly representable Bernstein coefficients.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from typing import NamedTuple, Sequence

from .counting import count_evaluation_flops
from .eft import sum_k
from .evaluate import comp_de_casteljau_k, flop_count, horner, leading_terms
from .oracle import (
    ConditionReport,
    _integer_row,
    bernstein_from_root_form,
    condition_number,
    exact_eval,
    relative_error,
)

U = 2.0**-53

OCTIC = bernstein_from_root_form([(1, 1), (Fraction(3, 4), 7)])
QUARTIC = bernstein_from_root_form([(Fraction(1, 2), 3), (1, 1)], scale=8)
CUBIC_BERNSTEIN = bernstein_from_root_form([(Fraction(1, 2), 3)], scale=8)
CUBIC_MONOMIAL = (-1.0, 6.0, -12.0, 8.0)

# The point where the once-compensated evaluator loses every digit of the
# quartic: its two leading terms cancel exactly while the true value is
# of order u**3.
SPOTLIGHT_S = 0.5 + 1001 * U

CSV_HEADER = ("s_hex", "s_dec", "method", "k", "value_hex", "exact_dec", "rel_err", "cond")


class CheckFailed(RuntimeError):
    """A built-in regression assertion of an experiment did not hold.

    ``report`` holds the report lines the experiment had built, if any.
    """

    def __init__(self, message: str, report: Sequence[str] = ()):
        super().__init__(message)
        self.report = list(report)


class SweepRecord(NamedTuple):
    """One CSV row: an evaluation point, a method, and its accuracy.

    ``exact`` is the oracle's value of the polynomial at ``s``.  ``rel_err``
    is the once-rounded exact relative error of ``value``, except at a root
    of the polynomial (``cond`` infinite), where it carries the absolute
    error instead.
    """

    s: float
    method: str
    k: int
    value: float
    exact: Fraction
    rel_err: float
    cond: float


# All fields spelled out, so neither DefaultContext nor the caller's context reaches
# the CSV (to_sci_string reads these capitals, str() the caller's); flags go unread.
_DECIMAL = decimal.Context(
    prec=40, rounding=decimal.ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1,
    clamp=0, flags=[], traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def _decimal_string(x: Fraction) -> str:
    return _DECIMAL.to_sci_string(
        _DECIMAL.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    )


def _record(s: float, method: str, k: int, value: float, report: ConditionReport) -> SweepRecord:
    exact = report.exact_value
    rel_err = abs(value) if exact == 0 else relative_error(value, exact)
    return SweepRecord(s, method, k, value, exact, rel_err, report.rounded_cond)


_METHODS = {1: "decasteljau", 2: "comp"}


def _rows(p: Sequence, s: float, ks: Sequence[int], report: ConditionReport) -> list[SweepRecord]:
    # One cascade serves every K: sum_k(terms[:k], k) is comp_de_casteljau_k(p, s, k).
    # The largest K's redoes the kernel's SumK (1.4% of paper-cli): no call returns value and terms.
    terms = leading_terms(p, s, max(ks))
    return [
        _record(s, _METHODS.get(k, "compK"), k, sum_k(terms[:k], k), report)
        for k in ks
    ]


def _sorted(records: list[SweepRecord]) -> list[SweepRecord]:
    records.sort(key=lambda r: (r.s, r.method, r.k))
    return records


def render_csv(records: Sequence[SweepRecord]) -> str:
    lines = [",".join(CSV_HEADER)]
    s = exact = cond = None
    for r in records:
        # A point's rows hold the same s, exact and cond objects, so the
        # columns they share are rendered once per point.
        if not (r.s is s and r.exact is exact and r.cond is cond):
            s, exact, cond = r.s, r.exact, r.cond
            where, exact_dec, cond_repr = f"{s.hex()},{s!r}", _decimal_string(exact), repr(cond)
        lines.append(
            f"{where},{r.method},{r.k},{r.value.hex()},{exact_dec},{r.rel_err!r},{cond_repr}"
        )
    return "\n".join(lines) + "\n"


def _centered_offsets(count: int) -> range:
    half = count // 2
    return range(-half, count - half)


def run_root_neighborhood(points: int = 401) -> list[SweepRecord]:
    """Sweep the octic across its multiple root at 3/4.

    Points are fl(3/4 + fl(j * 5e-8)) for j centered on zero (401 by
    default, spacing 5e-8).  Methods: plain triangle, once-compensated, and
    K=3.  Near the root the condition number blows up, so the records carry
    absolute errors in the rel_err column only at s == 3/4 itself (the lone
    exact root among the points).
    """
    records = []
    octic = _integer_row(OCTIC)
    for j in _centered_offsets(points):
        s = 0.75 + (j * 5e-8)
        records += _rows(OCTIC, s, (1, 2, 3), condition_number(octic, s))
    return _sorted(records)


def run_condition_sweep(
    k_list: Sequence[int] = (1, 2, 3, 4), points: int = 86
) -> list[SweepRecord]:
    """Walk the octic's condition number up geometrically.

    Points are fl(3/4 - 1.3**j) for j = -5 down to -90 by default; as j
    decreases the point approaches the root and the condition number grows
    by about 1.3**7 per step.  Methods are K = 1..4 by default.  The sweep
    asserts strict monotone growth of the condition number, which the
    accuracy-versus-conditioning analysis keys on.  Past 133 points the
    points run out of binary64 spacing near 3/4 and one repeats its
    predecessor; that input limit raises ValueError, not CheckFailed.
    """
    records = []
    octic = _integer_row(OCTIC)
    last_s = last_cond = None
    # power is 1.3**-j, carried from point to point by multiplication, not
    # libm pow, so the points are bit-identical everywhere.
    power = 1.3 * 1.3 * 1.3 * 1.3
    for j in range(-5, -5 - points, -1):
        power = power * 1.3
        s = 0.75 - (1.0 / power)
        if s == last_s:
            raise ValueError(
                f"point j={j} repeats its predecessor {s.hex()}: binary64 spacing "
                f"near 3/4 leaves room for only {-5 - j} distinct points"
            )
        report = condition_number(octic, s)
        if last_cond is not None and not report.cond > last_cond:
            raise CheckFailed(
                f"condition number is not strictly increasing at j={j}: "
                f"{float(report.cond)} <= {float(last_cond)}"
            )
        last_s, last_cond = s, report.cond
        records += _rows(OCTIC, s, k_list, report)
    return _sorted(records)


def run_cubic_comparison(points: int = 401) -> list[SweepRecord]:
    """Compare Horner with de Casteljau, and K=2 with K=3, near 1/2.

    Window one spans |s - 1/2| <= 2e-5 and pits Horner on the cubic's
    monomial form against the plain triangle on its Bernstein form.  Window
    two spans |s - 1/2| <= 1.5e-11 on the quartic and compares the once
    compensated evaluator with K=3.  The spotlight point 1/2 + 1001u joins
    window two with K = 2, 3 and 4 rows: the K=2 value collapses to zero
    there (relative error exactly 1) while K >= 3 stays faithful.
    """
    records = []
    cubic, quartic = _integer_row(CUBIC_BERNSTEIN), _integer_row(QUARTIC)
    for j in _centered_offsets(points):
        s = 0.5 + (j * 1e-7)
        report = condition_number(cubic, s)
        records.append(_record(s, "horner", 1, horner(CUBIC_MONOMIAL, s), report))
        records += _rows(CUBIC_BERNSTEIN, s, (1,), report)
    for j in _centered_offsets(points):
        s = 0.5 + (j * 7.5e-14)
        records += _rows(QUARTIC, s, (2, 3), condition_number(quartic, s))
    s = SPOTLIGHT_S
    records += _rows(QUARTIC, s, (2, 3, 4), condition_number(quartic, s))
    return _sorted(records)


# Closed forms for the once-compensated run on the quartic at the spotlight
# point, as exact rationals in u = 2**-53 and t = 1001 u.  Keyed (level, j);
# columns: base value, first error triangle, remaining exact residual.
def _spotlight_reference() -> dict[tuple[int, int], tuple[Fraction, Fraction, Fraction]]:
    u = Fraction(1, 2**53)
    t = 1001 * u
    return {
        (3, 0): (Fraction(1, 8) - Fraction(7, 4) * t - u / 4, u / 4, Fraction(0)),
        (3, 1): (-Fraction(1, 8) + Fraction(5, 4) * t + u / 4, -u / 4, Fraction(0)),
        (3, 2): (Fraction(1, 8) - Fraction(3, 4) * t, Fraction(0), Fraction(0)),
        (3, 3): (-Fraction(1, 8) + t / 4, Fraction(0), Fraction(0)),
        (2, 0): (-t / 2, 3 * t**2, Fraction(0)),
        (2, 1): (t / 2 + u / 8, -u / 8 - 2 * t**2, Fraction(0)),
        (2, 2): (-t / 2, t**2, Fraction(0)),
        (1, 0): (u / 16 + t**2 + 239 * u**2, -u / 16 + t**2 / 2 - 239 * u**2, -5 * t**3),
        (1, 1): (u / 16 - t**2 - 239 * u**2, -u / 16 - t**2 / 2 + 239 * u**2, 3 * t**3),
        (0, 0): (u / 16, -u / 16, -4 * t**3 + 8 * t**4),
    }


def run_table_reproduction() -> list[str]:
    """Audit every triangle entry of the once-compensated quartic run.

    Entry (level, j) of a triangle is the apex of its sub-row's triangle,
    so it is read from the ``leading_terms`` of ``QUARTIC[j : j + n -
    level + 1]`` at the spotlight point.  Each base and error-triangle
    value, and the exact leftover residual, is checked against its closed
    form.  Asserted: the final base value is 2**-57, its correction is
    -2**-57, their sum (the K=2 result) is exactly 0, and the true value
    is -4t**3 + 8t**4 with t = 1001u.
    """
    s = SPOTLIGHT_S
    n = len(QUARTIC) - 1
    result = comp_de_casteljau_k(QUARTIC, s, 2)
    reference = _spotlight_reference()

    lines = [
        "once-compensated triangle audit: quartic (2s-1)^3 (s-1) at s = 1/2 + 1001u",
        f"s = {s.hex()} ({s!r})",
        "level j  base_hex               err1_hex               base_ok err1_ok resid_ok",
    ]
    failures = []
    for level in range(n - 1, -1, -1):
        for j in range(level + 1):
            sub_row = QUARTIC[j : j + n - level + 1]
            base, err1 = leading_terms(sub_row, s, 2)
            want_base, want_err1, want_resid = reference[(level, j)]
            exact = exact_eval(sub_row, s)
            resid = exact - Fraction(base) - Fraction(err1)
            ok_b = Fraction(base) == want_base
            ok_e = Fraction(err1) == want_err1
            ok_r = resid == want_resid
            lines.append(
                f"{level:5d} {j}  {base.hex():22s} {err1.hex():22s} "
                f"{str(ok_b):7s} {str(ok_e):7s} {str(ok_r)}"
            )
            if not (ok_b and ok_e and ok_r):
                failures.append((level, j))

    # The audit ends at entry (0, 0), the whole quartic: base, err1 and
    # exact are its values.
    u = Fraction(1, 2**53)
    t = 1001 * u
    checks = [
        ("final base value is 2**-57", Fraction(base) == u / 16),
        ("final correction is -2**-57", Fraction(err1) == -u / 16),
        ("K=2 result is exactly 0", result == 0.0),
        ("exact value is -4t^3 + 8t^4", exact == -4 * t**3 + 8 * t**4),
    ]
    for label, ok in checks:
        lines.append(f"check: {label}: {ok}")
        if not ok:
            failures.append(label)
    lines.append(f"entries audited: {len(reference)}; mismatches: {len(failures)}")
    if failures:
        raise CheckFailed(f"triangle audit mismatches: {failures}", lines)
    return lines


def run_flop_report(k_list: Sequence[int] = (1, 2, 3, 4, 5)) -> list[str]:
    """Compare closed-form flop counts with instrumented runs.

    Covers degrees 2..8 and K in ``k_list`` (1..5 by default).
    Every mismatch fails with the full per-operation ledger.  Also reports
    the cost of the final K-term compensated sum and the savings a fused
    multiply-add variant of the product transform would bring.
    """
    lines = ["   n   k    formula  instrumented  match"]
    mismatches = []
    for n in range(2, 9):
        coeffs = [(-1.0) ** j for j in range(n + 1)]
        for k in k_list:
            expected = flop_count(n, k)
            _, counter = count_evaluation_flops(coeffs, 0.75, k)
            ok = counter.total == expected
            lines.append(f"{n:4d} {k:3d} {expected:10d} {counter.total:13d}  {ok}")
            if not ok:
                mismatches.append((n, k, expected, counter.ledger()))
    lines.append("")
    lines.append("final-sum cost (6k-5)(k-1) and fma savings 15(3k-4)T_n per degree:")
    for k in k_list:
        if k < 2:
            continue
        sumk_cost = (6 * k - 5) * (k - 1)
        savings = ", ".join(
            f"n={n}: {15 * (3 * k - 4) * (n * (n + 1) // 2)}" for n in range(2, 9)
        )
        lines.append(f"  k={k}: final sum {sumk_cost} flops; fma would save {savings}")
    if mismatches:
        detail = "; ".join(
            f"n={n} k={k} expected {exp} got [{ledger}]" for n, k, exp, ledger in mismatches
        )
        raise CheckFailed(f"instrumented flop counts deviate: {detail}", lines)
    return lines
