"""Exact rational ground truth for Bernstein-form evaluation.

Every coefficient and point is taken as an exact rational: every finite
binary64 value is a dyadic rational m * 2**e, so the conversion is exact.
The de Casteljau triangles run on plain Python ints: the coefficients are
scaled to integers over their common denominator L, and s = a/q turns each
step r*x + s*y into (q - a)*x + a*y.  The result N over L * q**n is one
exact ``Fraction``, reduced by a single gcd at the end instead of one per
step.  Rounding happens at most once per reported quantity, when a rational
result is turned back into a float for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[int, float, Fraction]


def nearest_float(x: Fraction) -> float:
    """Round an exact rational to the nearest binary64 (ties to even)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _ratio(x: RationalLike) -> tuple[int, int]:
    """x as (numerator, denominator) in lowest terms, denominator > 0.

    Every oracle input passes here, so inf and nan raise one ValueError.
    """
    try:
        # A float gives its ratio directly, without building a Fraction.
        if type(x) is float:
            return x.as_integer_ratio()
        return Fraction(x).as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError(f"the oracle needs finite numbers, got {x!r}") from None


def _coefficients(p: Sequence[RationalLike]) -> list[Fraction]:
    if len(p) == 0:
        raise ValueError("polynomial needs at least one coefficient")
    return [Fraction(*_ratio(c)) for c in p]


def _integer_row(p: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Integers N_j and their common denominator L with b_j = N_j / L.

    L is the lcm of the coefficients' denominators, a power of two for
    float coefficients.
    """
    if len(p) == 0:
        raise ValueError("polynomial needs at least one coefficient")
    ratios = [_ratio(c) for c in p]
    common = math.lcm(*(d for _, d in ratios))
    return [n * (common // d) for n, d in ratios], common


def _triangle(row: list[int], a: int, q: int) -> int:
    """q**n times the de Casteljau value of ``row`` at s = a/q, exactly.

    Each step r*x + s*y with r = 1 - s is scaled by q to (q - a)*x + a*y,
    so every entry stays an integer.  Overwrites ``row``.
    """
    b = q - a
    for level in range(len(row) - 1, 0, -1):
        for j in range(level):
            row[j] = b * row[j] + a * row[j + 1]
    return row[0]


def _unit_point(s: RationalLike, caller: str) -> tuple[int, int]:
    a, q = _ratio(s)
    if not 0 <= a <= q:
        raise ValueError(f"{caller} requires s in [0, 1], got {s!r}")
    return a, q


@dataclass(frozen=True)
class ConditionReport:
    """Exact evaluation data at one point.

    ``cond`` is p_tilde / abs(p(s)) as an exact rational, or ``math.inf``
    when the point is a root; ``rounded_cond`` is its float rendering.
    """

    exact_value: Fraction
    p_tilde: Fraction
    cond: Union[Fraction, float]
    rounded_cond: float


def exact_eval(p: Sequence[RationalLike], s: RationalLike) -> Fraction:
    """p(s) by the de Casteljau recurrence in exact integer arithmetic."""
    row, common = _integer_row(p)
    a, q = _ratio(s)
    return Fraction(_triangle(row, a, q), common * q ** (len(row) - 1))


def exact_eval_basis(p: Sequence[RationalLike], s: RationalLike) -> Fraction:
    """p(s) by direct basis summation; an independent check of exact_eval."""
    coeffs = _coefficients(p)
    n = len(coeffs) - 1
    sf = Fraction(*_ratio(s))
    r = 1 - sf
    return sum(
        coeffs[j] * math.comb(n, j) * r ** (n - j) * sf**j for j in range(n + 1)
    )


def p_tilde(p: Sequence[RationalLike], s: RationalLike) -> Fraction:
    """The conditioning numerator: sum of abs(b_j) times the basis at s.

    Only defined here for s in [0, 1], where the basis functions are
    nonnegative.
    """
    a, q = _unit_point(s, "p_tilde")
    row, common = _integer_row(p)
    tilde_row = [abs(x) for x in row]
    return Fraction(_triangle(tilde_row, a, q), common * q ** (len(row) - 1))


def condition_number(p: Sequence[RationalLike], s: RationalLike) -> ConditionReport:
    """Relative condition number of evaluating p at s, with exact parts.

    cond = p_tilde(s) / abs(p(s)); at a root of p this is reported as
    infinity.  Finite values are always >= 1, and equal 1 exactly when all
    coefficients share one sign.  Both triangles run on one integer row,
    over one denominator, which cond's ratio cancels.
    """
    a, q = _unit_point(s, "condition_number")
    row, common = _integer_row(p)
    tilde_row = [abs(x) for x in row]
    denominator = common * q ** (len(row) - 1)
    scaled_tilde = _triangle(tilde_row, a, q)
    scaled_value = _triangle(row, a, q)
    if scaled_value == 0:
        cond: Union[Fraction, float] = math.inf
        rounded = math.inf
    else:
        cond = Fraction(scaled_tilde, abs(scaled_value))
        rounded = nearest_float(cond)
    return ConditionReport(
        exact_value=Fraction(scaled_value, denominator),
        p_tilde=Fraction(scaled_tilde, denominator),
        cond=cond,
        rounded_cond=rounded,
    )


def relative_error(computed: float, exact: Fraction) -> float:
    """abs(computed - exact) / abs(exact), exactly, rounded once at the end.

    With computed = cn/cd and exact = en/ed this is the integer ratio
    |cn*ed - en*cd| / |en*cd|, and int true division rounds it correctly;
    a ratio past the float range gives ``math.inf``.  Raises
    ZeroDivisionError when ``exact`` is zero; report an absolute error
    instead in that case.
    """
    if exact == 0:
        raise ZeroDivisionError("exact value is zero; relative error undefined")
    cn, cd = _ratio(computed)
    en, ed = _ratio(exact)
    try:
        return abs(cn * ed - en * cd) / abs(en * cd)
    except OverflowError:
        return math.inf


def bernstein_from_root_form(
    linear_factors: Sequence[tuple[RationalLike, int]], scale: RationalLike = 1
) -> tuple[float, ...]:
    """Bernstein coefficients of scale * product of (s - root)^multiplicity.

    Expands the factors exactly in the monomial basis, then converts with
    b_j = sum_{i<=j} [C(j,i)/C(n,i)] a_i.  An empty factor list yields the
    constant polynomial ``scale``.  Raises ValueError, naming the index, for
    a factor whose multiplicity is not a positive int, and for a Bernstein
    coefficient that is not exactly representable in binary64.
    """
    monomial = [Fraction(scale)]
    for index, (root, multiplicity) in enumerate(linear_factors):
        if type(multiplicity) is not int or multiplicity < 1:
            raise ValueError(
                f"factor {index} has multiplicity {multiplicity!r}; "
                "it must be a positive integer"
            )
        rf = Fraction(root)
        for _ in range(multiplicity):
            shifted = [-rf * c for c in monomial] + [Fraction(0)]
            for i in range(1, len(monomial) + 1):
                shifted[i] += monomial[i - 1]
            monomial = shifted
    n = len(monomial) - 1
    floats = []
    for j in range(n + 1):
        b_j = sum(
            Fraction(math.comb(j, i), math.comb(n, i)) * monomial[i]
            for i in range(j + 1)
        )
        value = nearest_float(b_j)
        if not math.isfinite(value) or Fraction(value) != b_j:
            raise ValueError(
                f"Bernstein coefficient {j} = {b_j} is not exactly "
                "representable in binary64"
            )
        floats.append(value)
    return tuple(floats)
