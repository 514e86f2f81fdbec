"""Exact rational ground truth for Bernstein-form evaluation.

Every finite binary64 value is a dyadic rational, so converting inputs with
``fractions.Fraction`` is exact and all arithmetic here is exact.  Rounding
happens at most once per reported quantity, when a rational result is turned
back into a float for display.
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


def _coefficients(p: Sequence[RationalLike]) -> list[Fraction]:
    if len(p) == 0:
        raise ValueError("polynomial needs at least one coefficient")
    return [Fraction(c) for c in p]


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
    """p(s) by the de Casteljau recurrence in exact rational arithmetic."""
    row = _coefficients(p)
    sf = Fraction(s)
    r = 1 - sf
    while len(row) > 1:
        row = [r * row[j] + sf * row[j + 1] for j in range(len(row) - 1)]
    return row[0]


def exact_eval_basis(p: Sequence[RationalLike], s: RationalLike) -> Fraction:
    """p(s) by direct basis summation; an independent check of exact_eval."""
    coeffs = _coefficients(p)
    n = len(coeffs) - 1
    sf = Fraction(s)
    r = 1 - sf
    return sum(
        coeffs[j] * math.comb(n, j) * r ** (n - j) * sf**j for j in range(n + 1)
    )


def p_tilde(p: Sequence[RationalLike], s: RationalLike) -> Fraction:
    """The conditioning numerator: sum of abs(b_j) times the basis at s.

    Only defined here for s in [0, 1], where the basis functions are
    nonnegative.
    """
    sf = Fraction(s)
    if not 0 <= sf <= 1:
        raise ValueError(f"p_tilde requires s in [0, 1], got {float(sf)}")
    return exact_eval([abs(c) for c in _coefficients(p)], sf)


def condition_number(p: Sequence[RationalLike], s: RationalLike) -> ConditionReport:
    """Relative condition number of evaluating p at s, with exact parts.

    cond = p_tilde(s) / abs(p(s)); at a root of p this is reported as
    infinity.  Finite values are always >= 1, and equal 1 exactly when all
    coefficients share one sign.
    """
    sf = Fraction(s)
    if not 0 <= sf <= 1:
        raise ValueError(f"condition_number requires s in [0, 1], got {float(sf)}")
    value = exact_eval(p, sf)
    tilde = p_tilde(p, sf)
    if value == 0:
        cond: Union[Fraction, float] = math.inf
        rounded = math.inf
    else:
        cond = tilde / abs(value)
        rounded = nearest_float(cond)
    return ConditionReport(
        exact_value=value, p_tilde=tilde, cond=cond, rounded_cond=rounded
    )


def relative_error(computed: float, exact: Fraction) -> float:
    """abs(computed - exact) / abs(exact), exactly, rounded once at the end.

    Raises ZeroDivisionError when ``exact`` is zero; report an absolute
    error instead in that case.
    """
    if exact == 0:
        raise ZeroDivisionError("exact value is zero; relative error undefined")
    return nearest_float(abs(Fraction(computed) - exact) / abs(exact))


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
        if not isinstance(multiplicity, int) or multiplicity < 1:
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
