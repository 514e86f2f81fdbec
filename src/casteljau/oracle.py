"""Exact rational ground truth for Bernstein-form evaluation.

Every coefficient and point is taken as an exact rational: every finite
binary64 value is a dyadic rational m * 2**e, so the conversion is exact.
Evaluation is one pass on plain Python ints: with the coefficients scaled to
integers N_j over their common denominator L and s = a/q, L * q**n * p(s) is
the homogeneous Bernstein sum of N_j * C(n, j) * a**j * (q - a)**(n - j),
taken Horner-style in a; p_tilde(s) shares every term.  It is the integer
the de Casteljau triangle gives, in O(n) steps instead of O(n**2), and one
gcd at the end reduces it over L * q**n to an exact ``Fraction``.  Rounding
happens at most once per reported quantity, when a rational result is turned
back into a float for display.  ``condition_number`` returns a
``ConditionReport`` named tuple.

``bernstein_from_root_form`` builds test polynomials on ints too: it expands
the root form as one integer polynomial over one denominator and takes each
Bernstein coefficient through the identity C(j, i) / C(n, i) =
C(n - i, j - i) / C(n, j), so each needs one int true division and one
cross-multiplication to prove it exact; a ``Fraction`` is built only for a
refusal message.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

RationalLike = Union[int, float, Fraction]


def nearest_float(x: Fraction) -> float:
    """Round an exact rational to the nearest binary64 (ties to even)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _ratio(x: RationalLike) -> tuple[int, int]:
    """x as (numerator, denominator) in lowest terms, denominator > 0.

    Every oracle input passes here, so inf and nan raise one ValueError,
    and a string, which ``Fraction`` would parse, one TypeError.
    """
    try:
        # A float or Fraction gives its ratio directly, without a new Fraction.
        if type(x) is float:
            return x.as_integer_ratio()
        if type(x) is Fraction:
            return x.numerator, x.denominator
        if isinstance(x, (str, bytes, bytearray)):
            raise TypeError(f"the oracle needs numbers, got {x!r}")
        return Fraction(x).as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError(f"the oracle needs finite numbers, got {x!r}") from None


def _coefficients(p: Sequence[RationalLike]) -> list[Fraction]:
    if len(p) == 0:
        raise ValueError("polynomial needs at least one coefficient")
    return [Fraction(*_ratio(c)) for c in p]


def _scaled_sums(p: Sequence[RationalLike], a: int, q: int) -> tuple[int, int, int]:
    """p(s) and p_tilde(s) at s = a/q, as exact numerators over one denominator.

    L is the lcm of the coefficients' denominators, a power of two for
    floats.  The power of q - a runs up as j runs down; Horner supplies a**j.
    """
    if len(p) == 0:
        raise ValueError("polynomial needs at least one coefficient")
    ratios = [_ratio(c) for c in p]
    common = math.lcm(*(d for _, d in ratios))
    n = len(ratios) - 1
    b = q - a
    value = tilde = 0
    power = 1
    for j in range(n, -1, -1):
        numerator, denominator = ratios[j]
        term = numerator * (common // denominator) * math.comb(n, j) * power
        value = value * a + term
        tilde = tilde * a + abs(term)
        power *= b
    return value, tilde, common * q**n


def _unit_point(s: RationalLike, caller: str) -> tuple[int, int]:
    a, q = _ratio(s)
    if not 0 <= a <= q:
        raise ValueError(f"{caller} requires s in [0, 1], got {s!r}")
    return a, q


class ConditionReport(NamedTuple):
    """Exact evaluation data at one point.

    ``cond`` is p_tilde / abs(p(s)) as an exact rational, or ``math.inf``
    when the point is a root; ``rounded_cond`` is its float rendering.
    """

    exact_value: Fraction
    p_tilde: Fraction
    cond: Union[Fraction, float]
    rounded_cond: float


def exact_eval(p: Sequence[RationalLike], s: RationalLike) -> Fraction:
    """p(s) by the homogeneous Bernstein sum in exact integer arithmetic."""
    value, _, denominator = _scaled_sums(p, *_ratio(s))
    return Fraction(value, denominator)


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
    _, tilde, denominator = _scaled_sums(p, *_unit_point(s, "p_tilde"))
    return Fraction(tilde, denominator)


def condition_number(p: Sequence[RationalLike], s: RationalLike) -> ConditionReport:
    """Relative condition number of evaluating p at s, with exact parts.

    cond = p_tilde(s) / abs(p(s)); at a root of p this is reported as
    infinity.  Finite values are always >= 1, and equal 1 exactly when all
    coefficients share one sign.  Both sums come from one integer pass,
    over one denominator, which cond's ratio cancels.
    """
    scaled_value, scaled_tilde, denominator = _scaled_sums(
        p, *_unit_point(s, "condition_number")
    )
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

    With scale = c/d and each root a/b, expands the integer polynomial
    A(s) = c * product of (b*s - a)^multiplicity, whose denominator is
    D = d * product of b^multiplicity, and takes each coefficient from
    C(n, j) * b_j = sum_{i<=j} C(n-i, j-i) * A_i / D, rounded by one int
    true division.  An empty factor list yields the constant polynomial
    ``scale``.  Raises ValueError, naming the index, for a factor whose
    multiplicity is not a positive int, and for a Bernstein coefficient that
    is not exactly representable in binary64.
    """
    numerator, denominator = _ratio(scale)
    monomial = [numerator]
    for index, (root, multiplicity) in enumerate(linear_factors):
        if type(multiplicity) is not int or multiplicity < 1:
            raise ValueError(
                f"factor {index} has multiplicity {multiplicity!r}; "
                "it must be a positive integer"
            )
        a, b = _ratio(root)
        denominator *= b**multiplicity
        for _ in range(multiplicity):
            shifted = [-a * c for c in monomial] + [0]
            for i, c in enumerate(monomial):
                shifted[i + 1] += b * c
            monomial = shifted
    n = len(monomial) - 1
    floats = []
    for j in range(n + 1):
        scaled = sum(math.comb(n - i, j - i) * monomial[i] for i in range(j + 1))
        exact_denominator = denominator * math.comb(n, j)
        try:
            value = scaled / exact_denominator
        except OverflowError:  # past the float range
            exact = False
        else:
            value_numerator, value_denominator = value.as_integer_ratio()
            exact = value_numerator * exact_denominator == scaled * value_denominator
        if not exact:
            raise ValueError(
                f"Bernstein coefficient {j} = {Fraction(scaled, exact_denominator)} "
                "is not exactly representable in binary64"
            )
        floats.append(value)
    return tuple(floats)
