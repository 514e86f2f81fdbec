"""Exact rational ground truth for Bernstein-form evaluation.

Every coefficient and point is taken as an exact rational: every finite
binary64 value is a dyadic rational m * 2**e, so the conversion is exact.
A polynomial, any nonempty iterable of numbers, is read once into one
integer row: the terms N_j * C(n, j), with the coefficients scaled to
integers N_j over their common denominator L; a caller may build it once and
pass it in.  At s = a/q one pass on plain ints gives L * q**n * p(s), the
homogeneous Bernstein sum of N_j * C(n, j) * a**j * (q - a)**(n - j), taken
Horner-style in a; p_tilde(s) shares every term.  It is the integer the
de Casteljau triangle gives, in O(n) steps instead of O(n**2), and one gcd
at the end reduces it over L * q**n to an exact ``Fraction``.  Rounding
happens at most once per reported quantity, when a rational result is turned
back into a float.  ``condition_number`` returns a ``ConditionReport`` named
tuple: p(s), cond and its rounding.  Away from a root p_tilde(s) is
cond * abs(p(s)), and ``p_tilde`` gives it anywhere in [0, 1].

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
from typing import Iterable, NamedTuple, Sequence, Union

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


class _IntegerRow(NamedTuple):
    """A polynomial as integer terms N_j * C(n, j) over one denominator L."""

    terms: tuple[int, ...]
    denominator: int


def _integer_row(p: Union[Iterable[RationalLike], _IntegerRow]) -> _IntegerRow:
    """The one place the oracle converts and checks coefficients.

    L is the lcm of the coefficients' denominators, a power of two for
    floats.  A row passed back in is returned unchanged, so a caller that
    judges one polynomial at many points converts it once.
    """
    if type(p) is _IntegerRow:
        return p
    ratios = [_ratio(c) for c in p]
    if not ratios:
        raise ValueError("polynomial needs at least one coefficient")
    common = math.lcm(*(d for _, d in ratios))
    n = len(ratios) - 1
    terms = (m * (common // d) * math.comb(n, j) for j, (m, d) in enumerate(ratios))
    return _IntegerRow(tuple(terms), common)


def _scaled_sums(a: int, q: int, row: _IntegerRow) -> tuple[int, int, int]:
    """p(s) and p_tilde(s) at s = a/q, as exact numerators over L * q**n.

    s comes first, so callers check it before the coefficients.
    """
    terms, common = row
    b = q - a
    value = tilde = 0
    power = 1
    for term in reversed(terms):
        term *= power
        value = value * a + term
        tilde = tilde * a + abs(term)
        power *= b
    return value, tilde, common * q ** (len(terms) - 1)


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
    cond: Union[Fraction, float]
    rounded_cond: float


def exact_eval(p: Iterable[RationalLike], s: RationalLike) -> Fraction:
    """p(s) by the homogeneous Bernstein sum in exact integer arithmetic."""
    value, _, denominator = _scaled_sums(*_ratio(s), _integer_row(p))
    return Fraction(value, denominator)


def p_tilde(p: Iterable[RationalLike], s: RationalLike) -> Fraction:
    """The conditioning numerator: sum of abs(b_j) times the basis at s.

    Only defined here for s in [0, 1], where the basis functions are
    nonnegative.
    """
    _, tilde, denominator = _scaled_sums(*_unit_point(s, "p_tilde"), _integer_row(p))
    return Fraction(tilde, denominator)


def condition_number(p: Iterable[RationalLike], s: RationalLike) -> ConditionReport:
    """Relative condition number of evaluating p at s, with exact parts.

    cond = p_tilde(s) / abs(p(s)); at a root of p this is reported as
    infinity.  Finite values are always >= 1, and equal 1 exactly when all
    coefficients share one sign.  Both sums come from one integer pass,
    over one denominator, which cond's ratio cancels.
    """
    scaled_value, scaled_tilde, denominator = _scaled_sums(
        *_unit_point(s, "condition_number"), _integer_row(p)
    )
    cond: Union[Fraction, float] = math.inf  # at a root
    if scaled_value:
        cond = Fraction(scaled_tilde, abs(scaled_value))
    return ConditionReport(Fraction(scaled_value, denominator), cond, nearest_float(cond))


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
