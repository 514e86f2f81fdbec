"""Polynomial evaluation in Bernstein form by the de Casteljau recurrence.

Two triangle evaluators live here.  ``de_casteljau`` is the plain
convex-combination triangle.  ``comp_de_casteljau_k`` runs the same triangle
but uses error-free transformations to capture the rounding error of every
update and propagates those errors through K - 1 further triangles: the
rounding errors of error triangle F become the input data of triangle F+1,
and the K leading values are combined with a K-fold compensated sum.  The
result behaves as if computed in K times the working precision; K = 2 is
the classic once-compensated algorithm.

A plain Horner evaluator for monomial-basis input is included for accuracy
comparisons, along with the closed-form flop counts of each variant.

All update loops keep a strict operation order (products of the complement
term last) and must not be re-associated; the error analysis depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .eft import sum_k, two_prod, two_sum


def _finite_coeffs(coeffs: Sequence[float], kind: str) -> tuple[float, ...]:
    vals = tuple(x if isinstance(x, float) else float(x) for x in coeffs)
    if not vals:
        raise ValueError(f"{kind} needs at least one coefficient")
    if not all(math.isfinite(x) for x in vals):
        raise ValueError(f"{kind} coefficients must be finite")
    return vals


@dataclass(frozen=True)
class BernsteinPoly:
    """Coefficients b_0..b_n of p(s) = sum_j b_j * C(n,j) (1-s)^(n-j) s^j."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        object.__setattr__(self, "coeffs", _finite_coeffs(coeffs, "BernsteinPoly"))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class MonomialPoly:
    """Coefficients a_0..a_n of p(s) = sum_i a_i s^i."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        object.__setattr__(self, "coeffs", _finite_coeffs(coeffs, "MonomialPoly"))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class CompensationTrace:
    """Full state of a K-fold compensated evaluation, for auditing.

    ``base_triangle[k][j]`` is the computed value at level k (level n is the
    input row, level 0 the single final value).  ``error_triangles[f][k][j]``
    is error triangle F = f + 1 at the same site; row n of every error
    triangle is identically zero.  ``r_hat + rho == 1 - s`` exactly.
    """

    base_triangle: tuple[tuple[float, ...], ...]
    error_triangles: tuple[tuple[tuple[float, ...], ...], ...]
    r_hat: float
    rho: float


PolyLike = Union[BernsteinPoly, Sequence[float]]


def _bernstein(p: PolyLike) -> BernsteinPoly:
    return p if isinstance(p, BernsteinPoly) else BernsteinPoly(p)


def _zero_like(x: float) -> float:
    # Error triangles start as genuine zeros.  Derive them from s so that an
    # instrumenting float subclass sees every operation they later enter.
    maker = getattr(x, "zero_like", None)
    return maker() if maker is not None else 0.0


def _check_point(s: float) -> None:
    if not math.isfinite(s):
        raise ValueError(f"evaluation point s must be finite, got {s!r}")


def _check_result(result: float, k: int) -> float:
    # Coefficients and s are finite, and inf or nan never cancels out of the
    # triangles, so a non-finite result means some intermediate overflowed.
    if not math.isfinite(result):
        limit = "; split needs every product operand below 2**996" if k >= 2 else ""
        raise OverflowError(f"K={k} evaluation overflowed the float range{limit}")
    return result


def de_casteljau(p: PolyLike, s: float) -> float:
    """Evaluate a Bernstein-form polynomial by repeated convex combination.

    Runs the plain triangle with r = fl(1 - s): 3*T_n + 1 flops for degree n
    (T_n the n-th triangular number).  For s in [0, 1] the absolute error is
    at most g(3n) * ptilde(s) where g(m) = m*u/(1 - m*u) and ptilde sums the
    absolute coefficients against the basis.  Raises ValueError for a
    non-finite s, and OverflowError when an intermediate leaves the float
    range.
    """
    coeffs = _bernstein(p).coeffs
    _check_point(s)
    r = 1.0 - s
    row = list(coeffs)
    for level in range(len(row) - 2, -1, -1):
        row = [(r * row[j]) + (s * row[j + 1]) for j in range(level + 1)]
    return _check_result(row[0], 1)


def local_error_eft(
    e: Sequence[float], rho: float, delta_b: float
) -> tuple[list[float], float]:
    """Accumulate a local error term, capturing every new rounding error.

    Computes l_hat = fl(e_1 + ... + e_m + rho * delta_b) by a chain of
    two_sum steps plus one two_prod, returning ``(eta, l_hat)`` where eta
    holds the m + 1 fresh residuals in production order, so that
    l_hat + sum(eta) == sum(e) + rho * delta_b exactly.
    """
    if len(e) < 2:
        raise ValueError("local error accumulation needs at least two terms")
    eta = []
    l_hat, t = two_sum(e[0], e[1])
    eta.append(t)
    for j in range(2, len(e)):
        l_hat, t = two_sum(l_hat, e[j])
        eta.append(t)
    prod, t = two_prod(rho, delta_b)
    eta.append(t)
    l_hat, t = two_sum(l_hat, prod)
    eta.append(t)
    return eta, l_hat


def local_error(e: Sequence[float], rho: float, delta_b: float) -> float:
    """Same accumulation order as :func:`local_error_eft`, residuals dropped."""
    if len(e) < 2:
        raise ValueError("local error accumulation needs at least two terms")
    l_hat = e[0] + e[1]
    for j in range(2, len(e)):
        l_hat = l_hat + e[j]
    return l_hat + (rho * delta_b)


def comp_de_casteljau_k(
    p: PolyLike, s: float, k: int, capture: bool = False
) -> Union[float, tuple[float, CompensationTrace]]:
    """de Casteljau compensated to K-fold working precision.

    ``k=1`` is the plain triangle and ``k=2`` the classic compensated form
    (with the two leading terms combined by sum_k, which coincides bitwise
    with their plain sum).  For larger k, stages 1..k-2 capture their own
    rounding errors with EFTs and hand them down the cascade; the last stage
    accumulates without capture.  The relative error stays near u until
    cond(p, s) reaches about u**-(k-1).

    With ``capture=True`` (k >= 2 only) also returns the full triangle state
    as a :class:`CompensationTrace`.

    Raises ValueError for a non-finite s.  An intermediate beyond the float
    range (for k >= 2 also beyond |x| < 2**996, which ``split`` needs) makes
    the result non-finite, and that is raised as OverflowError rather than
    returned.
    """
    poly = _bernstein(p)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if k == 1:
        if capture:
            raise ValueError("capture requires k >= 2; k=1 has no error triangles")
        return de_casteljau(poly, s)

    _check_point(s)
    n = poly.degree
    r_hat, rho = two_sum(1.0, -s)
    zero = _zero_like(s)
    base = list(poly.coeffs)
    errs = [[zero] * (n + 1) for _ in range(k - 1)]
    if capture:
        base_levels = [tuple(base)]
        err_levels = [[tuple(tri)] for tri in errs]

    for level in range(n - 1, -1, -1):
        new_base = []
        new_errs = [[] for _ in range(k - 1)]
        for j in range(level + 1):
            pr, pr_err = two_prod(r_hat, base[j])
            ps, ps_err = two_prod(s, base[j + 1])
            value, sigma = two_sum(pr, ps)
            new_base.append(value)
            e = [pr_err, ps_err, sigma]
            delta_b = base[j]
            for f in range(k - 2):
                eta, l_hat = local_error_eft(e, rho, delta_b)
                ps2, t1 = two_prod(s, errs[f][j + 1])
                part, t2 = two_sum(l_hat, ps2)
                pr2, t3 = two_prod(r_hat, errs[f][j])
                updated, t4 = two_sum(part, pr2)
                eta.extend((t1, t2, t3, t4))
                new_errs[f].append(updated)
                e = eta
                delta_b = errs[f][j]
            l_hat = local_error(e, rho, delta_b)
            last = k - 2
            new_errs[last].append(
                l_hat + (s * errs[last][j + 1]) + (r_hat * errs[last][j])
            )
        base = new_base
        errs = new_errs
        if capture:
            base_levels.append(tuple(base))
            for f in range(k - 1):
                err_levels[f].append(tuple(errs[f]))

    result = _check_result(sum_k([base[0]] + [errs[f][0] for f in range(k - 1)], k), k)
    if not capture:
        return result
    # Levels were appended n down to 0; store them indexed by level.
    trace = CompensationTrace(
        base_triangle=tuple(reversed(base_levels)),
        error_triangles=tuple(tuple(reversed(lv)) for lv in err_levels),
        r_hat=r_hat,
        rho=rho,
    )
    return result, trace


def horner(p: Union[MonomialPoly, Sequence[float]], s: float) -> float:
    """Evaluate a monomial-basis polynomial by Horner's rule."""
    poly = p if isinstance(p, MonomialPoly) else MonomialPoly(p)
    coeffs = poly.coeffs
    result = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        result = (result * s) + coeffs[i]
    return result


def flop_count(n: int, k: int) -> int:
    """Floating point operations used by ``comp_de_casteljau_k`` at degree n.

    The plain triangle (k=1) costs 3*T_n + 1.  For k >= 2 the cascade costs
    (15k**2 + 11k - 34)*T_n + 6k**2 - 11k + 11, counting the split-based
    product transform at 17 flops and the final k-term compensated sum.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    t_n = n * (n + 1) // 2
    if k == 1:
        return 3 * t_n + 1
    return (15 * k * k + 11 * k - 34) * t_n + 6 * k * k - 11 * k + 11
