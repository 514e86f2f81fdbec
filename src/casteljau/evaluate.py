"""Polynomial evaluation in Bernstein form by the de Casteljau recurrence.

One triangle kernel lives here, ``leading_terms``.  At K = 1 it is the
plain convex-combination triangle and returns its apex.  For K >= 2 it runs
the same triangle but uses error-free transformations to capture the
rounding error of every update and propagates those errors through K - 1
further triangles: the rounding errors of error triangle F become the input
data of triangle F+1.  It returns the K leading values, the apexes of the
base triangle and of the K - 1 error triangles.  ``comp_de_casteljau_k``
is their K-fold compensated sum, ``sum_k(leading_terms(p, s, k), k)``,
which behaves as if computed in K times the working precision; K = 2 is
the classic once-compensated algorithm.  A triangle entry (level, j) is
the apex of the triangle of its sub-row ``p[j : j + n - level + 1]``, so
no triangle is kept.

A plain Horner evaluator for monomial-basis input is included for accuracy
comparisons, along with the closed-form flop counts of each K.

A polynomial is a plain sequence of coefficients.  The point s is checked
up front; the coefficients only when a leading term is not finite, since
finite terms prove them finite.

All update loops keep a strict operation order (products of the complement
term last) and must not be re-associated; the error analysis depends on it.
"""

from __future__ import annotations

import math
from typing import Sequence

from .eft import sum_k, two_prod, two_sum


def _number(c: object, name: str) -> float:
    if isinstance(c, (str, bytes, bytearray)):
        raise TypeError(f"{name} coefficients must be numbers, got {c!r}")
    return float(c)


def _coefficients(p: Sequence[float], name: str) -> list[float]:
    # Float subclasses such as CountingFloat pass unchanged; other numbers
    # become the nearest float, and text, which float() would parse, is refused.
    row = [c if isinstance(c, float) else _number(c, name) for c in p]
    if not row:
        raise ValueError(f"{name} needs at least one coefficient")
    return row


def _zero_like(x: float) -> float:
    # Error triangles start as genuine zeros.  Derive them from s so that an
    # instrumenting float subclass sees every operation they later enter.
    maker = getattr(x, "zero_like", None)
    return maker() if maker is not None else 0.0


def _check_point(s: float) -> None:
    if not math.isfinite(s):
        raise ValueError(f"evaluation point s must be finite, got {s!r}")


def _check_result(
    result: float, coeffs: Sequence[float], name: str, label: str, limit: str = ""
) -> float:
    # s is checked up front, and every coefficient reaches the result through
    # +, - and * alone, which never turn inf or nan back into a finite value
    # (even 0 * inf is nan).  So a finite result proves every coefficient
    # finite, and only a non-finite one needs the O(n) scan: it comes either
    # from a non-finite coefficient or from an intermediate that overflowed.
    if math.isfinite(result):
        return result
    if not all(math.isfinite(c) for c in coeffs):
        raise ValueError(f"{name} coefficients must be finite")
    raise OverflowError(f"{label} evaluation overflowed the float range{limit}")


def leading_terms(p: Sequence[float], s: float, k: int) -> tuple[float, ...]:
    """The K leading values of the K-fold compensated de Casteljau cascade.

    ``k=1`` gives the apex of the plain triangle, repeated convex
    combination with r = fl(1 - s).  For k >= 2, stages 1..k-2 capture
    their own rounding errors with EFTs and hand them down the cascade, and
    the last stage accumulates without capture.  The terms are the apex of
    the base triangle, then those of the k - 1 error triangles.  Checks and
    raises as :func:`comp_de_casteljau_k` does, under that name: a
    non-finite term is a non-finite coefficient or an overflow.
    """
    coeffs = _coefficients(p, "comp_de_casteljau_k")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    _check_point(s)
    if k == 1:
        r = 1.0 - s
        row = coeffs
        for level in range(len(row) - 2, -1, -1):
            row = [(r * row[j]) + (s * row[j + 1]) for j in range(level + 1)]
        return (_check_result(row[0], coeffs, "comp_de_casteljau_k", "K=1"),)

    n = len(coeffs) - 1
    r_hat, rho = two_sum(1.0, -s)
    zero = _zero_like(s)
    base = coeffs
    errs = [[zero] * (n + 1) for _ in range(k - 1)]
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
                # Local error of stage f + 1: sum(e) + rho * delta_b, left to
                # right, keeping every fresh residual in production order.
                # eta is the next stage's e, so its order is part of the bits.
                eta = []
                l_hat = e[0]
                for x in e[1:]:
                    l_hat, t = two_sum(l_hat, x)
                    eta.append(t)
                prod, t = two_prod(rho, delta_b)
                eta.append(t)
                l_hat, t = two_sum(l_hat, prod)
                eta.append(t)
                ps2, t1 = two_prod(s, errs[f][j + 1])
                part, t2 = two_sum(l_hat, ps2)
                pr2, t3 = two_prod(r_hat, errs[f][j])
                updated, t4 = two_sum(part, pr2)
                eta.extend((t1, t2, t3, t4))
                new_errs[f].append(updated)
                e = eta
                delta_b = errs[f][j]
            # The last stage runs the same chain with its residuals dropped.
            l_hat = e[0]
            for x in e[1:]:
                l_hat = l_hat + x
            last = k - 2
            new_errs[last].append(
                l_hat + (rho * delta_b) + (s * errs[last][j + 1])
                + (r_hat * errs[last][j])
            )
        base = new_base
        errs = new_errs

    terms = (base[0], *[tri[0] for tri in errs])
    limit = "; split needs every product operand below 2**996"
    for t in terms:
        _check_result(t, coeffs, "comp_de_casteljau_k", f"K={k}", limit)
    return terms


def comp_de_casteljau_k(p: Sequence[float], s: float, k: int) -> float:
    """de Casteljau compensated to K-fold working precision.

    The value is ``sum_k`` of the K :func:`leading_terms`.  ``k=1`` is the
    plain triangle, 3*T_n + 1 flops for degree n (T_n the n-th triangular
    number; ``sum_k`` of one term costs none), with an absolute error of at
    most g(3n) * ptilde(s) for s in [0, 1], where g(m) = m*u/(1 - m*u) and
    ptilde sums the absolute coefficients against the basis.  ``k=2`` is
    the classic compensated form.  The relative error stays near u until
    cond(p, s) reaches about u**-(k-1).

    ``p`` is any nonempty sequence of the Bernstein coefficients b_0..b_n;
    other numbers become floats, a string raises TypeError.  Raises
    ValueError for a non-finite coefficient or s, or a k that is not a
    positive int.  An intermediate beyond the float range (for k >= 2 also
    beyond |x| < 2**996, which ``split`` needs) raises OverflowError.  An s
    outside [0, 1] is extrapolation: no error bound, and the oracle refuses it.
    """
    return sum_k(leading_terms(p, s, k), k)


def horner(coeffs: Sequence[float], s: float) -> float:
    """Evaluate sum_i coeffs[i] * s**i by Horner's rule.

    Raises like :func:`comp_de_casteljau_k`: ValueError for no coefficients,
    a non-finite coefficient or s, and OverflowError when an intermediate
    leaves the float range.
    """
    coeffs = _coefficients(coeffs, "horner")
    _check_point(s)
    result = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        result = (result * s) + coeffs[i]
    return _check_result(result, coeffs, "horner", "horner")


def flop_count(n: int, k: int) -> int:
    """Floating point operations used by ``comp_de_casteljau_k`` at degree n.

    The plain triangle (k=1) costs 3*T_n + 1.  For k >= 2 the cascade costs
    (15k**2 + 11k - 34)*T_n + 6k**2 - 11k + 11, counting the split-based
    product transform at 17 flops and the final k-term compensated sum.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"degree n must be a nonnegative integer, got {n}")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    t_n = n * (n + 1) // 2
    if k == 1:
        return 3 * t_n + 1
    return (15 * k * k + 11 * k - 34) * t_n + 6 * k * k - 11 * k + 11
