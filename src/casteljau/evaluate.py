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
no triangle is kept.  The kernel's loops call no EFT: each two_sum and
each Dekker product (both operands split) is spelled out in place,
operation for operation, since in CPython a call costs more than its flops.

A plain Horner evaluator for monomial-basis input is included for accuracy
comparisons, along with the closed-form flop counts of each K.

A polynomial is a plain sequence of coefficients.  The point s is checked
up front by ``_check_point``; the coefficients only when a leading term is
not finite, since finite terms prove them finite.  That check and the k
check are :mod:`.eft`'s, which ``sum_k`` shares.

All update loops keep a strict operation order (products of the complement
term last) and must not be re-associated; the error analysis depends on it.
"""

from __future__ import annotations

import math
from typing import Sequence

from .eft import _SPLITTER, _check_finite, _check_k, sum_k, two_sum

_INVALID = "comp_de_casteljau_k coefficients must be finite"


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
    _check_k(k)
    _check_point(s)
    if k == 1:
        r = 1.0 - s
        row = coeffs
        for level in range(len(row) - 2, -1, -1):
            row = [(r * row[j]) + (s * row[j + 1]) for j in range(level + 1)]
        overflow = "K=1 evaluation overflowed the float range"
        return (_check_finite(row[0], coeffs, _INVALID, overflow),)

    n = len(coeffs) - 1
    r_hat, rho = two_sum(1.0, -s)
    zero = _zero_like(s)
    # Entry (level, j) overwrites (level + 1, j) in place: with j ascending,
    # (level + 1, j + 1) is read before it is overwritten.  The copy keeps
    # coeffs intact for _check_finite.
    base = coeffs[:]
    *stages, last = [[zero] * (n + 1) for _ in range(k - 1)]
    # Each EFT below is two_sum's 6 flops or Dekker's 17-flop product, both
    # operands split, written out with z as scratch.  The comment on its
    # first line is the exact identity that its lines establish.
    for level in range(n - 1, -1, -1):
        for j in range(level + 1):
            delta_b, b = base[j], base[j + 1]
            pr = r_hat * delta_b  # pr + pr_err == r_hat * delta_b
            al = r_hat - (ah := (z := r_hat * _SPLITTER) - (z - r_hat))
            bl = delta_b - (bh := (z := delta_b * _SPLITTER) - (z - delta_b))
            pr_err = al * bl - (((pr - ah * bh) - al * bh) - ah * bl)
            ps = s * b  # ps + ps_err == s * b
            al = s - (ah := (z := s * _SPLITTER) - (z - s))
            bl = b - (bh := (z := b * _SPLITTER) - (z - b))
            ps_err = al * bl - (((ps - ah * bh) - al * bh) - ah * bl)
            base[j] = y = pr + ps  # y + sigma == pr + ps
            z = y - pr
            e = [pr_err, ps_err, (pr - (y - z)) + (ps - z)]
            for tri in stages:
                # Local error of this stage: sum(e) + rho * delta_b, left to
                # right, keeping every fresh residual in production order.
                # eta is the next stage's e, so its order is part of the bits.
                chain = iter(e)
                l_hat = next(chain)
                eta = []
                for x in chain:
                    y = l_hat + x  # y + t == l_hat + x
                    z = y - l_hat
                    eta.append((l_hat - (y - z)) + (x - z))
                    l_hat = y
                pr = rho * delta_b  # pr + t_rho == rho * delta_b
                al = rho - (ah := (z := rho * _SPLITTER) - (z - rho))
                bl = delta_b - (bh := (z := delta_b * _SPLITTER) - (z - delta_b))
                t_rho = al * bl - (((pr - ah * bh) - al * bh) - ah * bl)
                y = l_hat + pr  # y + t_l == l_hat + pr
                z = y - l_hat
                t_l = (l_hat - (y - z)) + (pr - z)
                delta_b, b = tri[j], tri[j + 1]
                ps = s * b  # ps + t1 == s * b
                al = s - (ah := (z := s * _SPLITTER) - (z - s))
                bl = b - (bh := (z := b * _SPLITTER) - (z - b))
                t1 = al * bl - (((ps - ah * bh) - al * bh) - ah * bl)
                part = y + ps  # part + t2 == y + ps
                z = part - y
                t2 = (y - (part - z)) + (ps - z)
                pr = r_hat * delta_b  # pr + t3 == r_hat * delta_b
                al = r_hat - (ah := (z := r_hat * _SPLITTER) - (z - r_hat))
                bl = delta_b - (bh := (z := delta_b * _SPLITTER) - (z - delta_b))
                t3 = al * bl - (((pr - ah * bh) - al * bh) - ah * bl)
                tri[j] = y = part + pr  # y + t4 == part + pr
                z = y - part
                eta += (t_rho, t_l, t1, t2, t3, (part - (y - z)) + (pr - z))
                e = eta
            # The last stage runs the same chain with its residuals dropped.
            chain = iter(e)
            l_hat = next(chain)
            for x in chain:
                l_hat = l_hat + x
            last[j] = (
                l_hat + (rho * delta_b) + (s * last[j + 1]) + (r_hat * last[j])
            )

    terms = (base[0], *[tri[0] for tri in stages], last[0])
    limit = "the kernel's Dekker product needs every operand below 2**996"
    overflow = f"K={k} evaluation overflowed the float range; {limit}"
    for t in terms:
        _check_finite(t, coeffs, _INVALID, overflow)
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
    beyond |x| < 2**996, which the kernel's Dekker product needs)
    raises OverflowError.  An s outside [0, 1] is extrapolation: no error
    bound, and the oracle refuses it.
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
    invalid = "horner coefficients must be finite"
    return _check_finite(result, coeffs, invalid, "horner evaluation overflowed the float range")


def flop_count(n: int, k: int) -> int:
    """Floating point operations used by ``comp_de_casteljau_k`` at degree n.

    The plain triangle (k=1) costs 3*T_n + 1.  For k >= 2 the cascade costs
    (15k**2 + 11k - 34)*T_n + 6k**2 - 11k + 11, counting the split-based
    product transform at 17 flops and the final k-term compensated sum.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"degree n must be a nonnegative integer, got {n}")
    _check_k(k)
    t_n = n * (n + 1) // 2
    if k == 1:
        return 3 * t_n + 1
    return (15 * k * k + 11 * k - 34) * t_n + 6 * k * k - 11 * k + 11
