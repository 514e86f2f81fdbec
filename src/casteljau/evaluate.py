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
no triangle is kept.  The kernel is generated once per K and product
template, for K up to ``MAX_K``: one straight-line stage per triangle,
each TwoSum and Dekker product written out in place from a template and
every error a named local, as in CPython a call, a list or an iterator
costs more than its flops.  It calls no EFT and reads no global.
Dekker's product, the one product EFT, splits both operands by
``_SPLITTER`` (17 flops) and is exact provided no partial product
underflows and each operand is below 2**996.  A plain-float s runs it
pre-split (13 flops, same bits): r_hat, s and rho, the operands constant
over the call, are split once in the kernel head, so the float path costs
``flop_count(n, k) - 4(3k-4)*T_n + 4*(2 if k == 2 else 3)``.  A float
subclass such as ``CountingFloat`` runs the paper's template, so counts
are the paper's.

A plain Horner evaluator for monomial-basis input is included for accuracy
comparisons, along with the closed-form flop counts of each K.

A polynomial is a plain sequence of coefficients.  It and the point s are
converted, and s checked, by one rule of :mod:`.eft`, ``_inputs``, which
converts numbers as ``sum_k`` does; the coefficients are checked only when
a leading term is not finite, since finite terms prove them finite.

All update loops keep a strict operation order (products of the complement
term last) and must not be re-associated; the error analysis depends on it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .eft import _check_finite, _check_k, _inputs, _sum_k

_INVALID = "comp_de_casteljau_k coefficients must be finite"
# The kernel of each K and product template, compiled on first use.  Keyed
# by those alone, it holds code, never data: no value outlives its call.
_KERNELS: dict[tuple[int, str], Callable[[list[float], float], tuple[float, ...]]] = {}


def _two_sum(y: str, a: str, b: str, err: str, store: str = "") -> list[str]:
    # TwoSum's 6 flops: y + err == a + b.  store is a slot also given y.
    return [f"{store}{y} = {a} + {b}", f"z = {y} - {a}", f"{err} = ({a} - ({y} - z)) + ({b} - z)"]


# 2**27 + 1, the Dekker splitter for a 53-bit significand.
_SPLITTER = 134217729.0


def _split(a: str) -> str:
    # 4 flops: a == a_h + a_l, each half of at most 26 significant bits.
    return f"{a}_l = {a} - ({a}_h := (z := {a} * {_SPLITTER!r}) - (z - {a}))"


def _two_prod(x: str, a: str, b: str, err: str, template: str) -> list[str]:
    # Dekker's product, x + err == a * b, a constant over the call.  "presplit"
    # reads a's halves from the kernel head; a split depends on a alone.
    return [
        f"{x} = {a} * {b}",
        *([_split(a)] if template == "paper" else []),
        _split(b),
        f"{err} = {a}_l * {b}_l - ((({x} - {a}_h * {b}_h) - {a}_l * {b}_h) - {a}_h * {b}_l)",
    ]


def _kernel_source(k: int, template: str) -> str:
    # t0 is the base triangle, t1..t{k-1} the error triangles, each a row
    # overwritten in place: with j ascending, (level + 1, j + 1) is read
    # before (level, j) replaces it.  Stage f hands triangle f + 1 the errors
    # e{f+1}_0, e{f+1}_1, ... in production order, part of the bits.  Error
    # triangles start as zeros made by s, so an instrumenting float subclass
    # sees every operation they later enter.
    rows = [f"t{f}" for f in range(k)]
    if k == 1:
        head = ["r_hat = 1.0 - s"]
        body = ["t0[j] = (r_hat * t0[j]) + (s * t0[j + 1])"]
    else:
        head = [*_two_sum("r_hat", "1.0", "-s", "rho"), "zero = getattr(s, 'zero_like', float)()"]
        head += [f"{t} = [zero] * len(t0)" for t in rows[1:]]
        if template == "presplit":
            # rho enters a product from K = 3 on.
            head += [_split(a) for a in ("r_hat", "s", "rho")[: min(k, 3)]]
        body = [
            "delta_b, b = t0[j], t0[j + 1]",
            *_two_prod("pr", "r_hat", "delta_b", "e1_0", template),
            *_two_prod("ps", "s", "b", "e1_1", template),
            *_two_sum("y", "pr", "ps", "e1_2", store="t0[j] = "),
        ]
        for f in range(1, k - 1):
            # Local error of stage f, sum(e) left to right plus rho * delta_b,
            # then the update of triangle f, keeping every residual.
            e = [f"e{f}_{i}" for i in range(5 * f - 2)]
            eta = [f"e{f + 1}_{i}" for i in range(5 * f + 3)]
            l_hat = e[0]
            for i, x in enumerate(e[1:]):
                body += _two_sum(f"l{f}_{i}", l_hat, x, eta[i])
                l_hat = f"l{f}_{i}"
            body += [
                *_two_prod("pr", "rho", "delta_b", eta[-6], template),
                *_two_sum("y", l_hat, "pr", eta[-5]),
                f"delta_b, b = t{f}[j], t{f}[j + 1]",
                *_two_prod("ps", "s", "b", eta[-4], template),
                *_two_sum("part", "y", "ps", eta[-3]),
                *_two_prod("pr", "r_hat", "delta_b", eta[-2], template),
                *_two_sum("y", "part", "pr", eta[-1], store=f"t{f}[j] = "),
            ]
        # The last stage runs the same chain with its residuals dropped.
        t, e = rows[-1], " + ".join(f"e{k - 1}_{i}" for i in range(5 * k - 7))
        body.append(f"{t}[j] = {e} + (rho * delta_b) + (s * {t}[j + 1]) + (r_hat * {t}[j])")
    return "\n".join([
        "def kernel(t0, s):",
        *[f"    {line}" for line in head],
        "    for level in range(len(t0) - 2, -1, -1):",
        "        for j in range(level + 1):",
        *[f"            {line}" for line in body],
        f"    return {', '.join(f'{t}[0]' for t in rows)},",
    ])


def leading_terms(p: Sequence[float], s: float, k: int) -> tuple[float, ...]:
    """The K leading values of the K-fold compensated de Casteljau cascade.

    ``k=1`` gives the apex of the plain triangle, repeated convex
    combination with r = fl(1 - s).  For k >= 2, stages 1..k-2 capture
    their own rounding errors with EFTs and hand them down the cascade, and
    the last stage accumulates without capture.  The terms are the apex of
    the base triangle, then those of the k - 1 error triangles.  Checks and
    raises as :func:`comp_de_casteljau_k` does, under that name: a
    non-finite term is a non-finite coefficient or an overflow.  ``k`` is at
    most ``MAX_K``, the limit :func:`sum_k` and :func:`flop_count` share.
    """
    coeffs, s = _inputs(p, s, "comp_de_casteljau_k")
    _check_k(k)
    # A float subclass, such as CountingFloat, runs the paper's products; K = 1 has none.
    key = (k, "presplit" if type(s) is float and k > 1 else "paper")
    kernel = _KERNELS.get(key)
    if kernel is None:
        # Compiled from its key alone, in a namespace of its own: it reads no global.
        namespace: dict = {}
        exec(compile(_kernel_source(*key), f"<kernel K={k} {key[1]}>", "exec"), namespace)
        kernel = _KERNELS[key] = namespace["kernel"]
    # The kernel overwrites its copy; coeffs stays intact for _check_finite.
    terms = kernel(coeffs[:], s)
    for t in terms:
        if not math.isfinite(t):
            limit = "; the kernel's Dekker product needs every operand below 2**996"
            overflow = f"K={k} evaluation overflowed the float range{limit if k > 1 else ''}"
            _check_finite(t, coeffs, _INVALID, overflow)
    return terms


def comp_de_casteljau_k(p: Sequence[float], s: float, k: int) -> float:
    """de Casteljau compensated to K-fold working precision.

    The value is ``sum_k`` of the K :func:`leading_terms`.  ``k=1`` is the
    plain triangle, 3*T_n + 1 flops for degree n (T_n the n-th triangular
    number; its one term is the value), with an absolute error of at
    most g(3n) * ptilde(s) for s in [0, 1], where g(m) = m*u/(1 - m*u) and
    ptilde sums the absolute coefficients against the basis.  ``k=2`` is
    the classic compensated form.  The relative error stays near u until
    cond(p, s) reaches about u**-(k-1).

    At s = 0 and s = 1 the value is the end coefficient, bit for bit, when
    that is not zero.  A -0.0 end coefficient comes back +0.0 for k >= 2,
    since ``sum_k`` adds the error triangles' +0.0 apexes; at k = 1 it
    keeps its sign only where the zero product added to it is -0.0, as for
    ``[-0.0, -1.0]`` at s = 0 and for ``[-0.0]``.

    ``p`` is any nonempty sequence of the Bernstein coefficients b_0..b_n;
    they and ``s`` may be any numbers, and those that are not floats become
    the nearest float; a string raises TypeError, and a number past the
    float range OverflowError.  Raises ValueError for a non-finite
    coefficient or s, or a k that is not an int in 1..MAX_K (8).  An
    intermediate beyond the float range (for k >= 2 also beyond
    |x| < 2**996, which the kernel's Dekker product needs) raises
    OverflowError.  An s outside [0, 1] is extrapolation: no error
    bound, and the oracle refuses it.
    """
    terms = leading_terms(p, s, k)
    return terms[0] if k == 1 else _sum_k(terms, k)


def horner(coeffs: Sequence[float], s: float) -> float:
    """Evaluate sum_i coeffs[i] * s**i by Horner's rule.

    Raises like :func:`comp_de_casteljau_k`: ValueError for no coefficients,
    a non-finite coefficient or s, and OverflowError when an intermediate
    leaves the float range.
    """
    coeffs, s = _inputs(coeffs, s, "horner")
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
    This is the paper's count, which a float subclass s runs.  A plain-float
    s runs the 13-flop pre-split product: 4(3k - 4)*T_n fewer, plus 4 per
    constant split in the head, two at k=2 and three from k=3.
    ``k`` is refused past ``MAX_K``, as the evaluator refuses it.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"degree n must be a nonnegative integer, got {n}")
    _check_k(k)
    t_n = n * (n + 1) // 2
    if k == 1:
        return 3 * t_n + 1
    return (15 * k * k + 11 * k - 34) * t_n + 6 * k * k - 11 * k + 11
