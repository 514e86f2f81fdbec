"""Polynomial evaluation in Bernstein form by the de Casteljau recurrence.

One triangle kernel lives here, run by ``leading_terms`` and
``comp_de_casteljau_k`` alike.  At K = 1 it is the plain
convex-combination triangle and returns its apex.  For K >= 2 it runs
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
costs more than its flops.  For K >= 2 it ends with SumK over its terms,
written out the same way, and returns the value and the terms.  It calls
no EFT and reads no global.  Dekker's product, the one product EFT,
splits both operands by ``_SPLITTER`` (17 flops) and is exact provided no
partial product underflows and each operand is below 2**996.  A
plain-float s runs it pre-split (9 flops, same bits): r_hat, s and rho,
the operands constant over the call, are split once in the kernel head,
and each varying operand once where the kernel reads it from its row,
K - 1 splits per triangle entry and per level.  So the float path costs
``flop_count(n, k) - 4(5k-7)*T_n + 4(k-1)*n + 4*(2 if k == 2 else 3)``.
A float subclass such as ``CountingFloat`` runs the paper's template, so
counts are the paper's.

A plain Horner evaluator for monomial-basis input is included for accuracy
comparisons, along with the closed-form flop counts of each K.

A polynomial is any nonempty iterable of numbers, read once.  It and s are
converted, and s checked, by one rule of :mod:`.eft`, ``_inputs``, which
converts numbers as ``sum_k`` does; the terms and coefficients are checked
only when the value is not finite, since a finite value proves them finite.

All update loops keep a strict operation order (products of the complement
term last) and must not be re-associated; the error analysis depends on it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .eft import _check_finite, _check_k, _inputs

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
    # Dekker's product, x + err == a * b.  "presplit" reads both operands'
    # halves from where each was split: a, constant over the call, in the
    # kernel head, b where it was read from its row.
    return [
        f"{x} = {a} * {b}",
        *([_split(a), _split(b)] if template == "paper" else []),
        f"{err} = {a}_l * {b}_l - ((({x} - {a}_h * {b}_h) - {a}_l * {b}_h) - {a}_h * {b}_l)",
    ]


def _kernel_source(k: int, template: str) -> str:
    # t0 is the base triangle, t1..t{k-1} the error triangles, each a row
    # overwritten in place: with j ascending, (level + 1, j + 1) is read
    # before (level, j) replaces it.  Stage f hands triangle f + 1 the errors
    # e{f+1}_0, e{f+1}_1, ... in production order, part of the bits.  Error
    # triangles start as zeros made by s, so an instrumenting float subclass
    # sees every operation they later enter.  For K >= 2 the kernel returns
    # SumK of the K apexes, then the apexes.
    rows = [f"t{f}" for f in range(k)]
    if k == 1:
        head, level = ["r_hat = 1.0 - s"], []
        body = ["t0[j] = (r_hat * t0[j]) + (s * t0[j + 1])"]
        tail = ["return t0[0],"]
    else:
        head = [*_two_sum("r_hat", "1.0", "-s", "rho"), "zero = getattr(s, 'zero_like', float)()"]
        head += [f"{t} = [zero] * len(t0)" for t in rows[1:]]
        if template == "presplit":
            # rho enters a product from K = 3 on.
            head += [_split(a) for a in ("r_hat", "s", "rho")[: min(k, 3)]]

        def read(f: int, index: str) -> list[str]:
            # d{f} is row f's delta_b: entry j + 1's is entry j's b, read once
            # and carried.  "presplit" splits it there, once for the r_hat and
            # rho products that read it.  The last row enters no product.
            split = [_split(f"d{f}")] if template == "presplit" else []
            return [f"d{f} = t{f}[{index}]", *split]

        def products(f: int, r_err: str, s_err: str) -> list[str]:
            # Row f's products: r_hat * d{f}, then rho * d{f}, q{f + 1}, for
            # the next stage (plain in the last), then s * b once d{f} = b.
            q, d = f"q{f + 1}", f"d{f}"
            if f < k - 2:
                rho = _two_prod(q, "rho", d, f"e{f + 2}_{5 * f + 2}", template)
            else:
                rho = [f"{q} = rho * {d}"]
            return [
                *_two_prod("pr", "r_hat", d, r_err, template),
                *rho,
                *read(f, "j + 1"),
                *_two_prod("ps", "s", d, s_err, template),
            ]

        level = [line for f in range(k - 1) for line in read(f, "0")]
        body = [*products(0, "e1_0", "e1_1"), *_two_sum("y", "pr", "ps", "e1_2", store="t0[j] = ")]
        for f in range(1, k - 1):
            # Local error of stage f, sum(e) left to right plus q{f}, rho
            # times row f - 1's delta_b, then the update of triangle f,
            # keeping every residual.
            e = [f"e{f}_{i}" for i in range(5 * f - 2)]
            eta = [f"e{f + 1}_{i}" for i in range(5 * f + 3)]
            l_hat = e[0]
            for i, x in enumerate(e[1:]):
                body += _two_sum(f"l{f}_{i}", l_hat, x, eta[i])
                l_hat = f"l{f}_{i}"
            body += [
                *_two_sum("y", l_hat, f"q{f}", eta[-5]),
                *products(f, eta[-2], eta[-4]),
                *_two_sum("part", "y", "ps", eta[-3]),
                *_two_sum("y", "part", "pr", eta[-1], store=f"t{f}[j] = "),
            ]
        # The last stage runs the same chain with its residuals dropped.
        t, e = rows[-1], " + ".join(f"e{k - 1}_{i}" for i in range(5 * k - 7))
        body.append(f"{t}[j] = {e} + q{k - 1} + (s * {t}[j + 1]) + (r_hat * {t}[j])")
        # SumK of the apexes u0..u{k-1}: eft.sum_k's operations, in its order.
        terms = [f"u{f}" for f in range(k)]
        tail = [f"{u} = {t}[0]" for u, t in zip(terms, rows)]
        q = terms[:]
        for p in range(k - 1):
            # TwoSum of term i and the running sum in slot i - 1, which keeps the error.
            for i in range(1, k):
                tail += _two_sum(f"v{p}_{i}", q[i], q[i - 1], f"w{p}_{i}")
                q[i - 1], q[i] = f"w{p}_{i}", f"v{p}_{i}"
        tail.append(f"return {' + '.join(q)}, {', '.join(terms)}")
    return "\n".join([
        "def kernel(t0, s):",
        *[f"    {line}" for line in head],
        "    for level in range(len(t0) - 2, -1, -1):",
        *[f"        {line}" for line in level],
        "        for j in range(level + 1):",
        *[f"            {line}" for line in body],
        *[f"    {line}" for line in tail],
    ])


def _cascade(p: Iterable[float], s: float, k: int) -> tuple[float, ...]:
    # The entry step of both evaluators: the kernel's value, then for K >= 2
    # the K leading terms it summed; K = 1's one term is the value.
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
    out = kernel(coeffs[:], s)
    if not math.isfinite(out[0]):
        # The value is the terms' sum by + and -, so a finite one proves them
        # finite (see _check_finite); a non-finite one names the first cause.
        limit = "; the kernel's Dekker product needs every operand below 2**996"
        overflow = f"K={k} evaluation overflowed the float range{limit if k > 1 else ''}"
        for t in out[-k:]:
            _check_finite(t, coeffs, _INVALID, overflow)
        raise OverflowError("sum_k overflowed the float range")
    return out


def leading_terms(p: Iterable[float], s: float, k: int) -> tuple[float, ...]:
    """The K leading values of the K-fold compensated de Casteljau cascade.

    ``k=1`` gives the apex of the plain triangle, repeated convex
    combination with r = fl(1 - s).  For k >= 2, stages 1..k-2 capture
    their own rounding errors with EFTs and hand them down the cascade, and
    the last stage accumulates without capture.  The terms are the apex of
    the base triangle, then those of the k - 1 error triangles.  Checks and
    raises as :func:`comp_de_casteljau_k` does, under that name: a
    non-finite term is a non-finite coefficient or an overflow, and since
    the kernel sums the terms too, finite terms whose sum leaves the float
    range raise OverflowError.  ``k`` is at most ``MAX_K``, the limit
    :func:`sum_k` and :func:`flop_count` share.
    """
    return _cascade(p, s, k)[-k:]


def comp_de_casteljau_k(p: Iterable[float], s: float, k: int) -> float:
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

    ``p`` is any nonempty iterable of the Bernstein coefficients b_0..b_n;
    they and ``s`` may be any numbers, and those that are not floats become
    the nearest float; a string raises TypeError, and a number past the
    float range OverflowError.  Raises ValueError for a non-finite
    coefficient or s, or a k that is not an int in 1..MAX_K (8).  An
    intermediate beyond the float range (for k >= 2 also beyond
    |x| < 2**996, which the kernel's Dekker product needs) raises
    OverflowError.  An s outside [0, 1] is extrapolation: no error
    bound, and the oracle refuses it.
    """
    return _cascade(p, s, k)[0]


def horner(coeffs: Iterable[float], s: float) -> float:
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
    s splits each operand once, 4 flops a split: 4(5k - 7)*T_n fewer, plus
    4(k - 1)*n for the splits at the start of each level and 4 per constant
    split in the head, two at k=2 and three from k=3.
    ``k`` is refused past ``MAX_K``, as the evaluator refuses it.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"degree n must be a nonnegative integer, got {n!r}")
    _check_k(k)
    t_n = n * (n + 1) // 2
    if k == 1:
        return 3 * t_n + 1
    return (15 * k * k + 11 * k - 34) * t_n + 6 * k * k - 11 * k + 11
