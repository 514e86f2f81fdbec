"""Error-free transformations and K-fold compensated summation.

An error-free transformation (EFT) returns a floating point result together
with the exact rounding error of the operation that produced it, as a plain
2-tuple ``(result, error)`` unpacked at the call site.  "Exact" is meant
literally: for two_sum, ``result + error`` equals ``a + b`` as a real number
(checkable in rational arithmetic), and likewise ``a * b`` for the product
transforms.
These identities hold in IEEE-754 binary64 round-to-nearest provided no
overflow occurs, and for the product transforms provided no underflow occurs
in the partial products; then ``abs(error) <= u * abs(result)`` with
u = 2**-53.

The de Casteljau kernel (:mod:`.evaluate`) calls no EFT in its loops: in
CPython a call costs more than the flops inside, so it spells out two_sum
and Dekker's product, both operands split by ``_SPLITTER``, in place.
The kernels are branch free and use only ``+``, ``-`` and ``*`` on the
operands, in a fixed order.  Nothing here may be re-associated or contracted
into fused operations; the intermediate roundings are the point.  Arithmetic
is done through the operands' own operators, so a float subclass (used by the
flop-count instrumentation) passes through untouched.  This module also owns
the k check and the finite-or-refuse check, ``_check_k`` and
``_check_finite``, that the package's float-side entry points share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# 2**27 + 1, the Dekker splitter for a 53-bit significand.
_SPLITTER = 134217729.0


def _check_k(k: int) -> None:
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


def _check_finite(value: float, inputs: Sequence[float], invalid: str, overflow: str) -> float:
    # value reaches every input through +, - and * alone, which never turn inf
    # or nan back into a finite number (even 0 * inf is nan).  So a finite
    # value proves its inputs finite; a non-finite one comes either from an
    # input that is inf or nan or from an overflow.  Messages come prebuilt.
    if math.isfinite(value):
        return value
    if not all(math.isfinite(x) for x in inputs):
        raise ValueError(invalid)
    raise OverflowError(overflow)


def two_sum(a: float, b: float) -> tuple[float, float]:
    """EFT of addition: the tuple ``(fl(a+b), error)``, error exact, 6 flops.

    Works for any ordering of magnitudes (no branch on ``abs(a) >= abs(b)``).
    If a+b overflows the contract is void; no check is made.
    """
    result = a + b
    z = result - a
    error = (a - (result - z)) + (b - z)
    return result, error


try:
    from math import fma as _fma  # Python >= 3.13
except ImportError:

    def _fma(x: float, y: float, z: float) -> float:
        # Exact product plus addend in rationals, then one correct rounding.
        # float(Fraction) rounds to nearest, ties to even, which is exactly
        # the single rounding a hardware fma performs.  two_prod_fma calls it
        # only for a finite product, whose error converts without overflow.
        return float(Fraction(x) * Fraction(y) + Fraction(z))


def two_prod_fma(a: float, b: float) -> tuple[float, float]:
    """EFT of multiplication via fused multiply-add: ``(fl(a*b), error)``, 2 flops.

    Bitwise identical to Dekker's product, the 17-flop form that the de
    Casteljau kernel spells out, wherever neither over- nor underflows.
    ``math.fma`` only exists on Python >= 3.13, so on older interpreters the
    fused operation is emulated by rounding the exact rational
    ``a*b - result`` to nearest; the emulation returns the same bits a
    hardware FMA would and costs far more than 2 flops.  The kernel and the
    paper's flop count use Dekker's product.  A product that is not finite
    raises on every interpreter: ValueError if an operand is inf or nan,
    else OverflowError.
    """
    result = a * b
    invalid = "two_prod_fma operands must be finite"
    _check_finite(result, (a, b), invalid, "two_prod_fma overflowed the float range")
    return result, _fma(a, b, -result)


def sum_k(p: Sequence[float], k: int) -> float:
    """Sum a vector as if carried out in ``k`` times the working precision.

    This is SumK of Ogita, Rump & Oishi (2005).  Each of ``k - 1`` passes
    is an error-free sweep of :func:`two_sum` that keeps the exact sum,
    leaving the running float sum in the last entry and the rounding errors
    before it; a plain left-to-right reduction follows.  (6k-5)(n-1) flops
    for an n-vector.  ``k=1`` is the ordinary recursive sum.  The result s
    satisfies

        abs(s - e) <= (u + 3*g(n-1)**2) * abs(e) + g(2n-2)**k * sum(abs(p))

    where e is the exact sum and g(m) = m*u/(1 - m*u).

    A result that is not finite raises: ValueError if an entry is inf or
    nan, else OverflowError (a partial sum left the float range).
    """
    _check_k(k)
    if len(p) == 0:
        raise ValueError("sum_k requires a nonempty vector")
    q = list(p)
    for _ in range(k - 1):
        for j in range(1, len(q)):
            q[j], q[j - 1] = two_sum(q[j], q[j - 1])
    total = q[0]
    for x in q[1:]:
        total = total + x
    invalid = "sum_k entries must be finite"
    return _check_finite(total, p, invalid, "sum_k overflowed the float range")
