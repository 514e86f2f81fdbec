"""Error-free transformations and K-fold compensated summation.

Every function here returns floating point results together with the exact
rounding errors of the operations that produced them, as floating point
numbers.  The transforms return plain 2-tuples ``(result, error)`` (``(high,
low)`` for :func:`split`), unpacked at the call site.  "Exact" is meant
literally: for two_sum, ``result + error`` equals ``a + b`` as a real number
(checkable in rational arithmetic), and likewise for the product transforms.
These identities hold in IEEE-754 binary64 round-to-nearest provided no
overflow occurs, and for the product transforms provided no underflow occurs
in the partial products; then ``abs(error) <= u * abs(result)`` with
u = 2**-53.

The kernels are branch free and use only ``+``, ``-`` and ``*`` on the
operands, in a fixed order.  Nothing here may be re-associated or contracted
into fused operations; the intermediate roundings are the point.  Arithmetic
is done through the operands' own operators, so a float subclass (used by the
flop-count instrumentation) passes through untouched.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# 2**27 + 1, the Dekker splitter for a 53-bit significand.
_SPLITTER = 134217729.0


def two_sum(a: float, b: float) -> tuple[float, float]:
    """EFT of addition: the tuple ``(fl(a+b), error)``, error exact, 6 flops.

    Works for any ordering of magnitudes (no branch on ``abs(a) >= abs(b)``).
    If a+b overflows the contract is void; no check is made.
    """
    result = a + b
    z = result - a
    error = (a - (result - z)) + (b - z)
    return result, error


def split(a: float) -> tuple[float, float]:
    """Split ``a`` into the tuple ``(high, low)`` of at most 27 and 26 bits.

    ``high + low == a`` exactly.  4 flops.  Requires ``abs(a) < 2**996`` so
    that ``a * (2**27 + 1)`` does not overflow; not checked.
    """
    z = a * _SPLITTER
    high = z - (z - a)
    return high, a - high


def two_prod(a: float, b: float) -> tuple[float, float]:
    """EFT of multiplication via Dekker splitting: ``(fl(a*b), error)``, 17 flops.

    ``result + error == a * b`` exactly when no overflow occurs and no
    partial product underflows.  With underflow the error term is only
    approximate; this is documented, not trapped.
    """
    result = a * b
    ah, al = split(a)
    bh, bl = split(b)
    error = al * bl - (((result - ah * bh) - al * bh) - ah * bl)
    return result, error


try:
    from math import fma as _fma  # Python >= 3.13
except ImportError:

    def _fma(x: float, y: float, z: float) -> float:
        # Exact product plus addend in rationals, then one correct rounding.
        # float(Fraction) rounds to nearest, ties to even, which is exactly
        # the single rounding a hardware fma performs.
        exact = Fraction(x) * Fraction(y) + Fraction(z)
        try:
            return float(exact)
        except OverflowError:
            return float("inf") if exact > 0 else float("-inf")


def two_prod_fma(a: float, b: float) -> tuple[float, float]:
    """EFT of multiplication via fused multiply-add: ``(fl(a*b), error)``, 2 flops.

    Bitwise identical to :func:`two_prod` wherever neither over- nor
    underflows.  ``math.fma`` only exists on Python >= 3.13, so on older
    interpreters the fused operation is emulated by rounding the exact
    rational ``a*b - result`` to nearest; the emulation returns the same
    bits a hardware FMA would and costs far more than 2 flops.  Callers that
    care about the flop count (not just the values) should use
    :func:`two_prod`, which is the default everywhere in this package.
    """
    result = a * b
    error = _fma(a, b, -result)
    return result, error


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
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if len(p) == 0:
        raise ValueError("sum_k requires a nonempty vector")
    q = list(p)
    for _ in range(k - 1):
        for j in range(1, len(q)):
            q[j], q[j - 1] = two_sum(q[j], q[j - 1])
    total = q[0]
    for x in q[1:]:
        total = total + x
    if math.isfinite(total):
        return total
    if not all(math.isfinite(x) for x in p):
        raise ValueError("sum_k entries must be finite")
    raise OverflowError("sum_k overflowed the float range")
