"""K-fold compensated summation, and the float side's input rules.

``sum_k`` writes out TwoSum, an error-free transformation: ``y = a + b``,
``z = y - a`` and ``e = (a - (y - z)) + (b - z)`` give ``y + e == a + b``
exactly in binary64 round-to-nearest when nothing overflows.  Nothing may
be re-associated or fused, and the operands' own operators do the work,
so a float subclass (the flop-count instrumentation) passes through.  The
evaluator's kernel writes the same SumK out over its own terms, from the
TwoSum template of :mod:`.evaluate`, and calls nothing here per evaluation
but the input rules.

Every rule the float-side entry points apply to their inputs lives here:
the k check with the largest K, ``MAX_K``; the conversion of a number to a
float; that of a polynomial and its point s, which also checks them; and the
finite-or-refuse check.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# The largest K.  The kernel for K, about 7.5*K**2 lines, compiles on first use.
MAX_K = 8


def _check_k(k: int) -> None:
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}, got {k!r}")


def _number(x: object, *rule: str) -> float:
    # rule's words, joined to raise, read "<what> must be numbers".  Text, which
    # float() parses, is no number, nor is what float() refuses; Decimal's
    # signaling NaN is a NaN, refused by the finite checks as a quiet one is.
    try:
        if not isinstance(x, (str, bytes, bytearray)):
            return float(x)
    except TypeError:
        pass
    except OverflowError:
        raise OverflowError(f"{' '.join(rule)} within the float range") from None
    except ValueError:
        if not getattr(x, "is_snan", bool)():
            raise
        return math.nan
    raise TypeError(f"{' '.join(rule)}, got {x!r}")


def _inputs(p: Iterable[float], s: object, name: str) -> tuple[list[float], float]:
    # The coefficients, then s, as floats; float subclasses such as
    # CountingFloat pass unchanged, and the message shows s as given.  A row of
    # plain floats, the common case, is only read: the conversion runs on the
    # first entry that is not one.
    row = list(p)
    for c in row:
        if type(c) is not float:
            rule = (name, "coefficients must be numbers")
            row = [c if isinstance(c, float) else _number(c, *rule) for c in row]
            break
    if not row:
        raise ValueError(f"{name} needs at least one coefficient")
    x = s if isinstance(s, float) else _number(s, "evaluation point s must be a number")
    if not math.isfinite(x):
        raise ValueError(f"evaluation point s must be finite, got {s!r}")
    return row, x


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


def sum_k(p: Iterable[float], k: int) -> float:
    """Sum a vector as if carried out in ``k`` times the working precision.

    This is SumK of Ogita, Rump & Oishi (2005).  Each of ``k - 1`` passes
    is an error-free sweep of TwoSum, written out in place, that keeps the
    exact sum, leaving the running float sum in the last entry and the
    rounding errors before it; a plain left-to-right reduction follows.
    (6k-5)(n-1) flops for an n-vector.  ``k=1`` is the ordinary recursive
    sum.  The result s satisfies

        abs(s - e) <= (u + 3*g(n-1)**2) * abs(e) + g(2n-2)**k * sum(abs(p))

    where e is the exact sum and g(m) = m*u/(1 - m*u).  ``k`` is at most
    ``MAX_K``, the limit the evaluator shares.

    ``p``, any nonempty iterable of numbers, is read once and converted as
    coefficients are.  A non-finite result raises: ValueError if an entry is
    inf or nan, else OverflowError (a partial sum left the float range).
    """
    _check_k(k)
    rule = "sum_k entries must be numbers"
    row = [x if isinstance(x, float) else _number(x, rule) for x in p]
    if not row:
        raise ValueError("sum_k requires a nonempty vector")
    q = row[:]
    for _ in range(k - 1):
        # TwoSum of q[j] and the running sum b, whose slot q[j - 1] gets the error.
        b = q[0]
        for j in range(1, len(q)):
            a = q[j]
            y = a + b
            z = y - a
            q[j - 1] = (a - (y - z)) + (b - z)
            b = y
        q[-1] = b
    total = q[0]
    for x in q[1:]:
        total = total + x
    invalid = "sum_k entries must be finite"
    return _check_finite(total, row, invalid, "sum_k overflowed the float range")
