"""Flop counting by running the evaluators on an instrumenting float type.

The release kernels carry no counting hooks.  Instead, ``CountingFloat``
subclasses float, ticks a shared counter on every arithmetic operation, and
returns wrapped results, so feeding wrapped inputs through an evaluator
counts exactly the operations the plain-float run would perform.  Values are
bit-identical to the uninstrumented run.

The paper counts additions, subtractions and multiplications.  Sign flips
(unary minus) are not floating point operations and are not counted; they
do wrap their result so the instrumentation never drops out mid-expression.
``/``, ``**``, ``//``, ``%`` and ``divmod``, reflected or not, are outside
the paper's flop model and raise ``TypeError`` instead of counting.

``FlopCounter`` is a slotted tally, one int attribute per counted kind.
"""

from __future__ import annotations

from typing import Sequence

from .evaluate import _check_point, _coefficients, comp_de_casteljau_k


class FlopCounter:
    """Tally of arithmetic operations, by kind, starting at zero."""

    __slots__ = ("adds", "subs", "muls")

    def __init__(self):
        self.adds = self.subs = self.muls = 0

    @property
    def total(self) -> int:
        return self.adds + self.subs + self.muls

    def ledger(self) -> str:
        return f"adds={self.adds} subs={self.subs} muls={self.muls} total={self.total}"


def _counted(base_op, kind: str):
    new = float.__new__  # skips CountingFloat.__new__'s costly Python frame

    def method(self: "CountingFloat", other):
        result = base_op(self, other)
        if result is NotImplemented:
            return NotImplemented
        counter = self.counter
        # Literal attributes, most frequent first: getattr/setattr by name cost ~20%.
        if kind == "subs":
            counter.subs += 1
        elif kind == "muls":
            counter.muls += 1
        else:
            counter.adds += 1
        out = new(CountingFloat, result)
        out.counter = counter
        return out

    return method


def _refused(symbol: str):
    def method(self: "CountingFloat", *args):
        raise TypeError(f"CountingFloat refuses {symbol}: it is not in the flop model")

    return method


class CountingFloat(float):
    """A float whose arithmetic ticks a :class:`FlopCounter`."""

    __slots__ = ("counter",)

    def __new__(cls, value: float, counter: FlopCounter) -> "CountingFloat":
        self = super().__new__(cls, value)
        self.counter = counter
        return self

    def zero_like(self) -> "CountingFloat":
        # Hook used by the evaluators when materializing fresh zeros, so
        # that error-triangle entries stay instrumented.
        return CountingFloat(0.0, self.counter)

    __add__ = _counted(float.__add__, "adds")
    __radd__ = _counted(float.__radd__, "adds")
    __sub__ = _counted(float.__sub__, "subs")
    __rsub__ = _counted(float.__rsub__, "subs")
    __mul__ = _counted(float.__mul__, "muls")
    __rmul__ = _counted(float.__rmul__, "muls")
    __truediv__ = __rtruediv__ = _refused("/")
    __pow__ = __rpow__ = _refused("**")
    __floordiv__ = __rfloordiv__ = _refused("//")
    __mod__ = __rmod__ = _refused("%")
    __divmod__ = __rdivmod__ = _refused("divmod")

    def __neg__(self) -> "CountingFloat":
        return CountingFloat(float.__neg__(self), self.counter)

    def __pos__(self) -> "CountingFloat":
        return self

    def __abs__(self) -> "CountingFloat":
        return CountingFloat(float.__abs__(self), self.counter)


def count_evaluation_flops(p: Sequence[float], s: float, k: int) -> tuple[float, FlopCounter]:
    """Run ``comp_de_casteljau_k`` on instrumented scalars.

    Returns the (plain float) result and the operation tally.  The value is
    bitwise identical to the uninstrumented evaluation.
    """
    # Checked before wrapping: CountingFloat, like float(), would parse text.
    coeffs = _coefficients(p, "comp_de_casteljau_k")
    _check_point(s)
    counter = FlopCounter()
    wrapped = [CountingFloat(c, counter) for c in coeffs]
    value = comp_de_casteljau_k(wrapped, CountingFloat(s, counter), k)
    return float(value), counter
