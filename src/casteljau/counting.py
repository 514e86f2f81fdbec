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

The kernel's product template and its error-triangle zeros follow the type
of s alone.  ``count_evaluation_flops`` wraps the coefficients and s, so it
is the counted path, and it counts the paper's flops.  Wrapped
coefficients with a plain-float s run the pre-split template, and the
operations that meet only plain floats go uncounted: ``leading_terms`` at
n = 2, K = 2 then counts 119 operations, its kernel's SumK included,
neither the paper kernel's 157 nor the pre-split kernel's 137, and nothing
warns.  A ``numpy.float64`` s is a float subclass, so it runs the paper
template, uncounted.
"""

from __future__ import annotations

from typing import Iterable

from .eft import _inputs
from .evaluate import comp_de_casteljau_k


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


_new = float.__new__  # skips CountingFloat.__new__'s costly Python frame

# One body per counted operator, formatted from this template, so that each
# ticks its own kind through a literal attribute: by name, with getattr and
# setattr, the flop report runs 20-25% slower.  A CountingFloat or float
# operand meets a plain float operator on .real, its plain value.  Any other
# operand takes float's slot wrapper, whose NotImplemented is passed on;
# taken for every operand, the wrapper costs the report 5-10%.
_COUNTED = """\
def {name}(self, other):
    operand = type(other)
    if operand is CountingFloat:
        result = {on_counting}
    elif operand is float:
        result = {on_float}
    else:
        result = float.{name}(self, other)
        if result is NotImplemented:
            return NotImplemented
    counter = self.counter
    counter.{kind} += 1
    out = _new(CountingFloat, result)
    out.counter = counter
    return out
"""


def _counted(name: str, symbol: str, kind: str):
    # A reflected operator computes other OP self; a CountingFloat operand is
    # read through .real, as self is.
    reflected = name.startswith("__r")
    on_float = f"other {symbol} self.real" if reflected else f"self.real {symbol} other"
    on_counting = on_float.replace("other", "other.real")
    source = _COUNTED.format(name=name, kind=kind, on_float=on_float, on_counting=on_counting)
    namespace: dict = {}
    exec(compile(source, f"<CountingFloat.{name}>", "exec"), globals(), namespace)
    return namespace[name]


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

    __add__ = _counted("__add__", "+", "adds")
    __radd__ = _counted("__radd__", "+", "adds")
    __sub__ = _counted("__sub__", "-", "subs")
    __rsub__ = _counted("__rsub__", "-", "subs")
    __mul__ = _counted("__mul__", "*", "muls")
    __rmul__ = _counted("__rmul__", "*", "muls")
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


def count_evaluation_flops(p: Iterable[float], s: float, k: int) -> tuple[float, FlopCounter]:
    """Run ``comp_de_casteljau_k`` on instrumented scalars.

    Returns the (plain float) result and the operation tally.  The value is
    bitwise identical to the uninstrumented evaluation.
    """
    # Checked before wrapping: CountingFloat, like float(), would parse text.
    coeffs, s = _inputs(p, s, "comp_de_casteljau_k")
    counter = FlopCounter()
    wrapped = [CountingFloat(c, counter) for c in coeffs]
    value = comp_de_casteljau_k(wrapped, CountingFloat(s, counter), k)
    return float(value), counter
