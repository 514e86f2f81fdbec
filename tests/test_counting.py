"""Instrumented flop counting: values stay bit-identical, tallies add up."""

import re

import pytest

from casteljau import (
    CountingFloat,
    FlopCounter,
    comp_de_casteljau_k,
    count_evaluation_flops,
    flop_count,
    two_sum,
)

from conftest import two_prod


def wrap(value, counter):
    return CountingFloat(value, counter)


class TestCountingFloat:
    def test_arithmetic_matches_plain_float(self):
        c = FlopCounter()
        a, b = wrap(0.1, c), wrap(0.7, c)
        assert a + b == 0.1 + 0.7
        assert a - b == 0.1 - 0.7
        assert a * b == 0.1 * 0.7
        assert c.adds == 1 and c.subs == 1 and c.muls == 1
        assert c.total == 3

    def test_reflected_operations_counted(self):
        c = FlopCounter()
        s = wrap(0.3, c)
        out = 1.0 - s
        assert isinstance(out, CountingFloat)
        assert out == 0.7
        assert c.subs == 1

    def test_negation_wraps_but_does_not_count(self):
        c = FlopCounter()
        s = wrap(0.3, c)
        out = -s
        assert isinstance(out, CountingFloat)
        assert out == -0.3
        assert c.total == 0

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x + 2.0,
            lambda x: 2.0 + x,
            lambda x: x - 2.0,
            lambda x: 2.0 - x,
            lambda x: x * 2.0,
            lambda x: 2.0 * x,
            lambda x: -x,
            lambda x: +x,
            lambda x: abs(x),
        ],
    )
    def test_every_result_holds_the_operand_counter(self, op):
        c = FlopCounter()
        x = wrap(-0.75, c)
        out = op(x)
        assert type(out) is CountingFloat
        assert out.counter is c
        assert out == op(-0.75)

    def test_zero_like(self):
        c = FlopCounter()
        z = wrap(5.0, c).zero_like()
        assert isinstance(z, CountingFloat)
        assert z == 0.0
        assert c.total == 0

    def test_unsupported_operand_raises_without_counting(self):
        c = FlopCounter()
        with pytest.raises(TypeError):
            wrap(1.0, c) + "x"
        assert c.total == 0

    @pytest.mark.parametrize(
        "symbol, op",
        [
            ("/", lambda x: x / 2.0),
            ("/", lambda x: 2.0 / x),
            ("**", lambda x: x**2),
            ("**", lambda x: 2.0**x),
            ("**", lambda x: pow(x, 2.0, 3.0)),
            ("//", lambda x: x // 1.0),
            ("//", lambda x: 1.0 // x),
            ("%", lambda x: x % 1.0),
            ("%", lambda x: 1.0 % x),
            ("divmod", lambda x: divmod(x, 1.0)),
            ("divmod", lambda x: divmod(1.0, x)),
        ],
    )
    def test_operators_outside_the_flop_model_refused(self, symbol, op):
        # Each would return an uncounted plain float if CountingFloat let it.
        c = FlopCounter()
        with pytest.raises(TypeError, match=f"refuses {re.escape(symbol)}:"):
            op(wrap(0.75, c))
        assert c.total == 0

    def test_two_sum_costs_six(self):
        c = FlopCounter()
        two_sum(wrap(1.0, c), wrap(2.0**-53, c))
        assert c.total == 6

    def test_two_prod_costs_seventeen(self):
        c = FlopCounter()
        two_prod(wrap(1.1, c), wrap(0.9, c))
        assert c.total == 17


class TestFlopCounter:
    def test_slotted(self):
        assert FlopCounter.__slots__ == ("adds", "subs", "muls")
        with pytest.raises(AttributeError):
            FlopCounter().divs = 1

    def test_ledger(self):
        c = FlopCounter()
        assert c.ledger() == "adds=0 subs=0 muls=0 total=0"
        c.adds, c.subs, c.muls = 4, 3, 2
        assert c.ledger() == "adds=4 subs=3 muls=2 total=9"


def _by_name(base_op, kind):
    def method(self, other):
        result = base_op(self, other)
        if result is NotImplemented:
            return NotImplemented
        setattr(self.counter, kind, getattr(self.counter, kind) + 1)
        return NamedCountingFloat(result, self.counter)

    return method


class NamedCountingFloat(CountingFloat):
    """Reference counter: every operation ticks its kind by name."""

    __slots__ = ()

    def zero_like(self):
        return NamedCountingFloat(0.0, self.counter)

    __add__ = _by_name(float.__add__, "adds")
    __radd__ = _by_name(float.__radd__, "adds")
    __sub__ = _by_name(float.__sub__, "subs")
    __rsub__ = _by_name(float.__rsub__, "subs")
    __mul__ = _by_name(float.__mul__, "muls")
    __rmul__ = _by_name(float.__rmul__, "muls")

    def __neg__(self):
        return NamedCountingFloat(-float(self), self.counter)

    def __abs__(self):
        return NamedCountingFloat(abs(float(self)), self.counter)


class TestCountedEvaluation:
    @pytest.mark.parametrize("n", range(9))
    def test_ledger_by_kind_matches_named_reference(self, n):
        # Gate 8 compares totals only; this pins every kind's tally.
        coeffs = [(-1.0) ** j * (j + 1) / 8 for j in range(n + 1)]
        for k in range(1, 7):
            value, counter = count_evaluation_flops(coeffs, 0.6875, k)
            reference = FlopCounter()
            wrapped = [NamedCountingFloat(c, reference) for c in coeffs]
            expected = comp_de_casteljau_k(wrapped, NamedCountingFloat(0.6875, reference), k)
            assert counter.ledger() == reference.ledger(), (n, k)
            assert counter.total == flop_count(n, k)
            assert value.hex() == float(expected).hex()

    def test_value_bit_identical_to_uninstrumented(self):
        coeffs = [1.0, -0.75, 0.5, -0.25, 0.0]
        s = 0.5 + 1001 * 2.0**-53
        for k in (1, 2, 3, 4):
            counted, _ = count_evaluation_flops(coeffs, s, k)
            assert counted == comp_de_casteljau_k(coeffs, s, k)

    def test_quartic_k3_matches_formula(self):
        _, counter = count_evaluation_flops([1.0, -2.0, 3.0, -4.0, 5.0], 0.37, 3)
        assert counter.total == flop_count(4, 3)

    def test_plain_triangle_count(self):
        _, counter = count_evaluation_flops([1.0, 2.0, 4.0], 0.25, 1)
        assert counter.total == flop_count(2, 1) == 10

    @pytest.mark.parametrize("text", ["1", b"1", bytearray(b"1")])
    def test_text_refused_like_the_evaluator(self, text):
        # CountingFloat, like float(), would parse the text.
        for p, s in (([text, 2.0], 0.5), ([1.0, 2.0], text)):
            with pytest.raises(TypeError) as expected:
                comp_de_casteljau_k(p, s, 2)
            with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
                count_evaluation_flops(p, s, 2)

    def test_no_divisions_anywhere(self):
        # CountingFloat refuses /, so a division in the evaluator would raise.
        for k in (1, 2, 5):
            _, counter = count_evaluation_flops([1.0, -1.0, 1.0, -1.0], 0.6, k)
            assert counter.total == flop_count(3, k)
