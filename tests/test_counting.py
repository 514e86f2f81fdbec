"""Instrumented flop counting: values stay bit-identical, tallies add up."""

import re

import pytest

from casteljau import (
    CountingFloat,
    FlopCounter,
    comp_de_casteljau_k,
    count_evaluation_flops,
    flop_count,
    two_prod,
    two_sum,
)


def wrap(value, counter):
    return CountingFloat(value, counter)


class TestCountingFloat:
    def test_arithmetic_matches_plain_float(self):
        c = FlopCounter()
        a, b = wrap(0.1, c), wrap(0.7, c)
        assert a + b == 0.1 + 0.7
        assert a - b == 0.1 - 0.7
        assert a * b == 0.1 * 0.7
        assert a / b == 0.1 / 0.7
        assert c.adds == 1 and c.subs == 1 and c.muls == 1 and c.divs == 1
        assert c.total == 4

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
            lambda x: x / 2.0,
            lambda x: 2.0 / x,
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

    def test_two_sum_costs_six(self):
        c = FlopCounter()
        two_sum(wrap(1.0, c), wrap(2.0**-53, c))
        assert c.total == 6

    def test_two_prod_costs_seventeen(self):
        c = FlopCounter()
        two_prod(wrap(1.1, c), wrap(0.9, c))
        assert c.total == 17


class TestCountedEvaluation:
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
        for k in (1, 2, 5):
            _, counter = count_evaluation_flops([1.0, -1.0, 1.0, -1.0], 0.6, k)
            assert counter.divs == 0
