"""Error-free transformation kernels: exactness is checked in rationals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casteljau import sum_k, two_prod_fma, two_sum

from conftest import U, gamma, signed_floats, two_prod

# Magnitude window in which no product underflows and nothing overflows, so
# the exactness contracts hold without caveats.
eft_floats = signed_floats(2.0**-300, 2.0**300)


def dekker_split(a):
    # Reference split into halves of at most 27 and 26 bits, high + low == a.
    z = a * 134217729.0
    high = z - (z - a)
    return high, a - high


class TestTwoSum:
    def test_exact_sum_has_zero_residual(self):
        assert two_sum(1.0, -0.5) == (0.5, 0.0)

    @pytest.mark.parametrize("x", [0.0, 1.0, -2.5, 3e300, 7e-200])
    def test_zero_addend_is_identity(self, x):
        assert two_sum(x, 0.0) == (x, 0.0)

    def test_round_to_even_drop_is_recovered(self):
        # 1 + 2**-53 rounds back to 1; the residual carries the lost bit.
        result, error = two_sum(1.0, 2.0**-53)
        assert result == 1.0
        assert error == 2.0**-53
        assert Fraction(result) + Fraction(error) == 1 + Fraction(2) ** -53

    @given(eft_floats, eft_floats)
    def test_exactness(self, a, b):
        result, error = two_sum(a, b)
        assert Fraction(result) + Fraction(error) == Fraction(a) + Fraction(b)

    @given(eft_floats, eft_floats)
    def test_error_smallness(self, a, b):
        result, error = two_sum(a, b)
        assert abs(Fraction(error)) <= U * abs(Fraction(result))
        assert abs(Fraction(error)) <= U * abs(Fraction(a) + Fraction(b))


class TestTwoProd:
    def test_exactly_representable_product(self):
        assert two_prod(1.5, 1.5) == (2.25, 0.0)

    @pytest.mark.parametrize("x", [1.0, -2.5, 3e150, 7e-120])
    def test_unit_factor_is_identity(self, x):
        assert two_prod(x, 1.0) == (x, 0.0)

    def test_square_just_above_one(self):
        # (1 + 2**-52)**2 = 1 + 2**-51 + 2**-104 exactly
        result, error = two_prod(1.0 + 2.0**-52, 1.0 + 2.0**-52)
        assert result == 1.0 + 2.0**-51
        assert error == 2.0**-104

    @given(eft_floats, eft_floats)
    def test_exactness(self, a, b):
        result, error = two_prod(a, b)
        assert Fraction(result) + Fraction(error) == Fraction(a) * Fraction(b)

    @given(eft_floats, eft_floats)
    def test_error_smallness(self, a, b):
        result, error = two_prod(a, b)
        assert abs(Fraction(error)) <= U * abs(Fraction(result))

    @given(eft_floats, eft_floats)
    def test_inline_splits_match_split(self, a, b):
        result = a * b
        ah, al = dekker_split(a)
        bh, bl = dekker_split(b)
        error = al * bl - (((result - ah * bh) - al * bh) - ah * bl)
        assert [x.hex() for x in two_prod(a, b)] == [result.hex(), error.hex()]


class TestTwoProdFma:
    def test_trivial_values(self):
        assert two_prod_fma(1.5, 1.5) == (2.25, 0.0)
        assert two_prod_fma(0.0, 17.25) == (0.0, 0.0)

    @given(eft_floats, eft_floats)
    def test_bitwise_equal_to_split_form(self, a, b):
        assert two_prod_fma(a, b) == two_prod(a, b)

    @pytest.mark.parametrize(
        "a, b, error, message",
        [
            (1e300, 1e300, OverflowError, "two_prod_fma overflowed the float range"),
            (math.inf, 1.0, ValueError, "two_prod_fma operands must be finite"),
            (math.nan, 2.0, ValueError, "two_prod_fma operands must be finite"),
            (0.0, math.inf, ValueError, "two_prod_fma operands must be finite"),
        ],
    )
    def test_nonfinite_product_refused(self, a, b, error, message):
        # The same refusal with math.fma (Python >= 3.13) and without it.
        for x, y in ((a, b), (b, a), (-a, b)):
            with pytest.raises(error, match=f"^{message}$"):
                two_prod_fma(x, y)


class TestVecSum:
    """VecSum, the error-free two_sum pass sum_k applies k - 1 times."""

    @given(eft_floats, st.integers(1, 6))
    def test_single_element_passthrough(self, x, k):
        assert sum_k([x], k) == x

    def test_all_zeros(self):
        for k in (1, 2, 3):
            assert sum_k([0.0, 0.0, 0.0], k) == 0.0

    def test_cancellation_preserves_exact_sum(self):
        # the plain sum loses the 1 to rounding; one pass keeps it
        assert sum_k([1.0, 2.0**53, -(2.0**53)], 1) == 0.0
        for k in (2, 3):
            assert sum_k([1.0, 2.0**53, -(2.0**53)], k) == 1.0

    def test_empty_rejected(self):
        for k in (1, 2, 3):
            with pytest.raises(ValueError):
                sum_k([], k)

    @given(st.lists(eft_floats, min_size=1, max_size=12))
    def test_last_entry_is_cascaded_float_sum(self, p):
        # with no pass, sum_k is the plain left-to-right float sum
        acc = p[0]
        for x in p[1:]:
            acc = acc + x
        assert sum_k(p, 1) == acc


class TestSumK:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_single_element(self, k):
        assert sum_k([42.5], k) == 42.5

    def test_k2_rescues_cancellation(self):
        # a plain left-to-right sum returns 0.0 here
        assert sum_k([2.0**53, 1.0, -(2.0**53)], 1) == 0.0
        assert sum_k([2.0**53, 1.0, -(2.0**53)], 2) == 1.0

    def test_k2_exactly_representable_sum(self):
        assert sum_k([1.0, 2.0**-53, 2.0**-53], 2) == 1.0 + 2.0**-52

    def test_invalid_k_rejected(self):
        for k in (0, -1, 2.0, True):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                sum_k([1.0], k)
        with pytest.raises(ValueError):
            sum_k([], 2)

    def test_non_sequence_rejected(self):
        # sum_k reads p twice; a spent iterator would hide a nan or look empty.
        for p in (iter([math.nan, 1.0]), iter([]), (x for x in [1.0, 2.0])):
            with pytest.raises(TypeError):
                sum_k(p, 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_overflow_raises(self, k):
        # Finite entries whose sum leaves the float range: k = 1 would give
        # inf and k >= 2 nan (two_sum's error of inf is nan); both raise.
        for p in ([1e308, 1e308], [-1e308, 1.0, -1e308], [1e308, 1e308, -1e308]):
            with pytest.raises(OverflowError, match="^sum_k overflowed the float range$"):
                sum_k(p, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_entry_rejected(self, k, bad):
        for p in ([bad], [1.0, bad], [bad, 1.0, 2.0], [bad, -bad]):
            with pytest.raises(ValueError, match="^sum_k entries must be finite$"):
                sum_k(p, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_near_the_float_range_stays_finite(self, k):
        # Partial sums that reach the largest float but stay inside the range.
        big = 1.7976931348623157e308
        assert sum_k([big, -big, 1.0], k) == 1.0
        assert sum_k([big / 2, big / 2, -big], k) == 0.0

    @given(st.lists(eft_floats, min_size=2, max_size=10), st.integers(1, 5))
    def test_error_bound(self, p, k):
        result = sum_k(p, k)
        exact = sum(Fraction(x) for x in p)
        n = len(p)
        bound = (U + 3 * gamma(n - 1) ** 2) * abs(exact) + gamma(2 * n - 2) ** k * sum(
            abs(Fraction(x)) for x in p
        )
        assert abs(Fraction(result) - exact) <= bound
