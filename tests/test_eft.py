"""Error-free transformation kernels: exactness is checked in rationals."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casteljau import CountingFloat, FlopCounter, sum_k
from casteljau.eft import MAX_K

from conftest import U, gamma, reference_sum_k, signed_floats, two_prod, two_sum

# Magnitude window in which no product underflows and nothing overflows, so
# the exactness contracts hold without caveats.
eft_floats = signed_floats(2.0**-300, 2.0**300)


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


class TestVecSum:
    """VecSum, the error-free TwoSum pass sum_k applies k - 1 times."""

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
            for p in ([], iter([])):
                with pytest.raises(ValueError, match="^sum_k requires a nonempty vector$"):
                    sum_k(p, k)

    @given(st.lists(eft_floats, min_size=1, max_size=12))
    def test_last_entry_is_cascaded_float_sum(self, p):
        # with no pass, sum_k is the plain left-to-right float sum
        acc = p[0]
        for x in p[1:]:
            acc = acc + x
        assert sum_k(p, 1) == acc


class TestSumK:
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
        # The refusal shows k as given: text is quoted.
        with pytest.raises(ValueError, match="^k must be a positive integer, got '2'$"):
            sum_k([1.0], "2")
        with pytest.raises(ValueError):
            sum_k([], 2)

    def test_k_past_the_largest_refused(self):
        # sum_k shares the evaluator's largest K.
        assert sum_k([2.0**53, 1.0, -(2.0**53)], MAX_K) == 1.0
        with pytest.raises(ValueError, match=f"^k must be at most {MAX_K}, got 9$"):
            sum_k([1.0], 9)

    @given(st.lists(eft_floats, min_size=1, max_size=12), st.integers(1, MAX_K))
    def test_inlined_two_sum_matches_reference(self, p, k):
        # sum_k spells TwoSum out in place; conftest's SumK calls two_sum.
        # Equal bits and equal tallies of each kind pin every operation.
        inline, reference = FlopCounter(), FlopCounter()
        got = sum_k([CountingFloat(x, inline) for x in p], k)
        want = reference_sum_k([CountingFloat(x, reference) for x in p], k)
        assert got.hex() == want.hex()
        assert inline.ledger() == reference.ledger()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_entries_converted_like_coefficients(self, k):
        # Floats pass unchanged; other numbers become the nearest float.
        total = sum_k([1, 2], k)
        assert type(total) is float and total == 3.0
        want = sum_k([0.1, 1.0 / 3, 2.0**53, 1.0], k)
        entries = [Decimal("0.1"), Fraction(1, 3), 2**53, True]
        # Any iterable, read once, as the evaluators read coefficients.
        assert sum_k(entries, k) == sum_k((x for x in entries), k) == want

    @pytest.mark.parametrize(
        "bad", ["1", b"1", bytearray(b"1"), None, pytest.param(object(), id="object"), 1j], ids=repr
    )
    def test_text_entry_rejected(self, bad):
        # Text, which float() would parse, and values float() refuses.
        got = re.escape(f"sum_k entries must be numbers, got {bad!r}")
        for k in (1, 2):
            with pytest.raises(TypeError, match=f"^{got}$"):
                sum_k([2.0, bad], k)

    @pytest.mark.parametrize("bad", [Decimal("sNaN"), Decimal("-sNaN")], ids=["sNaN", "-sNaN"])
    def test_signaling_nan_entry_rejected(self, bad):
        # Decimal's signaling NaN is a NaN, refused as a quiet one is.
        for k in (1, 2):
            for p in ([bad], [1.0, bad], [bad, 1.0, 2.0]):
                with pytest.raises(ValueError, match="^sum_k entries must be finite$"):
                    sum_k(p, k)

    @pytest.mark.parametrize(
        "big", [10**400, -(10**400), Fraction(10**400)], ids=["int", "-int", "Fraction"]
    )
    def test_entry_past_the_float_range_refused(self, big):
        for k in (1, 2):
            with pytest.raises(
                OverflowError, match="^sum_k entries must be numbers within the float range$"
            ):
                sum_k([1.0, big], k)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_overflow_raises(self, k):
        # Finite entries whose sum leaves the float range: k = 1 would give
        # inf and k >= 2 nan (TwoSum's error of inf is nan); both raise.
        for p in ([1e308, 1e308], [-1e308, 1.0, -1e308], [1e308, 1e308, -1e308]):
            with pytest.raises(OverflowError, match="^sum_k overflowed the float range$"):
                sum_k(p, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    # float() rounds Decimal("1e400") to inf: a non-finite entry.
    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, pytest.param(Decimal("1e400"), id="Decimal_1e400")]
    )
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
