"""Evaluator behavior: endpoints, local-error kernels, the cascade, bounds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casteljau import (
    BernsteinPoly,
    MonomialPoly,
    comp_de_casteljau_k,
    de_casteljau,
    exact_eval,
    flop_count,
    horner,
    local_error,
    local_error_eft,
    two_prod,
    two_sum,
)

from conftest import check_accuracy_bounds, once_compensated, signed_floats

CUBIC = BernsteinPoly([-1.0, 1.0, -1.0, 1.0])
QUARTIC = BernsteinPoly([1.0, -0.75, 0.5, -0.25, 0.0])
U_FLOAT = 2.0**-53
SPOTLIGHT = 0.5 + 1001 * U_FLOAT

coeff_lists = st.lists(signed_floats(2.0**-50, 2.0**50), min_size=1, max_size=10)
small_floats = signed_floats(2.0**-60, 2.0**60)


class TestPolyTypes:
    def test_int_coefficients_coerced(self):
        p = BernsteinPoly([1, -2, 3])
        assert p.coeffs == (1.0, -2.0, 3.0)
        assert all(type(c) is float for c in p.coeffs)
        assert p.degree == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BernsteinPoly([])
        with pytest.raises(ValueError):
            MonomialPoly([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BernsteinPoly([1.0, math.inf])
        with pytest.raises(ValueError):
            MonomialPoly([math.nan])


class TestDeCasteljau:
    def test_s_zero_returns_first_coefficient(self):
        assert de_casteljau(CUBIC, 0.0) == -1.0

    def test_symmetric_cancellation_at_half(self):
        assert de_casteljau(CUBIC, 0.5) == 0.0

    def test_s_one_returns_last_coefficient(self):
        assert de_casteljau(QUARTIC, 1.0) == 0.0

    def test_degree_zero(self):
        assert de_casteljau(BernsteinPoly([2.5]), 0.3) == 2.5
        for k in (2, 4):
            assert comp_de_casteljau_k(BernsteinPoly([2.5]), 0.3, k) == 2.5

    @given(st.lists(signed_floats(2.0**-50, 2.0**50), min_size=1, max_size=13))
    def test_endpoint_exactness_all_evaluators(self, coeffs):
        p = BernsteinPoly(coeffs)
        for evaluate in (
            de_casteljau,
            lambda q, s: comp_de_casteljau_k(q, s, 2),
            lambda q, s: comp_de_casteljau_k(q, s, 3),
        ):
            assert evaluate(p, 0.0) == coeffs[0]
            assert evaluate(p, 1.0) == coeffs[-1]


class TestCompDeCasteljau:
    def test_spotlight_point_collapses_to_zero(self):
        # base value u/16 and correction -u/16 cancel exactly
        assert comp_de_casteljau_k(QUARTIC, SPOTLIGHT, 2) == 0.0

    def test_s_zero(self):
        assert comp_de_casteljau_k(CUBIC, 0.0, 2) == -1.0

    def test_equals_plain_when_everything_is_exact(self):
        # dyadic data, s = 0.5: every update is exact, no compensation needed
        p = BernsteinPoly([1.0, 2.0, 3.0, 4.0])
        assert comp_de_casteljau_k(p, 0.5, 2) == de_casteljau(p, 0.5) == float(
            exact_eval(p, 0.5)
        )


class TestLocalError:
    def test_all_zero_terms(self):
        eta, l_hat = local_error_eft([0.0, 0.0, 0.0], 0.0, 5.0)
        assert eta == [0.0, 0.0, 0.0, 0.0]
        assert l_hat == 0.0
        assert local_error([0.0, 0.0, 0.0], 0.0, 1.0) == 0.0

    def test_exact_cancellation(self):
        a = 1.25e10
        eta, l_hat = local_error_eft([a, -a, 0.0], 0.0, 0.0)
        assert l_hat == 0.0
        assert all(x == 0.0 for x in eta)

    def test_small_integers(self):
        assert local_error([1.0, 2.0, 3.0], 0.0, 0.0) == 6.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            local_error_eft([1.0], 0.5, 1.0)
        with pytest.raises(ValueError):
            local_error([1.0], 0.5, 1.0)

    @given(
        st.lists(small_floats, min_size=2, max_size=9),
        small_floats,
        small_floats,
    )
    def test_eft_identity(self, e, rho, delta_b):
        eta, l_hat = local_error_eft(e, rho, delta_b)
        assert len(eta) == len(e) + 1
        lhs = Fraction(l_hat) + sum(Fraction(x) for x in eta)
        rhs = sum(Fraction(x) for x in e) + Fraction(rho) * Fraction(delta_b)
        assert lhs == rhs

    @given(
        st.lists(small_floats, min_size=2, max_size=9),
        small_floats,
        small_floats,
    )
    def test_plain_matches_eft_primary_output(self, e, rho, delta_b):
        _, l_hat = local_error_eft(e, rho, delta_b)
        assert local_error(e, rho, delta_b) == l_hat


def replay_cascade(coeffs, s, k):
    """Reference reimplementation of the K-fold cascade for shadow checking.

    Runs the same primitive calls the library makes, but asserts the exact
    filtration identity at every site and stage: carried error plus the
    convex combination of the stage values equals the new value plus all
    fresh residuals, as rationals.  Returns the K leading terms.
    """
    n = len(coeffs) - 1
    r_hat, rho = two_sum(1.0, -s)
    assert Fraction(r_hat) + Fraction(rho) == 1 - Fraction(s)
    base = list(coeffs)
    errs = [[0.0] * (n + 1) for _ in range(k - 1)]
    for level in range(n - 1, -1, -1):
        new_base = []
        new_errs = [[] for _ in range(k - 1)]
        for j in range(level + 1):
            pr, pr_err = two_prod(r_hat, base[j])
            ps, ps_err = two_prod(s, base[j + 1])
            value, sigma = two_sum(pr, ps)
            # base-stage identity: r_hat*b_j + s*b_{j+1} == value + residuals
            assert Fraction(r_hat) * Fraction(base[j]) + Fraction(s) * Fraction(
                base[j + 1]
            ) == Fraction(value) + Fraction(pr_err) + Fraction(ps_err) + Fraction(
                sigma
            )
            new_base.append(value)
            e = [pr_err, ps_err, sigma]
            delta_b = base[j]
            for f in range(k - 2):
                stage = f + 1
                assert len(e) == 5 * stage - 2
                eta, l_hat = local_error_eft(e, rho, delta_b)
                assert len(eta) == 5 * stage - 1
                ps2, t1 = two_prod(s, errs[f][j + 1])
                part, t2 = two_sum(l_hat, ps2)
                pr2, t3 = two_prod(r_hat, errs[f][j])
                updated, t4 = two_sum(part, pr2)
                eta.extend((t1, t2, t3, t4))
                assert len(eta) == 5 * (stage + 1) - 2
                # stage identity: carried error + convex combination of the
                # error triangle == updated value + all fresh residuals
                carried = sum(Fraction(x) for x in e) + Fraction(rho) * Fraction(
                    delta_b
                )
                combo = Fraction(s) * Fraction(errs[f][j + 1]) + Fraction(
                    r_hat
                ) * Fraction(errs[f][j])
                assert carried + combo == Fraction(updated) + sum(
                    Fraction(x) for x in eta
                )
                new_errs[f].append(updated)
                e = eta
                delta_b = errs[f][j]
            l_hat = local_error(e, rho, delta_b)
            last = k - 2
            new_errs[last].append(
                l_hat + (s * errs[last][j + 1]) + (r_hat * errs[last][j])
            )
        base = new_base
        errs = new_errs
    return [base[0]] + [errs[f][0] for f in range(k - 1)]


class TestCompDeCasteljauK:
    def test_k1_is_plain(self):
        rng = random.Random(7)
        for _ in range(25):
            coeffs = [rng.uniform(-4, 4) for _ in range(rng.randint(1, 9))]
            s = rng.random()
            assert comp_de_casteljau_k(coeffs, s, 1) == de_casteljau(coeffs, s)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            comp_de_casteljau_k(CUBIC, 0.5, 0)

    def test_capture_requires_k2(self):
        with pytest.raises(ValueError):
            comp_de_casteljau_k(CUBIC, 0.5, 1, capture=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comp_de_casteljau_k([], 0.5, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_nonfinite_point_rejected(self, s, k):
        with pytest.raises(ValueError, match="finite"):
            comp_de_casteljau_k(CUBIC, s, k)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: de_casteljau([1e300, 1e300], 1e10),
            lambda: comp_de_casteljau_k([1e300, -1e300, 1.0], 1e10, 1),
        ],
        ids=["de_casteljau", "comp_k1"],
    )
    def test_float_range_overflow_raises(self, evaluate):
        with pytest.raises(OverflowError, match="float range"):
            evaluate()

    @pytest.mark.parametrize("k", [2, 3])
    def test_split_overflow_raises(self, k):
        # The plain triangle gives 2.009e+300 here; split(2**1000) overflows.
        with pytest.raises(OverflowError, match=r"2\*\*996"):
            comp_de_casteljau_k([2.0**1000, -(2.0**1000), 1.0], 0.25, k)

    def test_just_inside_split_range(self):
        coeffs = [2.0**995, -(2.0**995), 1.0]
        value = comp_de_casteljau_k(coeffs, 0.25, 3)
        assert value == float(exact_eval(coeffs, 0.25)) == 6.278370745232035e298

    def test_spotlight_k4_is_correctly_rounded(self):
        value = comp_de_casteljau_k(QUARTIC, SPOTLIGHT, 4)
        exact = exact_eval(QUARTIC, SPOTLIGHT)
        t = Fraction(1001, 2**53)
        assert exact == -4 * t**3 + 8 * t**4
        assert value == float(exact)

    def test_cubic_spotlight_k3_close_to_oracle(self):
        value = comp_de_casteljau_k(CUBIC, SPOTLIGHT, 3)
        exact = exact_eval(CUBIC, SPOTLIGHT)
        assert abs(Fraction(value) - exact) / abs(exact) < Fraction(1, 10**9)

    def test_s_zero_any_k_bit_exact_with_zero_triangles(self):
        for k in (2, 3, 5):
            value, trace = comp_de_casteljau_k(QUARTIC, 0.0, k, capture=True)
            assert value == QUARTIC.coeffs[0]
            for tri in trace.error_triangles:
                assert all(x == 0.0 for level in tri for x in level)

    def test_trace_shapes_and_invariants(self):
        s = 0.7
        value, trace = comp_de_casteljau_k(QUARTIC, s, 3, capture=True)
        n = QUARTIC.degree
        assert len(trace.base_triangle) == n + 1
        assert len(trace.error_triangles) == 2
        for level in range(n + 1):
            assert len(trace.base_triangle[level]) == level + 1
            for tri in trace.error_triangles:
                assert len(tri[level]) == level + 1
        assert trace.base_triangle[n] == QUARTIC.coeffs
        for tri in trace.error_triangles:
            assert all(x == 0.0 for x in tri[n])
        assert Fraction(trace.r_hat) + Fraction(trace.rho) == 1 - Fraction(s)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cascade_matches_shadow_replay(self, k):
        rng = random.Random(100 + k)
        for _ in range(8):
            n = rng.randint(1, 7)
            coeffs = [rng.uniform(-2, 2) for _ in range(n + 1)]
            s = rng.random()
            terms = replay_cascade(coeffs, s, k)
            value, trace = comp_de_casteljau_k(coeffs, s, k, capture=True)
            assert terms[0] == trace.base_triangle[0][0]
            for f in range(k - 1):
                assert terms[f + 1] == trace.error_triangles[f][0][0]

    def test_k2_consistency_with_comp(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 8)
            coeffs = [rng.uniform(-3, 3) for _ in range(n + 1)]
            s = rng.random()
            a = once_compensated(coeffs, s)
            b = comp_de_casteljau_k(coeffs, s, 2)
            assert a == b, (coeffs, s, a, b)

    def test_accuracy_bounds_random_sample(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(2, 8)
            coeffs = [rng.uniform(-1, 1) * 10 ** rng.randint(-3, 3) for _ in range(n + 1)]
            s = rng.random()
            assert check_accuracy_bounds(coeffs, s) == []


class TestHorner:
    def test_exact_intermediates(self):
        assert horner(MonomialPoly([-1.0, 6.0, -12.0, 8.0]), 0.5) == 0.0

    def test_constant(self):
        assert horner(MonomialPoly([3.25]), 123.0) == 3.25

    def test_near_half_matches_oracle_within_growth_bound(self):
        from conftest import gamma

        s = 0.5 + 2.0**-20
        a = [-1.0, 6.0, -12.0, 8.0]
        value = horner(MonomialPoly(a), s)
        sf = Fraction(s)
        exact = sum(Fraction(c) * sf**i for i, c in enumerate(a))
        tilde = sum(abs(Fraction(c)) * sf**i for i, c in enumerate(a))
        n = len(a) - 1
        assert abs(Fraction(value) - exact) <= gamma(2 * n) * tilde

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            horner([], 1.0)


class TestFlopCount:
    def test_reference_values(self):
        assert flop_count(2, 2) == 48 * 3 + 13 == 157
        assert flop_count(5, 1) == 3 * 15 + 1 == 46

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            flop_count(4, 0)
