"""The rational oracle: exact evaluation, conditioning, constructors."""

import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casteljau
from casteljau import (
    ConditionReport,
    bernstein_from_root_form,
    comp_de_casteljau_k,
    condition_number,
    exact_eval,
    nearest_float,
    oracle,
    p_tilde,
    relative_error,
)

from casteljau.experiments import OCTIC, SPOTLIGHT_S, SweepRecord
from conftest import (
    U,
    exact_eval_basis,
    fraction_condition_number,
    fraction_eval,
    fraction_p_tilde,
    fraction_relative_error,
    fraction_root_form,
    signed_floats,
)

QUARTIC = (1.0, -0.75, 0.5, -0.25, 0.0)
CUBIC = (-1.0, 1.0, -1.0, 1.0)

coeff_lists = st.lists(signed_floats(2.0**-60, 2.0**60), min_size=1, max_size=9)
unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestExactEval:
    def test_quartic_root(self):
        assert exact_eval(QUARTIC, 0.5) == 0

    def test_quartic_at_three_quarters(self):
        # (2s-1)^3 (s-1) at 3/4: (1/2)^3 * (-1/4)
        assert exact_eval(QUARTIC, 0.75) == Fraction(-1, 32)

    @given(unit_floats)
    def test_constant_partition_of_unity(self, s):
        assert exact_eval([7.25] * 6, s) == Fraction(29, 4)

    @given(coeff_lists, signed_floats(2.0**-30, 2.0**4))
    def test_two_exact_paths_agree(self, coeffs, s):
        assert exact_eval(coeffs, s) == exact_eval_basis(coeffs, s)

    def test_accepts_exact_rational_point(self):
        assert exact_eval(QUARTIC, Fraction(3, 4)) == Fraction(-1, 32)


class TestPTilde:
    def test_cubic_at_half(self):
        assert p_tilde(CUBIC, 0.5) == 1

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8), unit_floats)
    def test_nonnegative_coefficients_reduce_to_exact_eval(self, coeffs, s):
        assert p_tilde(coeffs, s) == exact_eval(coeffs, s)

    def test_octic_closed_form(self):
        octic = bernstein_from_root_form([(1, 1), (Fraction(3, 4), 7)])
        for s in (0.0, 0.125, 0.5, 0.73, 0.75, 0.77, 1.0):
            sf = Fraction(s)
            assert p_tilde(octic, s) == (sf - 1) * (sf / 2 - Fraction(3, 4)) ** 7

    def test_domain_restricted(self):
        with pytest.raises(ValueError):
            p_tilde(CUBIC, 1.5)
        with pytest.raises(ValueError):
            p_tilde(CUBIC, -0.01)
        # past the float range: the same error, not an OverflowError
        with pytest.raises(ValueError, match="s in \\[0, 1\\]"):
            p_tilde([1.0, 2.0], Fraction(10**400))


class TestNonFiniteInputs:
    """inf, -inf and nan, as a coefficient or as s, raise one ValueError."""

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
    @pytest.mark.parametrize(
        "fn",
        [exact_eval, p_tilde, condition_number],
        ids=lambda fn: fn.__name__,
    )
    def test_polynomial_functions(self, fn, bad):
        message = f"^the oracle needs finite numbers, got {bad!r}$"
        for p, s in (([1.0, bad], 0.5), ([bad], 0.5), ([bad, 2.0, 3.0], 0.0), ([1.0, 2.0], bad)):
            with pytest.raises(ValueError, match=message):
                fn(p, s)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
    def test_relative_error(self, bad):
        message = f"^the oracle needs finite numbers, got {bad!r}$"
        for computed, exact in ((bad, Fraction(1)), (1.0, bad)):
            with pytest.raises(ValueError, match=message):
                relative_error(computed, exact)


class TestStringInputs:
    """A string, which ``Fraction`` would parse, raises one TypeError."""

    @pytest.mark.parametrize("bad", ["1/3", b"1"], ids=repr)
    @pytest.mark.parametrize(
        "fn",
        [exact_eval, p_tilde, condition_number],
        ids=lambda fn: fn.__name__,
    )
    def test_polynomial_functions(self, fn, bad):
        message = "^" + re.escape(f"the oracle needs numbers, got {bad!r}") + "$"
        for p, s in (([bad, 2.0], 0.5), ([1.0, 2.0], bad)):
            with pytest.raises(TypeError, match=message):
                fn(p, s)

    def test_relative_error_and_root_form(self):
        for call in (
            lambda: relative_error("1", Fraction(1)),
            lambda: relative_error(1.0, "1"),
            lambda: bernstein_from_root_form([("1/2", 1)]),
            lambda: bernstein_from_root_form([(0.5, 1)], scale="2"),
        ):
            with pytest.raises(TypeError, match="^the oracle needs numbers, got '"):
                call()


@pytest.mark.parametrize(
    "fn", [exact_eval, p_tilde, condition_number], ids=lambda fn: fn.__name__
)
def test_empty_polynomial_rejected(fn):
    with pytest.raises(ValueError, match="^polynomial needs at least one coefficient$"):
        fn([], 0.5)


class TestConditionNumber:
    def test_single_coefficient_is_perfectly_conditioned(self):
        report = condition_number([5.0], 0.3)
        assert report.cond == 1
        assert report.rounded_cond == 1.0

    def test_root_reports_infinity(self):
        report = condition_number(CUBIC, 0.5)
        assert report.exact_value == 0
        assert report.cond == math.inf
        assert report.rounded_cond == math.inf

    def test_cubic_at_quarter(self):
        report = condition_number(CUBIC, 0.25)
        assert report.exact_value == Fraction(-1, 8)
        assert report.cond == 8

    @given(coeff_lists, unit_floats)
    def test_cond_at_least_one(self, coeffs, s):
        report = condition_number(coeffs, s)
        if report.cond != math.inf:
            assert report.cond >= 1

    @given(st.lists(st.floats(2.0**-40, 2.0**40), min_size=1, max_size=8), unit_floats)
    def test_single_sign_means_cond_one(self, coeffs, s):
        assert condition_number(coeffs, s).cond == 1

    def test_domain_restricted(self):
        with pytest.raises(ValueError):
            condition_number(CUBIC, 2.0)
        with pytest.raises(ValueError, match="s in \\[0, 1\\]"):
            condition_number([1.0, 2.0], Fraction(10**400))


class TestRelativeError:
    def test_exact_match_is_zero(self):
        assert relative_error(0.125, Fraction(1, 8)) == 0.0

    def test_correct_rounding_is_within_u(self):
        exact = Fraction(1, 3)
        assert relative_error(float(exact), exact) <= float(U)

    def test_total_cancellation_is_one(self):
        t = 1001 * Fraction(1, 2**53)
        assert relative_error(0.0, -4 * t**3 + 8 * t**4) == 1.0

    def test_zero_exact_rejected(self):
        with pytest.raises(ZeroDivisionError):
            relative_error(1.0, Fraction(0))


class TestNearestFloat:
    @given(signed_floats(2.0**-300, 2.0**300))
    def test_round_trip_is_exact(self, x):
        assert nearest_float(Fraction(x)) == x

    def test_overflow_maps_to_infinity(self):
        assert nearest_float(Fraction(2) ** 5000) == math.inf
        assert nearest_float(-(Fraction(2) ** 5000)) == -math.inf


odd_fractions = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.integers(0, 10**6).map(lambda k: 2 * k + 1)
)
rationals = st.one_of(
    odd_fractions,
    st.integers(-(10**20), 10**20),
    signed_floats(2.0**-60, 2.0**60),
    st.just(0.0),
    st.fractions(max_denominator=10**9),
)
rational_lists = st.lists(rationals, min_size=1, max_size=9)
non_dyadic_units = st.builds(
    lambda den, num: Fraction(num % (den + 1), den),
    st.integers(1, 10**6).map(lambda k: 2 * k + 1),
    st.integers(0, 2**40),
)
unit_points = st.one_of(
    unit_floats, non_dyadic_units, st.fractions(0, 1, max_denominator=10**9)
)
any_points = st.one_of(
    unit_points,
    st.floats(-8.0, 8.0),
    st.fractions(-8, 8, max_denominator=10**6),
    st.integers(-5, 5),
)


class TestMatchesFractionTriangle:
    """The one integer pass gives exactly the ``Fraction`` triangle's results."""

    @given(rational_lists, any_points)
    def test_exact_eval(self, coeffs, s):
        value = exact_eval(coeffs, s)
        assert type(value) is Fraction
        assert value == fraction_eval(coeffs, s)

    @given(rational_lists, unit_points)
    def test_p_tilde(self, coeffs, s):
        assert p_tilde(coeffs, s) == fraction_p_tilde(coeffs, s)

    @given(rational_lists, unit_points)
    def test_condition_number(self, coeffs, s):
        report = condition_number(coeffs, s)
        expected = fraction_condition_number(coeffs, s)
        assert report == expected
        assert _same_bits(report.rounded_cond, expected.rounded_cond)
        assert report.cond == math.inf or type(report.cond) is Fraction

    @given(rationals, unit_points)
    def test_degree_zero(self, c, s):
        assert exact_eval([c], s) == fraction_eval([c], s) == Fraction(c)
        assert p_tilde([c], s) == abs(Fraction(c))
        assert condition_number([c], s) == fraction_condition_number([c], s)

    @given(rational_lists, non_dyadic_units)
    def test_non_dyadic_point(self, coeffs, s):
        assert exact_eval(coeffs, s) == fraction_eval(coeffs, s)
        assert condition_number(coeffs, s) == fraction_condition_number(coeffs, s)

    @given(rational_lists, st.one_of(st.floats(1.0, 64.0), st.floats(-64.0, 0.0)))
    def test_exact_eval_outside_unit_interval(self, coeffs, s):
        assert exact_eval(coeffs, s) == fraction_eval(coeffs, s)


class TestOnePassEdges:
    """The one-pass sum where a or q - a is zero, and up to degree 24."""

    @pytest.mark.parametrize("s", [0.0, 0, Fraction(0), 1.0, 1, Fraction(1)])
    @given(coeffs=rational_lists)
    def test_endpoints(self, s, coeffs):
        end = Fraction(coeffs[0] if s == 0 else coeffs[-1])
        assert exact_eval(coeffs, s) == fraction_eval(coeffs, s) == end
        assert p_tilde(coeffs, s) == fraction_p_tilde(coeffs, s) == abs(end)
        assert condition_number(coeffs, s) == fraction_condition_number(coeffs, s)

    @pytest.mark.parametrize("s", [0.0, 1, Fraction(1)])
    def test_root_at_an_endpoint(self, s):
        coeffs = [0.0, 1.0, -2.0, 0.0]
        assert condition_number(coeffs, s) == fraction_condition_number(coeffs, s)
        assert condition_number(coeffs, s).cond == math.inf

    @given(st.lists(rationals, min_size=10, max_size=25), unit_points)
    def test_degrees_to_24(self, coeffs, s):
        assert exact_eval(coeffs, s) == fraction_eval(coeffs, s)
        assert p_tilde(coeffs, s) == fraction_p_tilde(coeffs, s)
        assert condition_number(coeffs, s) == fraction_condition_number(coeffs, s)


class TestIntegerRow:
    """A prebuilt row and the coefficients it came from give the same answers."""

    @given(rational_lists, unit_points)
    def test_row_and_coefficients_agree(self, coeffs, s):
        row = oracle._integer_row(coeffs)
        assert oracle._integer_row(row) is row
        assert exact_eval(row, s) == exact_eval(coeffs, s)
        assert p_tilde(row, s) == p_tilde(coeffs, s)
        from_row, from_coeffs = condition_number(row, s), condition_number(coeffs, s)
        for field in ConditionReport._fields:
            a, b = getattr(from_row, field), getattr(from_coeffs, field)
            assert type(a) is type(b) and a == b, field
        assert _same_bits(from_row.rounded_cond, from_coeffs.rounded_cond)

    @given(rational_lists, any_points)
    def test_exact_eval_off_the_unit_interval(self, coeffs, s):
        assert exact_eval(oracle._integer_row(coeffs), s) == exact_eval(coeffs, s)

    @pytest.mark.parametrize(
        "p, error, message",
        [
            ([], ValueError, "polynomial needs at least one coefficient"),
            ([1.0, math.inf], ValueError, "the oracle needs finite numbers, got inf"),
            ([math.nan], ValueError, "the oracle needs finite numbers, got nan"),
            ([-math.inf, 2.0], ValueError, "the oracle needs finite numbers, got -inf"),
            (["1/3", 2.0], TypeError, "the oracle needs numbers, got '1/3'"),
            ([1.0, b"1"], TypeError, "the oracle needs numbers, got b'1'"),
        ],
        ids=repr,
    )
    def test_refusals_are_the_same_in_both_forms(self, p, error, message):
        pattern = "^" + re.escape(message) + "$"
        with pytest.raises(error, match=pattern):
            oracle._integer_row(p)
        for fn in (exact_eval, p_tilde, condition_number):
            with pytest.raises(error, match=pattern):
                fn(p, 0.5)

    def test_point_is_checked_before_the_coefficients(self):
        row = oracle._integer_row(QUARTIC)
        for p in (QUARTIC, row, [], [math.nan], ["1/3"]):
            for fn in (exact_eval, p_tilde, condition_number):
                with pytest.raises(ValueError, match="^the oracle needs finite numbers, got nan$"):
                    fn(p, math.nan)
                with pytest.raises(TypeError, match="^the oracle needs numbers, got '1'$"):
                    fn(p, "1")
            with pytest.raises(ValueError, match=r"^p_tilde requires s in \[0, 1\], got 2\.0$"):
                p_tilde(p, 2.0)
            with pytest.raises(ValueError, match=r"^condition_number requires s in \[0, 1\]"):
                condition_number(p, -0.5)


def _same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


class TestRelativeErrorMatchesFraction:
    """relative_error's integer ratio rounds exactly as the ``Fraction`` form."""

    @given(signed_floats(2.0**-300, 2.0**300), rationals.filter(lambda x: x != 0))
    def test_arbitrary(self, computed, exact):
        exact = Fraction(exact)
        assert _same_bits(relative_error(computed, exact), fraction_relative_error(computed, exact))

    @given(
        signed_floats(2.0**-1000, 2.0**1000),
        st.integers(1, 2**10),
        st.integers(0, 500).map(lambda k: 2 * k + 1),
        st.integers(1040, 1100),
    )
    def test_subnormal(self, computed, m, d, k):
        exact = Fraction(computed) * (1 + Fraction(m, d << k))
        expected = fraction_relative_error(computed, exact)
        assert expected < 2.0**-1022
        assert _same_bits(relative_error(computed, exact), expected)

    @given(
        st.floats(2.0**1000, 2.0**1023 * (2 - 2.0**-52)),
        st.integers(0, 2**29).map(lambda k: 2 * k + 1),
        st.integers(24, 34),
    )
    def test_near_and_past_overflow(self, computed, m, j):
        exact = Fraction(m, 2**j)
        assert _same_bits(relative_error(computed, exact), fraction_relative_error(computed, exact))

    def test_overflow_is_infinity(self):
        assert relative_error(1e308, Fraction(1, 2**2000)) == math.inf
        assert relative_error(-1e308, -Fraction(1, 2**2000)) == math.inf

    @given(st.integers(-2000, 2000).filter(lambda j: j != 0), st.sampled_from([1, 2, 3]))
    def test_exact_root_neighbours(self, j, k):
        s = 0.75 + j * 2.0**-53
        exact = fraction_eval(OCTIC, s)
        computed = comp_de_casteljau_k(OCTIC, s, k)
        assert _same_bits(relative_error(computed, exact), fraction_relative_error(computed, exact))

    def test_spotlight_total_cancellation(self):
        exact = fraction_eval(QUARTIC, SPOTLIGHT_S)
        assert relative_error(comp_de_casteljau_k(QUARTIC, SPOTLIGHT_S, 2), exact) == 1.0
        for k in (3, 4):
            computed = comp_de_casteljau_k(QUARTIC, SPOTLIGHT_S, k)
            assert _same_bits(
                relative_error(computed, exact), fraction_relative_error(computed, exact)
            )


class TestBernsteinFromMonomial:
    """The exact monomial-to-Bernstein conversion behind bernstein_from_root_form."""

    def test_linear_precision(self):
        assert bernstein_from_root_form([(0, 1)]) == (0.0, 1.0)

    def test_cubic(self):
        # 8 (s - 1/2)^3 = 8s^3 - 12s^2 + 6s - 1
        p = bernstein_from_root_form([(Fraction(1, 2), 3)], scale=8)
        assert p == (-1.0, 1.0, -1.0, 1.0)
        for s in (Fraction(1, 7), Fraction(2, 5), Fraction(1, 2), Fraction(8, 9), 1):
            expected = -1 + 6 * s - 12 * s**2 + 8 * s**3
            assert exact_eval(p, s) == expected

    def test_quartic_expansion(self):
        # 8 (s - 1/2)^3 (s - 1) = (2s-1)^3 (s-1) = 8s^4 - 20s^3 + 18s^2 - 7s + 1
        p = bernstein_from_root_form([(Fraction(1, 2), 3), (1, 1)], scale=8)
        assert p == (1.0, -0.75, 0.5, -0.25, 0.0)
        assert all(type(c) is float for c in p)

    def test_unrepresentable_coefficient_names_index(self):
        with pytest.raises(ValueError, match="coefficient 0"):
            bernstein_from_root_form([(Fraction(1, 3), 1)])
        # b_0 = -2**-60 is fine; b_1 = 1 - 2**-60 needs 61 bits
        with pytest.raises(ValueError, match="coefficient 1"):
            bernstein_from_root_form([(2.0**-60, 1)])
        # beyond the float range: the same error, not a bare OverflowError
        with pytest.raises(ValueError, match="coefficient 0"):
            bernstein_from_root_form([], scale=2**2000)
        # a multiplicity that is not a positive int names its factor
        with pytest.raises(ValueError, match="factor 0"):
            bernstein_from_root_form([(0.5, -1)])
        with pytest.raises(ValueError, match="factor 1"):
            bernstein_from_root_form([(0.5, 1), (0.5, 2.5)])
        with pytest.raises(ValueError, match="factor 1"):
            bernstein_from_root_form([(0.5, 1), (0.25, 0)])
        # a bool is not an int multiplicity
        with pytest.raises(ValueError, match="factor 0 has multiplicity"):
            bernstein_from_root_form([(0.5, True)])


class TestBernsteinFromRootForm:
    def test_octic(self):
        p = bernstein_from_root_form([(1, 1), (Fraction(3, 4), 7)])
        assert len(p) == 9
        assert exact_eval(p, Fraction(3, 4)) == 0
        assert exact_eval(p, 0) == Fraction(2187, 16384)

    def test_scaled_triple_root(self):
        p = bernstein_from_root_form([(Fraction(1, 2), 3)], scale=8)
        assert p == (-1.0, 1.0, -1.0, 1.0)

    def test_empty_product(self):
        assert bernstein_from_root_form([]) == (1.0,)

    def test_nonfinite_root_or_scale_rejected(self):
        for factors, scale in (([(math.inf, 1)], 1), ([(0.5, 1)], math.nan)):
            with pytest.raises(ValueError, match="^the oracle needs finite numbers"):
                bernstein_from_root_form(factors, scale)

    def test_agrees_with_monomial_route(self):
        # (s - 1/4)^2 (s - 1) = s^3 - 3/2 s^2 + 9/16 s - 1/16
        p = bernstein_from_root_form([(Fraction(1, 4), 2), (1, 1)])
        for s in (0, Fraction(1, 4), Fraction(1, 3), Fraction(5, 7), Fraction(9, 8), 1):
            expected = s**3 - Fraction(3, 2) * s**2 + Fraction(9, 16) * s - Fraction(1, 16)
            assert exact_eval(p, s) == expected


def _lcm_of_binomials(n: int) -> int:
    return math.lcm(*(math.comb(n, i) for i in range(n + 1)))


FRACTION_ROOTS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 16))
SPECIAL_SCALES = st.sampled_from([2**2000, math.inf, -math.inf, math.nan])


@st.composite
def root_forms(draw):
    """Roots p/q with q <= 16, multiplicities 1..4, and scales of every kind."""
    factors = draw(st.lists(st.tuples(FRACTION_ROOTS, st.integers(1, 4)), max_size=4))
    n = sum(m for _, m in factors)
    denominators = math.prod(r.denominator**m for r, m in factors)
    scale = draw(
        st.one_of(
            st.sampled_from([_lcm_of_binomials(n), _lcm_of_binomials(n) * denominators]),
            st.integers(-(10**6), 10**6),
            st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 16)),
            st.floats(),
            SPECIAL_SCALES,
        )
    )
    return factors, scale


def _outcome(construct, factors, scale):
    """The coefficients' hex strings, or the exception's type and message."""
    try:
        coefficients = construct(factors, scale)
    except Exception as error:  # the refusals are compared, not raised
        return type(error), str(error)
    assert type(coefficients) is tuple and all(type(c) is float for c in coefficients)
    return tuple(c.hex() for c in coefficients)


class TestIntegerRootForm:
    """The integer expansion against conftest's ``Fraction`` reference."""

    @settings(max_examples=300)
    @given(root_forms())
    @example(([(Fraction(1, 3), 1)], 3))
    @example(([(Fraction(1, 3), 2), (Fraction(2, 7), 1)], 9 * 7 * 3))
    @example(([(2.0**-60, 1)], 1))
    @example(([(Fraction(1, 2), 4)], 2.0**-1074))
    @example(([(Fraction(1, 16), 4)], 2.0**1020))
    @example(([], 0))
    def test_matches_fraction_reference(self, case):
        factors, scale = case
        assert _outcome(bernstein_from_root_form, factors, scale) == _outcome(
            fraction_root_form, factors, scale
        )

    @given(
        st.lists(
            st.tuples(
                FRACTION_ROOTS | st.sampled_from([0.75, math.inf, math.nan]),
                st.integers(0, 4) | st.just(True),
            ),
            max_size=4,
        ),
        st.sampled_from([1, 3, Fraction(1, 3)]) | SPECIAL_SCALES,
    )
    @example([(0.5, 0)], math.nan)
    @example([(math.nan, 1), (0.5, 0)], 1)
    @example([(0.5, True), (math.inf, 1)], 1)
    @example([(math.nan, 0)], 1)
    def test_refusals_come_in_the_same_order(self, factors, scale):
        # The scale first, then each factor's multiplicity before its root,
        # then the coefficients from b_0 up.
        assert _outcome(bernstein_from_root_form, factors, scale) == _outcome(
            fraction_root_form, factors, scale
        )

    def test_degree_twelve_with_non_dyadic_roots(self):
        n = 12
        factors = [(Fraction(1, 3), 5), (Fraction(-7, 5), 3), (Fraction(15, 16), 4)]
        scale = _lcm_of_binomials(n) * 3**5 * 5**3 * 16**4
        p = bernstein_from_root_form(factors, scale)
        assert p == fraction_root_form(factors, scale)
        assert exact_eval(p, Fraction(1, 3)) == 0


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module an import statement in ``path`` names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "casteljau" + (f".{module}" if module else "")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_oracle_imports_nothing_from_evaluate():
    # The judge shares no code with the evaluator it judges.
    imported = _imported_modules(Path(oracle.__file__))
    assert not {n for n in imported if n.split(".")[:2] == ["casteljau", "evaluate"]}


def test_no_module_imports_numpy():
    # Loading numpy would roughly double the CLI's resident memory; a caller
    # who wants arrays of points brings them.
    for path in Path(oracle.__file__).parent.glob("*.py"):
        imported = _imported_modules(path)
        assert not {n for n in imported if n.split(".")[0] == "numpy"}, path.name


def test_no_module_imports_dataclasses():
    # A dataclass generates and compiles its methods at every import.
    for path in Path(oracle.__file__).parent.glob("*.py"):
        imported = _imported_modules(path)
        assert not {n for n in imported if n.split(".")[0] == "dataclasses"}, path.name


def test_no_module_imports_inspect():
    # The CLI reads runner parameters from their code objects; inspect would
    # pull ast, dis and tokenize into every start-up.
    for path in Path(oracle.__file__).parent.glob("*.py"):
        imported = _imported_modules(path)
        assert not {n for n in imported if n.split(".")[0] == "inspect"}, path.name


def _names_used(path: Path) -> set[str]:
    """Every name a module reads, bare or as an attribute, outside the
    top-level definition that binds it."""
    used = set()
    for statement in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        used |= names - {getattr(statement, "name", None)}
    return used


def _callers() -> list[Path]:
    """The library's modules but __init__, and perfbench's non-test modules."""
    package = Path(oracle.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    paths = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    return paths + [path for path in perfbench.glob("*.py") if not path.name.startswith("test_")]


def test_every_public_name_has_a_caller_outside_the_tests():
    # API that only tests call is deleted or moved into the tests.  The
    # re-export in __init__ is not a use, and neither is a test.  Exempt:
    # two_prod_fma, kept public on purpose, because gate 2 proves it
    # bit-identical to Dekker's product, which the kernel spells out, and
    # the planned fma product EFT (ROADMAP.md) would put it to work there.
    used = set().union(*map(_names_used, _callers()))
    unused = set(casteljau.__all__) - used - {"two_prod_fma"}
    assert not unused, f"only tests call {sorted(unused)}"


def _attributes_read(path: Path) -> set[str]:
    """Every attribute a module reads as a value; a call target is not read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in called
    }


def test_every_result_field_has_a_reader():
    # A result type holds only what the library or perfbench reads, so
    # cj.oracle.p_tilde(...), a call, is no reader of a field p_tilde.
    read = set().union(*map(_attributes_read, _callers()))
    for result in (ConditionReport, SweepRecord):
        unread = [field for field in result._fields if field not in read]
        assert not unread, f"only tests read {result.__name__} fields {unread}"


def test_condition_report_fields_are_pinned():
    # Built positionally (conftest's reference does), so the order is the API.
    assert ConditionReport._fields == ("exact_value", "cond", "rounded_cond")
