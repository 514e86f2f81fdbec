"""Evaluator behavior: endpoints, local errors, the cascade, bounds."""

import ast
import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casteljau import (
    CountingFloat,
    FlopCounter,
    comp_de_casteljau_k,
    count_evaluation_flops,
    evaluate,
    exact_eval,
    flop_count,
    horner,
    leading_terms,
    sum_k,
    two_sum,
)

from conftest import check_accuracy_bounds, once_compensated, signed_floats, two_prod

CUBIC = (-1.0, 1.0, -1.0, 1.0)
QUARTIC = (1.0, -0.75, 0.5, -0.25, 0.0)
U_FLOAT = 2.0**-53
SPOTLIGHT = 0.5 + 1001 * U_FLOAT

coeff_lists = st.lists(signed_floats(2.0**-50, 2.0**50), min_size=1, max_size=10)
small_floats = signed_floats(2.0**-60, 2.0**60)


def sub_rows(coeffs):
    """(level, j, sub-row) for every triangle entry of ``coeffs``.

    Entry (level, j) of each triangle of the cascade is the apex of the
    triangle of ``coeffs[j : j + n - level + 1]``.
    """
    n = len(coeffs) - 1
    for level in range(n, -1, -1):
        for j in range(level + 1):
            yield level, j, coeffs[j : j + n - level + 1]


class TestPolyTypes:
    """A polynomial is any sequence of numbers; non-floats become floats."""

    def test_int_coefficients_coerced(self):
        # Int and Fraction coefficients, in a list or a tuple, give the bits
        # of their float values, and a float even at degree 0.
        floats = [1.0, -2.0, 0.75]
        for coeffs in ([1, -2, Fraction(3, 4)], (1, -2, Fraction(3, 4))):
            for k in (1, 2, 3):
                want = comp_de_casteljau_k(floats, 0.3, k)
                assert comp_de_casteljau_k(coeffs, 0.3, k) == want
                value = comp_de_casteljau_k([2], 0.3, k)
                assert type(value) is float and value == 2.0
        assert horner([1, -2, Fraction(3, 4)], 0.3) == horner(floats, 0.3)
        assert type(horner([2], 0.3)) is float

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comp_de_casteljau_k([], 0.5, 1)
        with pytest.raises(ValueError):
            horner([], 1.0)

    @pytest.mark.parametrize("bad", ["1", b"1", bytearray(b"1")], ids=repr)
    def test_string_coefficient_rejected(self, bad):
        # float() would parse them; a coefficient must be a number.
        got = re.escape(f"coefficients must be numbers, got {bad!r}")
        for k in (1, 2, 3):
            for call in (comp_de_casteljau_k, leading_terms):
                with pytest.raises(TypeError, match=f"^comp_de_casteljau_k {got}$"):
                    call([2.0, bad], 0.5, k)
        with pytest.raises(TypeError, match=f"^horner {got}$"):
            horner([bad, 2], 0.5)
        with pytest.raises(TypeError):
            comp_de_casteljau_k([1.0, 2.0], bad, 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="^comp_de_casteljau_k coefficients must be finite$"):
            comp_de_casteljau_k([1.0, math.inf], 0.5, 1)
        with pytest.raises(ValueError, match="^horner coefficients must be finite$"):
            horner([math.nan], 1.0)

    @given(
        st.lists(small_floats, min_size=1, max_size=9),
        st.data(),
        st.sampled_from([math.inf, -math.inf, math.nan]),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_nonfinite_coefficient_anywhere_rejected(self, coeffs, data, bad, s):
        # The coefficients are scanned only when the result is not finite;
        # a non-finite coefficient must always make it so, even at s = 0 or 1
        # where the basis weights it by zero.
        coeffs[data.draw(st.integers(0, len(coeffs) - 1))] = bad
        calls = [lambda k=k: comp_de_casteljau_k(coeffs, s, k) for k in range(1, 6)]
        calls += [lambda k=k: leading_terms(coeffs, s, k) for k in range(1, 6)]
        calls += [
            lambda: horner(coeffs, s),
            lambda: count_evaluation_flops(coeffs, s, 3),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="coefficients must be finite"):
                call()


class TestDeCasteljau:
    def test_s_zero_returns_first_coefficient(self):
        assert comp_de_casteljau_k(CUBIC, 0.0, 1) == -1.0

    def test_symmetric_cancellation_at_half(self):
        assert comp_de_casteljau_k(CUBIC, 0.5, 1) == 0.0

    def test_s_one_returns_last_coefficient(self):
        assert comp_de_casteljau_k(QUARTIC, 1.0, 1) == 0.0

    def test_degree_zero(self):
        for k in (1, 2, 4):
            assert comp_de_casteljau_k([2.5], 0.3, k) == 2.5

    @given(st.lists(signed_floats(2.0**-50, 2.0**50), min_size=1, max_size=13))
    def test_endpoint_exactness_all_evaluators(self, coeffs):
        for k in (1, 2, 3):
            assert comp_de_casteljau_k(coeffs, 0.0, k) == coeffs[0]
            assert comp_de_casteljau_k(coeffs, 1.0, k) == coeffs[-1]


class TestCompDeCasteljau:
    def test_spotlight_point_collapses_to_zero(self):
        # base value u/16 and correction -u/16 cancel exactly
        assert comp_de_casteljau_k(QUARTIC, SPOTLIGHT, 2) == 0.0

    def test_s_zero(self):
        assert comp_de_casteljau_k(CUBIC, 0.0, 2) == -1.0

    def test_equals_plain_when_everything_is_exact(self):
        # dyadic data, s = 0.5: every update is exact, no compensation needed
        p = [1.0, 2.0, 3.0, 4.0]
        assert comp_de_casteljau_k(p, 0.5, 2) == comp_de_casteljau_k(p, 0.5, 1) == float(
            exact_eval(p, 0.5)
        )


class TestLocalError:
    """The local error accumulation inside the cascade, seen through the
    leading terms of every sub-row."""

    def test_all_zero_terms(self):
        # Small integers at s = 1/2: every product and sum is exact, so every
        # local error term vanishes and so does every error triangle entry.
        p = [1.0, -2.0, 3.0, 4.0, -5.0]
        for k in (2, 3, 5):
            value = comp_de_casteljau_k(p, 0.5, k)
            assert value == comp_de_casteljau_k(p, 0.5, 1) == float(exact_eval(p, 0.5))
            for _, _, sub in sub_rows(p):
                assert leading_terms(sub, 0.5, k)[1:] == (0.0,) * (k - 1)

    @given(
        st.lists(small_floats, min_size=2, max_size=8),
        st.floats(2.0**-30, 1.0),
        st.integers(3, 8),
    )
    def test_eft_identity(self, coeffs, s, k):
        # replay_cascade asserts the exact identity of every local error
        # accumulation; the library must produce the same leading terms.
        base_tri, err_tris = replay_cascade(coeffs, s, k)
        assert leading_terms(coeffs, s, k) == entry(base_tri, err_tris, 0, 0)

    @given(
        st.lists(small_floats, min_size=1, max_size=7),
        st.floats(2.0**-30, 1.0),
        st.integers(2, 5),
    )
    def test_sub_row_apex_is_triangle_entry(self, coeffs, s, k):
        # No triangle is kept: entry (level, j) of every triangle of the
        # cascade is the apex of the cascade run on its sub-row.
        base_tri, err_tris = replay_cascade(coeffs, s, k)
        for level, j, sub in sub_rows(coeffs):
            assert leading_terms(sub, s, k) == entry(base_tri, err_tris, level, j)

    @given(coeff_lists, st.floats(0.0, 1.0), st.integers(2, 5))
    def test_plain_matches_eft_primary_output(self, coeffs, s, k):
        # The last stage sums its local error without capturing residuals.
        # Its values are the ones the capturing chain of a (k + 1)-fold run
        # produces for the same stage, so on every sub-row, hence at every
        # triangle entry, the K-fold terms are a prefix of the (K + 1)-fold
        # ones.
        for _, _, sub in sub_rows(coeffs):
            assert leading_terms(sub, s, k) == leading_terms(sub, s, k + 1)[:k]


def entry(base_tri, err_tris, level, j):
    """The K terms at entry (level, j) of the triangles of replay_cascade."""
    return (base_tri[level][j], *(tri[level][j] for tri in err_tris))


def replay_cascade(coeffs, s, k):
    """Reference reimplementation of the K-fold cascade for shadow checking.

    Runs the same primitive calls the library makes, but asserts the exact
    filtration identity at every site and stage: carried error plus the
    convex combination of the stage values equals the new value plus all
    fresh residuals, as rationals.  Returns the full triangles, indexed by
    level (level n is the input row, level 0 the apex): the base triangle
    ``base_tri[level][j]`` and the k - 1 error triangles
    ``err_tris[f][level][j]``.  The products are conftest's ``two_prod``,
    the Dekker product that the kernel spells out in place.
    """
    n = len(coeffs) - 1
    r_hat, rho = two_sum(1.0, -s)
    assert Fraction(r_hat) + Fraction(rho) == 1 - Fraction(s)
    base = list(coeffs)
    # A CountingFloat s makes counted zeros, as the kernel's zeros are.
    zero = getattr(s, "zero_like", float)()
    errs = [[zero] * (n + 1) for _ in range(k - 1)]
    base_tri = [base]
    err_tris = [[tri] for tri in errs]
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
                eta = []
                l_hat = e[0]
                for x in e[1:]:
                    l_hat, t = two_sum(l_hat, x)
                    eta.append(t)
                prod, t = two_prod(rho, delta_b)
                eta.append(t)
                l_hat, t = two_sum(l_hat, prod)
                eta.append(t)
                assert len(eta) == 5 * stage - 1
                # local error identity: l_hat plus its residuals is exactly
                # the carried error sum(e) + rho * delta_b
                assert Fraction(l_hat) + sum(Fraction(x) for x in eta) == sum(
                    Fraction(x) for x in e
                ) + Fraction(rho) * Fraction(delta_b)
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
            l_hat = e[0]
            for x in e[1:]:
                l_hat = l_hat + x
            l_hat = l_hat + (rho * delta_b)
            last = k - 2
            new_errs[last].append(
                l_hat + (s * errs[last][j + 1]) + (r_hat * errs[last][j])
            )
        base = new_base
        errs = new_errs
        base_tri.insert(0, base)
        for f in range(k - 1):
            err_tris[f].insert(0, errs[f])
    return base_tri, err_tris


class TestCompDeCasteljauK:
    def test_k0_rejected(self):
        # Also any k that is not an int, even an integral float or a bool.
        for k in (0, -1, 2.0, "2", True, False):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                comp_de_casteljau_k(CUBIC, 0.5, k)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comp_de_casteljau_k([], 0.5, 2)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda s: comp_de_casteljau_k(CUBIC, s, 1),
            lambda s: comp_de_casteljau_k(CUBIC, s, 2),
            lambda s: comp_de_casteljau_k(CUBIC, s, 3),
            lambda s: horner([1.0, 2.0], s),
        ],
        ids=["1", "2", "3", "horner"],
    )
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_nonfinite_point_rejected(self, s, evaluate):
        with pytest.raises(ValueError, match="finite"):
            evaluate(s)

    @pytest.mark.parametrize(
        "evaluate, label",
        [
            (lambda: comp_de_casteljau_k([1e300, 1e300], 1e10, 1), "K=1"),
            (lambda: comp_de_casteljau_k([1e300, -1e300, 1.0], 1e10, 1), "K=1"),
            (lambda: horner([1.0, 1e300], 1e10), "horner"),
        ],
        ids=["k1_same_sign", "comp_k1", "horner"],
    )
    def test_float_range_overflow_raises(self, evaluate, label):
        with pytest.raises(OverflowError) as exc:
            evaluate()
        message = str(exc.value)
        assert message == f"{label} evaluation overflowed the float range"
        if label == "horner":
            # horner takes no k, so its message must not name one
            assert "K=" not in message

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
        # At s = 0 base entry (level, j) is b_j and every error entry is 0.
        for k in (2, 3, 5):
            assert comp_de_casteljau_k(QUARTIC, 0.0, k) == QUARTIC[0]
            for _, _, sub in sub_rows(QUARTIC):
                assert leading_terms(sub, 0.0, k) == (sub[0],) + (0.0,) * (k - 1)

    def test_value_is_sum_k_of_the_leading_terms(self):
        for k in range(1, 9):
            terms = leading_terms(QUARTIC, 0.7, k)
            assert type(terms) is tuple and len(terms) == k
            assert all(type(t) is float for t in terms)
            assert comp_de_casteljau_k(QUARTIC, 0.7, k) == sum_k(terms, k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_cascade_matches_shadow_replay(self, k):
        rng = random.Random(100 + k)
        for _ in range(8):
            n = rng.randint(1, 7)
            coeffs = [rng.uniform(-2, 2) for _ in range(n + 1)]
            s = rng.random()
            base_tri, err_tris = replay_cascade(coeffs, s, k)
            assert leading_terms(coeffs, s, k) == entry(base_tri, err_tris, 0, 0)

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


class TestEftCallSites:
    """perfbench traces the EFT layer by rebinding ``casteljau.evaluate``'s
    module globals ``two_sum`` and ``sum_k``.  The kernel spells out every
    EFT of its loops, so the tracer sees one ``two_sum`` per K >= 2
    evaluation, for r_hat and rho, one ``sum_k`` per evaluation, and no
    ``two_prod`` at all."""

    def test_kernel_calls_the_module_globals(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        assert "two_prod" not in vars(evaluate)
        for name, fn in (("two_sum", two_sum), ("sum_k", sum_k)):
            monkeypatch.setattr(evaluate, name, counted(name, fn))
        for n in range(9):
            coeffs = [(-1.0) ** j * (1.0 + j / 7) for j in range(n + 1)]
            for k in range(1, 9):
                calls.clear()
                comp_de_casteljau_k(coeffs, 0.3, k)
                assert calls["sum_k"] == 1, (n, k)
                assert calls["two_sum"] == (0 if k == 1 else 1), (n, k)

    def test_triangle_loops_call_no_helper(self):
        # A helper called per entry (a split, an EFT) costs CPython more than
        # its flops, so the bodies of the loops over the triangle levels, at
        # K = 1 and at K >= 2, may call only range, iter, next and list
        # methods.  A loop header runs once, and the final check of the
        # terms is no triangle loop.
        tree = ast.parse(Path(evaluate.__file__).read_text(encoding="utf-8"))
        (kernel,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "leading_terms"
        ]
        loops = [
            node
            for node in ast.walk(kernel)
            if isinstance(node, ast.For) and getattr(node.target, "id", None) == "level"
        ]
        assert len(loops) == 2
        calls = [
            node.func
            for loop in loops
            for statement in loop.body
            for node in ast.walk(statement)
            if isinstance(node, ast.Call)
        ]
        assert calls
        bad = [
            ast.unparse(func)
            for func in calls
            if not (isinstance(func, ast.Name) and func.id in ("range", "iter", "next"))
            and not (isinstance(func, ast.Attribute) and func.attr in dir(list))
        ]
        assert not bad, f"the triangle loops call {bad}"

    @pytest.mark.parametrize("n", range(9))
    def test_ledger_matches_replay_by_kind(self, n):
        # The replay calls two_sum and conftest's two_prod where the kernel
        # spells them out.  Equal tallies of each kind and equal bits show
        # that the rewrite adds, drops or rebooks no operation.
        coeffs = [(-1.0) ** j * (j + 1) / 7 for j in range(n + 1)]
        for k in range(2, 7):
            kernel, replay = FlopCounter(), FlopCounter()
            terms = leading_terms(
                [CountingFloat(c, kernel) for c in coeffs], CountingFloat(0.3, kernel), k
            )
            base_tri, err_tris = replay_cascade(
                [CountingFloat(c, replay) for c in coeffs], CountingFloat(0.3, replay), k
            )
            assert kernel.ledger() == replay.ledger(), (n, k)
            want = entry(base_tri, err_tris, 0, 0)
            assert [t.hex() for t in terms] == [t.hex() for t in want], (n, k)


class TestHorner:
    def test_exact_intermediates(self):
        assert horner([-1.0, 6.0, -12.0, 8.0], 0.5) == 0.0

    def test_constant(self):
        assert horner([3.25], 123.0) == 3.25

    def test_near_half_matches_oracle_within_growth_bound(self):
        from conftest import gamma

        s = 0.5 + 2.0**-20
        a = [-1.0, 6.0, -12.0, 8.0]
        value = horner(a, s)
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
        # Also a k that is not an int, and a negative degree; a bool is no
        # int for either.
        cases = (
            (4, 0, "k"), (3, 2.0, "k"), (-1, 2, "degree n"),
            (3, True, "k"), (True, 2, "degree n"),
        )
        for n, k, name in cases:
            with pytest.raises(ValueError, match=f"^{name} must be a"):
                flop_count(n, k)
