"""Evaluator behavior: endpoints, local errors, the cascade, bounds."""

import ast
import inspect
import math
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casteljau import (
    CountingFloat,
    FlopCounter,
    comp_de_casteljau_k,
    count_evaluation_flops,
    eft,
    evaluate,
    exact_eval,
    flop_count,
    horner,
    leading_terms,
    sum_k,
)
from casteljau.eft import MAX_K

from conftest import (
    reference_sum_k,
    signed_floats,
    two_prod,
    two_sum,
)

CUBIC = (-1.0, 1.0, -1.0, 1.0)
QUARTIC = (1.0, -0.75, 0.5, -0.25, 0.0)
U_FLOAT = 2.0**-53
SPOTLIGHT = 0.5 + 1001 * U_FLOAT
# The kernel's product templates: the paper's Dekker product, and the one
# with r_hat, s and rho split once per call, which a plain-float s runs.
TEMPLATES = ("paper", "presplit")
# The keys of evaluate._KERNELS, sorted: one kernel per K and template, and
# one for K = 1, which has no product.
KERNEL_KEYS = [(1, "paper")] + [(k, t) for k in range(2, MAX_K + 1) for t in TEMPLATES]

# Text, and values float() refuses; each is refused as no number.
NON_NUMBERS = ("1", b"1", bytearray(b"1"), None, pytest.param(object(), id="object"), 1j)

coeff_lists = st.lists(signed_floats(2.0**-50, 2.0**50), min_size=1, max_size=10)
small_floats = signed_floats(2.0**-60, 2.0**60)


@lru_cache(maxsize=None)
def compiled_kernel(k, template):
    """The kernel of ``_kernel_source(k, template)``, compiled here."""
    namespace = {}
    exec(compile(evaluate._kernel_source(k, template), "<test kernel>", "exec"), namespace)
    return namespace["kernel"]


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
        for k in (1, 2):
            with pytest.raises(ValueError):
                comp_de_casteljau_k([], 0.5, k)
        with pytest.raises(ValueError):
            horner([], 1.0)

    @pytest.mark.parametrize("bad", NON_NUMBERS, ids=repr)
    def test_string_coefficient_rejected(self, bad):
        # float() would parse text, and refuses the others with a message of
        # its own; a coefficient must be a number.
        got = re.escape(f"coefficients must be numbers, got {bad!r}")
        for k in (1, 2, 3):
            for call in (comp_de_casteljau_k, leading_terms):
                with pytest.raises(TypeError, match=f"^comp_de_casteljau_k {got}$"):
                    call([2.0, bad], 0.5, k)
        with pytest.raises(TypeError, match=f"^horner {got}$"):
            horner([bad, 2], 0.5)
        # Nor may s be text, at any entry point that takes one.
        point = f"^evaluation point s must be a number, got {re.escape(repr(bad))}$"
        for call in (leading_terms, comp_de_casteljau_k, count_evaluation_flops):
            with pytest.raises(TypeError, match=point):
                call([1.0, 2.0], bad, 2)
        with pytest.raises(TypeError, match=point):
            horner([1.0, 2.0], bad)

    def test_point_converted_like_coefficients(self):
        # An s that is not a float evaluates with the bits of float(s), a
        # Decimal s included, through every entry point that takes one.
        p = [1.0, -2.0, 0.75, 3.0]
        for s in (0, 1, True, False, 2, Fraction(1, 3), Decimal("0.3")):
            for k in range(1, MAX_K + 1):
                want = leading_terms(p, float(s), k)
                assert [t.hex() for t in leading_terms(p, s, k)] == [t.hex() for t in want]
                assert comp_de_casteljau_k(p, s, k) == comp_de_casteljau_k(p, float(s), k)
            value, counter = count_evaluation_flops(p, s, 3)
            want, want_counter = count_evaluation_flops(p, float(s), 3)
            assert value.hex() == want.hex() and counter.ledger() == want_counter.ledger()
            assert horner(p, s).hex() == horner(p, float(s)).hex()

    @pytest.mark.parametrize(
        "big", [10**400, -(10**400), Fraction(10**400)], ids=["int", "-int", "Fraction"]
    )
    def test_number_past_the_float_range_refused(self, big):
        # One message naming the input, not Python's own of the number's type.
        within = "within the float range"
        coefficient = f"^comp_de_casteljau_k coefficients must be numbers {within}$"
        point = f"^evaluation point s must be a number {within}$"
        for k in (1, 2):
            for call in (leading_terms, comp_de_casteljau_k, count_evaluation_flops):
                with pytest.raises(OverflowError, match=coefficient):
                    call([1.0, big], 0.5, k)
                with pytest.raises(OverflowError, match=point):
                    call([1.0, 2.0], big, k)
        with pytest.raises(OverflowError, match=f"^horner coefficients must be numbers {within}$"):
            horner([1.0, big], 0.5)
        with pytest.raises(OverflowError, match=point):
            horner([1.0, 2.0], big)

    @pytest.mark.parametrize("bad", [Decimal("sNaN"), Decimal("-sNaN")], ids=["sNaN", "-sNaN"])
    def test_signaling_nan_refused_as_nonfinite(self, bad):
        # float() raises its own ValueError for Decimal's signaling NaN; it is
        # a NaN, refused with the quiet NaN's message.
        invalid = "^comp_de_casteljau_k coefficients must be finite$"
        point = f"^evaluation point s must be finite, got {re.escape(repr(bad))}$"
        for k in (1, 2):
            for call in (leading_terms, comp_de_casteljau_k, count_evaluation_flops):
                with pytest.raises(ValueError, match=invalid):
                    call([1.0, bad], 0.5, k)
                with pytest.raises(ValueError, match=point):
                    call([1.0, 2.0], bad, k)
        with pytest.raises(ValueError, match="^horner coefficients must be finite$"):
            horner([1.0, bad], 0.5)
        with pytest.raises(ValueError, match=point):
            horner([1.0, 2.0], bad)
        # Any other ValueError of float() is the number's own, and propagates.
        class Own:
            def __float__(self):
                raise ValueError("boom")

        own = Own()
        for call in (
            lambda: comp_de_casteljau_k([1.0, own], 0.5, 1),
            lambda: comp_de_casteljau_k([1.0, 2.0], own, 2),
            lambda: sum_k([1.0, own], 2),
        ):
            with pytest.raises(ValueError, match="^boom$"):
                call()

    def test_nonfinite_rejected(self):
        # float() rounds Decimal("1e400") to inf: a non-finite coefficient.
        invalid = "^comp_de_casteljau_k coefficients must be finite$"
        for bad in (math.inf, Decimal("1e400")):
            with pytest.raises(ValueError, match=invalid):
                comp_de_casteljau_k([1.0, bad], 0.5, 1)
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
    def test_symmetric_cancellation_at_half(self):
        assert comp_de_casteljau_k(CUBIC, 0.5, 1) == 0.0

    def test_degree_zero(self):
        for k in (1, 2, 4):
            assert comp_de_casteljau_k([2.5], 0.3, k) == 2.5

    def test_endpoint_signed_zeros(self):
        # == cannot tell -0.0 from +0.0, so gate 3 proves bits only for
        # nonzero end coefficients.  A +0.0 one, as QUARTIC's last, keeps
        # its sign; comp_de_casteljau_k's docstring says why a -0.0 one comes
        # back with these signs.
        cases = [
            ([-0.0, 1.0, 2.0], 0.0), ([-0.0, -1.0], -0.0), ([-0.0], -0.0), (QUARTIC[::-1], 0.0),
        ]
        for p, at_k1 in cases:
            for k in range(1, MAX_K + 1):
                want = (at_k1 if k == 1 else 0.0).hex()
                assert comp_de_casteljau_k(p, 0.0, k).hex() == want, (p, k)
                assert comp_de_casteljau_k(p[::-1], 1.0, k).hex() == want, (p, k)


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
        st.lists(small_floats, min_size=1, max_size=8),
        st.floats(2.0**-30, 1.0),
        st.integers(2, MAX_K),
    )
    def test_sub_row_apex_is_triangle_entry(self, coeffs, s, k):
        # replay_cascade asserts the exact identity of every local error
        # accumulation.  No triangle is kept: entry (level, j) of every
        # triangle of the cascade, the apex included, is the apex of the
        # cascade run on its sub-row.
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
        # The refusal shows k as given: text is quoted.
        with pytest.raises(ValueError, match="^k must be a positive integer, got '2'$"):
            comp_de_casteljau_k(CUBIC, 0.5, "2")

    def test_k_past_the_largest_refused(self, monkeypatch):
        # One check and one limit for every entry point that takes k, checked
        # before a kernel is generated: the cache never holds more than MAX_K.
        assert MAX_K == 8
        monkeypatch.setattr(evaluate, "_KERNELS", {})
        calls = (
            lambda k: leading_terms(CUBIC, 0.5, k),
            lambda k: comp_de_casteljau_k(CUBIC, 0.5, k),
            lambda k: count_evaluation_flops(CUBIC, 0.5, k),
            lambda k: flop_count(3, k),
        )
        for call in calls:
            for k in range(1, MAX_K + 1):
                call(k)
            with pytest.raises(ValueError, match="^k must be at most 8, got 9$"):
                call(9)
            with pytest.raises(ValueError, match="^k must be at most 8, got 60$"):
                call(60)
        assert sorted(evaluate._KERNELS) == KERNEL_KEYS

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
    @pytest.mark.parametrize(
        "s", [math.nan, math.inf, -math.inf, pytest.param(Decimal("1e400"), id="Decimal_1e400")]
    )
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

    @settings(max_examples=300)
    @given(
        st.lists(small_floats | st.just(0.0), min_size=1, max_size=10),
        st.one_of(st.floats(0.0, 1.0), small_floats),
        st.integers(1, MAX_K),
    )
    def test_kernel_sum_has_the_bits_of_sum_k(self, coeffs, s, k):
        # The kernel sums its own terms, K floats in a tuple; the value must
        # be sum_k's, bit for bit, at every K and also where s extrapolates.
        terms = leading_terms(coeffs, s, k)
        assert type(terms) is tuple and len(terms) == k
        assert all(type(t) is float for t in terms)
        assert comp_de_casteljau_k(coeffs, s, k).hex() == sum_k(terms, k).hex()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sum_overflow_raises_after_finite_terms(self, k):
        # Extrapolated to just under the float range: every term is finite,
        # and only their sum overflows, so the sum's message is the one
        # raised, by leading_terms too, since the kernel sums what it returns.
        coeffs = [float.fromhex("-0x1.b8596eabe1c38p+981"), float.fromhex("0x1.599c7046cdb53p+982")]
        s = float.fromhex("0x1.cf53cb38a1f36p+40")
        terms = compiled_kernel(k, "paper")(coeffs[:], s)[1:]
        assert all(math.isfinite(t) for t in terms) and terms[0] == 1.7976931348623157e308
        message = "^sum_k overflowed the float range$"
        for call in (comp_de_casteljau_k, leading_terms):
            with pytest.raises(OverflowError, match=message):
                call(coeffs, s, k)
        with pytest.raises(OverflowError, match=message):
            sum_k(terms, k)


class TestEftCallSites:
    """The generated kernel spells out every EFT, the two_sum of r_hat and
    rho and the final SumK included, and is compiled in a namespace of its
    own, so it reads no module global.  No evaluation calls the EFT layer:
    of :mod:`casteljau.eft`, ``casteljau.evaluate`` imports and calls only
    the input rules, and it has no ``sum_k``, ``two_sum`` or ``two_prod``.
    perfbench's tracer wraps none of these names, so its ``eft.sum_k.calls``
    reads 0 on the evaluator.  Each K has one kernel per product template,
    and K = 1, which has no product, one kernel."""

    def test_kernel_calls_the_module_globals(self):
        rules = {"_check_k", "_check_finite", "_inputs"}
        imported = {
            name for name, value in vars(evaluate).items()
            if getattr(value, "__module__", None) == eft.__name__
        }
        assert imported == rules
        assert not {"sum_k", "_sum_k", "two_sum", "two_prod"} & set(vars(evaluate))
        functions = {f.__code__ for f in vars(eft).values() if inspect.isfunction(f)}
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in functions:
                calls[frame.f_code.co_name] += 1

        for n in range(9):
            coeffs = [(-1.0) ** j * (1.0 + j / 7) for j in range(n + 1)]
            for k in range(1, MAX_K + 1):
                comp_de_casteljau_k(coeffs, 0.3, k)
                calls.clear()
                sys.setprofile(profile)
                try:
                    comp_de_casteljau_k(coeffs, 0.3, k)
                finally:
                    sys.setprofile(None)
                # The entry step's two rules, once each, and no other eft call.
                assert calls == {"_inputs": 1, "_check_k": 1}, (n, k)

    def test_kernel_reads_no_global(self, monkeypatch):
        # Compiled from its templates alone: the splitter is a literal and
        # r_hat, rho come from the two_sum template, not from a call.
        monkeypatch.setattr(evaluate, "_KERNELS", {})
        for k in range(1, MAX_K + 1):
            leading_terms(QUARTIC, 0.3, k)
            count_evaluation_flops(QUARTIC, 0.3, k)
        assert sorted(evaluate._KERNELS) == KERNEL_KEYS
        for key, kernel in evaluate._KERNELS.items():
            assert set(kernel.__globals__) == {"__builtins__", "kernel"}, key

    @staticmethod
    def _level_loops(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.For) and getattr(node.target, "id", None) == "level"
        ]

    def test_triangle_loops_call_no_helper(self):
        # A helper called per entry (a split, an EFT) costs CPython more than
        # its flops, so the body of the loop over the triangle levels of each
        # generated kernel may call only range, len, iter, next and list
        # methods.  Its header runs once, and so does the kernel's set-up.
        for k, template in KERNEL_KEYS:
            (loop,) = self._level_loops(ast.parse(evaluate._kernel_source(k, template)))
            calls = [node.func for node in ast.walk(loop) if isinstance(node, ast.Call)]
            calls.remove(loop.iter.func)
            assert calls, (k, template)
            bad = [
                ast.unparse(func)
                for func in calls
                if not (isinstance(func, ast.Name) and func.id in ("range", "len", "iter", "next"))
                and not (isinstance(func, ast.Attribute) and func.attr in dir(list))
            ]
            assert not bad, f"the K={k} {template} triangle loops call {bad}"

    def test_every_triangle_loop_is_generated(self, monkeypatch):
        # The guard above reads the generated source, so no triangle loop
        # may be left in the module itself, and every kernel that runs, of
        # either template, is compiled from that source.
        tree = ast.parse(Path(evaluate.__file__).read_text(encoding="utf-8"))
        assert self._level_loops(tree) == []
        monkeypatch.setattr(evaluate, "_KERNELS", {})
        for k in range(1, MAX_K + 1):
            leading_terms(QUARTIC, 0.3, k)
            count_evaluation_flops(QUARTIC, 0.3, k)
        for key, kernel in evaluate._KERNELS.items():
            assert kernel.__code__.co_code == compiled_kernel(*key).__code__.co_code, key

    def test_k1_kernel_is_the_plain_triangle(self):
        # K = 1 keeps its subscript body: carried locals made K = 1 calls
        # slower, and it has no product to split nor terms to sum.
        assert evaluate._kernel_source(1, "paper") == "\n".join([
            "def kernel(t0, s):",
            "    r_hat = 1.0 - s",
            "    for level in range(len(t0) - 2, -1, -1):",
            "        for j in range(level + 1):",
            "            t0[j] = (r_hat * t0[j]) + (s * t0[j + 1])",
            "    return t0[0],",
        ])

    def test_one_kernel_per_k(self, monkeypatch):
        # The cache holds one function per (K, template) that was called,
        # whatever the polynomial or its degree: code, never data.
        monkeypatch.setattr(evaluate, "_KERNELS", {})
        seen = {}
        for k in (3, 1, 5):
            for n in range(6):
                coeffs = [(j + 1) / 3 for j in range(n + 1)]
                leading_terms(coeffs, 0.3, k)
                count_evaluation_flops(coeffs, 0.6, k)
                for key, kernel in evaluate._KERNELS.items():
                    seen.setdefault(key, set()).add(id(kernel))
        assert sorted(evaluate._KERNELS) == [key for key in KERNEL_KEYS if key[0] in (1, 3, 5)]
        assert all(len(ids) == 1 for ids in seen.values())
        assert all(type(f) is type(leading_terms) for f in evaluate._KERNELS.values())

    @pytest.mark.parametrize("n", range(9))
    def test_ledger_matches_replay_by_kind(self, n):
        # The replay calls conftest's two_sum and two_prod where the kernel
        # spells them out, and its terms go through conftest's SumK, as the
        # kernel sums its own.  Equal tallies of each kind and equal bits show
        # that the generator adds, drops, reuses or rebooks no operation.
        coeffs = [(-1.0) ** j * (j + 1) / 7 for j in range(n + 1)]
        for k in range(2, MAX_K + 1):
            kernel, replay = FlopCounter(), FlopCounter()
            terms = leading_terms(
                [CountingFloat(c, kernel) for c in coeffs], CountingFloat(0.3, kernel), k
            )
            base_tri, err_tris = replay_cascade(
                [CountingFloat(c, replay) for c in coeffs], CountingFloat(0.3, replay), k
            )
            want = entry(base_tri, err_tris, 0, 0)
            reference_sum_k(want, k)
            assert kernel.ledger() == replay.ledger(), (n, k)
            assert [t.hex() for t in terms] == [t.hex() for t in want], (n, k)


class TestProductTemplates:
    """A plain-float s runs the pre-split template: r_hat, s and, for K >= 3,
    rho are split once in the kernel head, and each varying operand once,
    where it is read from its row; the r_hat product of its stage and the
    rho product of the next share its halves, and the next entry gets them
    as its delta_b's.  So a product costs 9 flops in place of 17, and a
    triangle entry K - 1 splits.  Gate 8 counts the paper template, which
    every float subclass runs, so these tests pin the float path to it: the
    same bits, and a closed form for its operations."""

    @settings(max_examples=300)
    @given(
        st.lists(small_floats, min_size=1, max_size=10),
        st.one_of(st.floats(0.0, 1.0), small_floats),
        st.integers(2, MAX_K),
    )
    def test_float_path_matches_paper_template(self, coeffs, s, k):
        # The paper kernel returns its value, then its terms.
        want = compiled_kernel(k, "paper")(coeffs[:], s)
        got = (comp_de_casteljau_k(coeffs, s, k), *leading_terms(coeffs, s, k))
        assert (k, "presplit") in evaluate._KERNELS
        assert [t.hex() for t in got] == [t.hex() for t in want]

    def test_template_follows_the_type_of_s(self, monkeypatch):
        class Sub(float):
            pass

        monkeypatch.setattr(evaluate, "_KERNELS", {})
        for k in (1, 2, 3):
            leading_terms(QUARTIC, CountingFloat(0.3, FlopCounter()), k)
            leading_terms(QUARTIC, Sub(0.3), k)
        assert sorted(evaluate._KERNELS) == [(1, "paper"), (2, "paper"), (3, "paper")]
        # Other numbers become a plain float, as do the coefficients' types.
        for s in (0.3, Fraction(3, 10), Decimal("0.3"), 1):
            leading_terms([CountingFloat(c, FlopCounter()) for c in QUARTIC], s, 2)
        assert sorted(evaluate._KERNELS) == [(1, "paper"), (2, "paper"), (2, "presplit"), (3, "paper")]

    @pytest.mark.parametrize("k", range(2, MAX_K + 1))
    def test_presplit_flop_count(self, k):
        # A split is 1 mul and 3 subs.  The paper's 2(3k - 4) splits per
        # entry become k - 1, 5k - 7 fewer; each of the n levels splits its
        # k - 1 first delta_b's, and the head one split per constant.  The
        # kernel's SumK is the same in both.
        heads = 2 if k == 2 else 3
        for n in (0, 1, 4, 8):
            ledgers = {}
            for template in TEMPLATES:
                counter = FlopCounter()
                coeffs = [CountingFloat((-1.0) ** j * (j + 1) / 7, counter) for j in range(n + 1)]
                compiled_kernel(k, template)(coeffs, CountingFloat(0.3, counter))
                ledgers[template] = counter
            paper, presplit = ledgers["paper"], ledgers["presplit"]
            t_n = n * (n + 1) // 2
            splits = -(5 * k - 7) * t_n + (k - 1) * n + heads
            assert paper.total == flop_count(n, k)
            assert presplit.total == flop_count(n, k) + 4 * splits, (n, k)
            assert presplit.adds == paper.adds, (n, k)
            assert presplit.muls == paper.muls + splits, (n, k)
            assert presplit.subs == paper.subs + 3 * splits, (n, k)


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
        # Each refusal shows its value as given: text is quoted.
        with pytest.raises(ValueError, match="^degree n must be a nonnegative integer, got '3'$"):
            flop_count("3", 2)
        with pytest.raises(ValueError, match="^k must be a positive integer, got '2'$"):
            flop_count(3, "2")
