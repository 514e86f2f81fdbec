"""Shared fixtures: exact error-bound arithmetic and hypothesis profiles."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from casteljau import (
    ConditionReport,
    comp_de_casteljau_k,
    exact_eval,
    leading_terms,
    nearest_float,
    p_tilde,
)
from casteljau.oracle import _ratio

# Deterministic property testing: the suite doubles as a regression gate, so
# example generation must not vary between runs.
settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

U = Fraction(1, 2**53)
DATA_DIR = Path(__file__).parent / "data"


def gamma(n: int) -> Fraction:
    """The standard rounding-error growth factor n*u / (1 - n*u), exactly."""
    nu = n * U
    return nu / (1 - nu)


def cond_multiplier(n: int, k: int) -> Fraction:
    """Coefficient of ptilde(s) in ``error_bound`` (of cond in relative form).

    u**k * sum_{j=1..k} c(k, j) * 3**j * 5**(k-j) * C(n, j), where c(k, j)
    are the unsigned Stirling numbers of the first kind, the coefficients of
    x (x+1) ... (x+k-1).  For k <= 4 this is the paper's multiplier; beyond
    that it is an unproven fit, so it is refused.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"no closed-form multiplier tabulated for k={k}")
    stirling = [1]
    for i in range(k):
        stirling = [i * a + b for a, b in zip(stirling + [0], [0] + stirling)]
    q = sum(c * 3**j * 5 ** (k - j) * math.comb(n, j) for j, c in enumerate(stirling))
    return q * U**k


def two_sum(a, b):
    """Reference TwoSum: ``(fl(a+b), error)``, 6 flops, for any magnitudes.

    ``sum_k`` and the kernel spell this sum out in place of a call; this
    copy lets the tests check it alone, count it and replay the cascade
    with it.  ``result + error == a + b`` exactly when no overflow occurs.
    """
    result = a + b
    z = result - a
    error = (a - (result - z)) + (b - z)
    return result, error


def reference_sum_k(p, k):
    """Reference SumK (Ogita, Rump & Oishi) built on calls of ``two_sum``.

    ``k - 1`` error-free passes, then a plain left-to-right sum: the
    operations ``sum_k`` performs, in its order, with no check.
    """
    q = list(p)
    for _ in range(k - 1):
        for j in range(1, len(q)):
            q[j], q[j - 1] = two_sum(q[j], q[j - 1])
    total = q[0]
    for x in q[1:]:
        total = total + x
    return total


def two_prod(a, b):
    """Reference TwoProduct, Dekker's: ``(fl(a*b), error)``, 17 flops.

    The kernel spells this product out in place of a call; this copy lets
    the tests check it alone, count it and replay the cascade with it.
    ``result + error == a * b`` exactly when no overflow occurs and no
    partial product underflows.  Each operand is split into halves of at
    most 27 and 26 bits, which needs ``abs(x) < 2**996``.
    """
    result = a * b
    z = a * 134217729.0
    ah = z - (z - a)
    al = a - ah
    z = b * 134217729.0
    bh = z - (z - b)
    bl = b - bh
    error = al * bl - (((result - ah * bh) - al * bh) - ah * bl)
    return result, error


def once_compensated(coeffs, s):
    """Reference once-compensated de Casteljau, written out as its own triangle.

    The library evaluates K = 2 through ``comp_de_casteljau_k``; this
    hand-written twin is kept only so tests can check that path bit for bit.
    Every update is performed with error-free transformations; the captured
    per-site rounding errors feed a parallel error triangle, and the final
    value is the base result plus the accumulated correction.
    """
    base = list(coeffs)
    r_hat, rho = two_sum(1.0, -s)
    err = [0.0] * len(base)
    for level in range(len(base) - 2, -1, -1):
        new_base = []
        new_err = []
        for j in range(level + 1):
            pr, pr_err = two_prod(r_hat, base[j])
            ps, ps_err = two_prod(s, base[j + 1])
            value, sigma = two_sum(pr, ps)
            local = pr_err + ps_err + sigma + (rho * base[j])
            new_err.append(local + (s * err[j + 1]) + (r_hat * err[j]))
            new_base.append(value)
        base = new_base
        err = new_err
    return base[0] + err[0]


def fraction_eval(coeffs, s) -> Fraction:
    """Reference p(s): the de Casteljau triangle in ``Fraction`` arithmetic.

    The oracle takes one integer pass over the homogeneous Bernstein sum;
    this direct rational transcription of the recurrence is kept only so
    tests can check that path exactly.
    """
    row = [Fraction(c) for c in coeffs]
    sf = Fraction(s)
    r = 1 - sf
    while len(row) > 1:
        row = [r * row[j] + sf * row[j + 1] for j in range(len(row) - 1)]
    return row[0]


def exact_eval_basis(coeffs, s) -> Fraction:
    """Reference p(s) by direct basis summation, in ``Fraction`` arithmetic.

    sum_j b_j C(n, j) (1 - s)**(n - j) s**j shares no step with the oracle's
    integer pass or with the triangle, so it stays an independent check.
    """
    n = len(coeffs) - 1
    sf = Fraction(s)
    r = 1 - sf
    return sum(Fraction(c) * math.comb(n, j) * r ** (n - j) * sf**j for j, c in enumerate(coeffs))


def fraction_p_tilde(coeffs, s) -> Fraction:
    """Reference p_tilde(s): the ``Fraction`` triangle on abs(b_j)."""
    return fraction_eval([abs(Fraction(c)) for c in coeffs], s)


def _rounded(x: Fraction) -> float:
    """A nonnegative rational rounded to the nearest float, inf past the range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def fraction_condition_number(coeffs, s) -> ConditionReport:
    """Reference condition_number from the two ``Fraction`` triangles."""
    value = fraction_eval(coeffs, s)
    if value == 0:
        return ConditionReport(value, math.inf, math.inf)
    cond = fraction_p_tilde(coeffs, s) / abs(value)
    return ConditionReport(value, cond, _rounded(cond))


def fraction_relative_error(computed, exact) -> float:
    """Reference relative_error: ``Fraction`` arithmetic, rounded once."""
    return _rounded(abs(Fraction(computed) - exact) / abs(exact))


def fraction_root_form(linear_factors, scale=1) -> tuple[float, ...]:
    """Reference bernstein_from_root_form: ``Fraction`` expansion and conversion.

    The oracle expands on integers and converts through C(n-i, j-i); this
    transcription expands in ``Fraction`` arithmetic, converts with b_j =
    sum_{i<=j} [C(j, i)/C(n, i)] a_i, and checks each coefficient in the
    same order, so tests can check the floats and every refusal message.
    """
    monomial = [Fraction(*_ratio(scale))]
    for index, (root, multiplicity) in enumerate(linear_factors):
        if type(multiplicity) is not int or multiplicity < 1:
            raise ValueError(
                f"factor {index} has multiplicity {multiplicity!r}; "
                "it must be a positive integer"
            )
        rf = Fraction(*_ratio(root))
        for _ in range(multiplicity):
            shifted = [-rf * c for c in monomial] + [Fraction(0)]
            for i in range(1, len(monomial) + 1):
                shifted[i] += monomial[i - 1]
            monomial = shifted
    n = len(monomial) - 1
    floats = []
    for j in range(n + 1):
        b_j = sum(
            Fraction(math.comb(j, i), math.comb(n, i)) * monomial[i]
            for i in range(j + 1)
        )
        value = nearest_float(b_j)
        if not math.isfinite(value) or Fraction(value) != b_j:
            raise ValueError(
                f"Bernstein coefficient {j} = {b_j} is not exactly "
                "representable in binary64"
            )
        floats.append(value)
    return tuple(floats)


def error_bound(n: int, k: int, exact, tilde, leading) -> Fraction:
    """Exact a priori bound on |comp_de_casteljau_k(p, s, k) - p(s)|.

    For degree n, exact = p(s), tilde = ptilde(s) and the k leading terms:

    * k = 1: gamma(3n) * ptilde(s);
    * k = 2: u |p(s)| + 2 gamma(3n)**2 * ptilde(s);
    * k = 3, 4: (u + 3 gamma(k-1)**2) |p(s)| + gamma(2k-2)**k * sum|leading|
      + cond_multiplier(n, k) * ptilde(s), where the middle terms bound the
      final k-term compensated sum over the actual leading terms.

    These are the paper's relative bounds times |p(s)|, exact since cond *
    |p(s)| = ptilde(s), so they hold at a root too.  k > 4 raises.
    """
    if k == 1:
        return gamma(3 * n) * tilde
    if k == 2:
        return U * abs(exact) + 2 * gamma(3 * n) ** 2 * tilde
    return (
        (U + 3 * gamma(k - 1) ** 2) * abs(exact)
        + gamma(2 * k - 2) ** k * sum(abs(Fraction(v)) for v in leading)
        + cond_multiplier(n, k) * tilde
    )


def check_accuracy_bounds(coeffs, s) -> list[str]:
    """Exact per-instance ``error_bound`` checks at K = 1..4, roots included.

    Returns a list of violation descriptions (empty = all bounds hold).
    """
    n = len(coeffs) - 1
    exact = exact_eval(coeffs, s)
    tilde = p_tilde(coeffs, s)
    leading = leading_terms(coeffs, s, 4)
    out = []
    for k in range(1, 5):
        error = abs(Fraction(comp_de_casteljau_k(coeffs, s, k)) - exact)
        if error > error_bound(n, k, exact, tilde, leading[:k]):
            out.append(f"k={k} bound violated at n={n}, s={s!r}")
    return out


def signed_floats(min_mag: float, max_mag: float):
    """Strategy for finite floats with magnitude in [min_mag, max_mag]."""
    pos = st.floats(
        min_value=min_mag, max_value=max_mag, allow_nan=False, allow_infinity=False
    )
    return st.one_of(pos, pos.map(lambda x: -x))


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden sweep CSV and frozen thresholds from this run",
    )


@pytest.fixture
def regen_goldens(request) -> bool:
    return request.config.getoption("--regen-goldens")
