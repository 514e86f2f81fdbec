"""Acceptance suite: one test per shipping criterion, fixed seeds throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Criterion 7 compares against golden files under
``tests/data/``; regenerate them (first run on a new oracle, or after an
intentional change) with ``pytest tests/test_acceptance.py --regen-goldens``.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from casteljau import (
    comp_de_casteljau_k,
    exact_eval,
    leading_terms,
    nearest_float,
    two_prod_fma,
    two_sum,
)
from casteljau.experiments import (
    OCTIC,
    render_csv,
    run_condition_sweep,
    run_flop_report,
    run_root_neighborhood,
    run_table_reproduction,
)

from conftest import DATA_DIR, U, check_accuracy_bounds, once_compensated, two_prod

U_FLOAT = float(U)
TWO_U = 2 * U

GOLDEN_CSV = DATA_DIR / "root_neighborhood.csv"
GOLDEN_THRESHOLDS = DATA_DIR / "golden_thresholds.json"


def _random_magnitude(rng: random.Random) -> float:
    # magnitude in [2**-300, 2**300), sign uniform
    value = rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-300, 299)
    return value if rng.random() < 0.5 else -value


@pytest.fixture(scope="module")
def eft_pairs():
    rng = random.Random(20260801)
    return [(_random_magnitude(rng), _random_magnitude(rng)) for _ in range(10**5)]


def test_criterion_1_eft_exactness(eft_pairs):
    start = time.monotonic()
    failures = 0
    for a, b in eft_pairs:
        s, e = two_sum(a, b)
        if Fraction(s) + Fraction(e) != Fraction(a) + Fraction(b):
            failures += 1
        p, q = two_prod(a, b)
        if Fraction(p) + Fraction(q) != Fraction(a) * Fraction(b):
            failures += 1
    elapsed = time.monotonic() - start
    print(f"criterion 1: {len(eft_pairs)} pairs, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_2_fma_agreement(eft_pairs):
    # two_prod_fma always exists here: a software fallback rounds the exact
    # rational a*b+c once, which is bit-identical to a hardware fma.  So
    # this check never needs to be skipped.
    mismatches = sum(
        1 for a, b in eft_pairs if two_prod(a, b) != two_prod_fma(a, b)
    )
    print(f"criterion 2: {len(eft_pairs)} pairs, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_3_endpoint_exactness():
    rng = random.Random(20260803)
    checked = 0
    for _ in range(10**3):
        n = rng.randint(0, 12)
        coeffs = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-30, 30) for _ in range(n + 1)]
        evaluations = [
            comp_de_casteljau_k(coeffs, 0.0, 1),
            comp_de_casteljau_k(coeffs, 0.0, 2),
            comp_de_casteljau_k(coeffs, 0.0, 3),
            comp_de_casteljau_k(coeffs, 0.0, 5),
        ]
        assert all(v == coeffs[0] for v in evaluations), (coeffs, evaluations)
        evaluations = [
            comp_de_casteljau_k(coeffs, 1.0, 1),
            comp_de_casteljau_k(coeffs, 1.0, 2),
            comp_de_casteljau_k(coeffs, 1.0, 3),
            comp_de_casteljau_k(coeffs, 1.0, 5),
        ]
        assert all(v == coeffs[-1] for v in evaluations), (coeffs, evaluations)
        checked += 1
    print(f"criterion 3: {checked} polynomials, endpoints exact for every evaluator")


def test_criterion_4_error_bounds():
    rng = random.Random(20260804)
    violations = []
    for _ in range(10**3):
        n = rng.randint(2, 10)
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
        s = rng.random()
        violations.extend(check_accuracy_bounds(coeffs, s))
    print(f"criterion 4: 1000 cases, {len(violations)} bound violations")
    assert violations == []


def test_criterion_5_closed_form_triangle():
    # The runner audits all ten triangle entries bitwise and raises on any
    # mismatch; the headline values are re-asserted here directly.
    lines = run_table_reproduction()
    assert lines[-1].endswith("mismatches: 0")

    s = 0.5 + 1001 * U_FLOAT
    coeffs = (1.0, -0.75, 0.5, -0.25, 0.0)
    assert leading_terms(coeffs, s, 2) == (2.0**-57, -(2.0**-57))
    assert comp_de_casteljau_k(coeffs, s, 2) == 0.0
    t = 1001 * U
    assert exact_eval(coeffs, s) == -4 * t**3 + 8 * t**4
    print("criterion 5: every triangle entry matches its closed form bit-exactly")


def test_criterion_6_condition_sweep_thresholds():
    start = time.monotonic()
    records = run_condition_sweep()
    elapsed = time.monotonic() - start
    assert len(records) == 86 * 4
    assert elapsed < 60.0

    compensated_violations = [
        (r.k, r.cond, r.rel_err)
        for r in records
        if r.k >= 2
        and Fraction(r.cond) <= (1 / U) ** (r.k - 1)
        and r.rel_err > TWO_U
    ]
    assert compensated_violations == [], compensated_violations

    plain_cutoff = (1 / U) * Fraction(1, 100)
    plain_rows = [r for r in records if r.k == 1 and Fraction(r.cond) <= plain_cutoff]
    plain_violations = [(r.cond, r.rel_err) for r in plain_rows if r.rel_err > TWO_U]
    print(
        f"criterion 6: {elapsed:.1f}s; compensated clauses (K=2,3,4) hold on all "
        f"qualifying rows; plain clause violated on {len(plain_violations)} of "
        f"{len(plain_rows)} qualifying rows"
    )
    assert plain_violations == [], (
        "The plain evaluator has no 2u accuracy plateau to reproduce: its "
        "relative error is ~gamma(3n)*cond*u-scaled from the very first sweep "
        "point (cond ~ 87 gives ~7.6u), so every row under the stated cutoff "
        f"fails. {len(plain_violations)} of {len(plain_rows)} qualifying rows "
        "violate, starting at cond "
        f"{plain_violations[0][0] if plain_violations else None!r}. The "
        "compensated clauses for K=2,3,4 above all hold. This failure is "
        "expected and documented; holding 2u below cond=1e-2/u would require "
        "an evaluator error independent of cond, which the uncompensated "
        "recurrence does not have."
    )


def _sweep_error_extrema(records):
    """Max absolute error per method over a root-neighborhood run."""
    worst = {}
    for r in records:
        err = abs(Fraction(r.value) - exact_eval(OCTIC, r.s))
        key = (r.method, r.k)
        if key not in worst or err > worst[key]:
            worst[key] = err
    return worst


def test_criterion_7_root_neighborhood_golden(regen_goldens):
    first = render_csv(run_root_neighborhood())
    second = render_csv(run_root_neighborhood())
    assert first == second, "repeated runs must be byte-identical"

    records = run_root_neighborhood()
    worst = _sweep_error_extrema(records)
    k3_max = nearest_float(worst[("compK", 3)])
    plain_max = nearest_float(worst[("decasteljau", 1)])

    if regen_goldens:
        DATA_DIR.mkdir(parents=True, exist_ok=True)
        GOLDEN_CSV.write_bytes(first.encode("utf-8"))
        GOLDEN_THRESHOLDS.write_text(
            json.dumps(
                {
                    "k3_max_abs_err_hex": k3_max.hex(),
                    "plain_max_abs_err_hex": plain_max.hex(),
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )

    assert GOLDEN_CSV.exists(), "golden CSV missing; run pytest --regen-goldens once"
    assert first.encode("utf-8") == GOLDEN_CSV.read_bytes()

    thresholds = json.loads(GOLDEN_THRESHOLDS.read_text(encoding="utf-8"))
    k3_threshold = float.fromhex(thresholds["k3_max_abs_err_hex"])
    assert k3_max <= k3_threshold
    assert plain_max >= 10**6 * k3_max
    print(
        f"criterion 7: K=3 max abs err {k3_max:.3e} <= golden {k3_threshold:.3e}; "
        f"plain/K=3 ratio {plain_max / k3_max:.3e} >= 1e6; CSV byte-identical"
    )


def test_criterion_8_flop_accounting():
    # Raises with a per-operation ledger on any (n, k) cell whose
    # instrumented count deviates from the closed form.
    lines = run_flop_report(k_list=(1, 2, 3, 4, 5))
    cells = [l for l in lines if l.strip() and l.lstrip()[0].isdigit()]
    assert len(cells) == 7 * 5
    assert all(l.rstrip().endswith("True") for l in cells)
    print("criterion 8: instrumented flop counts match the closed form on all 35 cells")


def test_criterion_9_twofold_matches_once_compensated():
    rng = random.Random(20260809)
    cases = 10**4
    # Exact equality, not a tolerance: both run the same triangles in the
    # same order, and sum_k([b, e], 2) returns fl(t + fl(b + e)) with t the
    # exact rounding error of b + e, which is fl(b + e) itself.
    for _ in range(cases):
        n = rng.randint(2, 5)
        coeffs = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-20, 20) for _ in range(n + 1)]
        s = rng.random()
        a = once_compensated(coeffs, s)
        b = comp_de_casteljau_k(coeffs, s, 2)
        assert a == b, (coeffs, s, a, b)
    print(f"criterion 9: {cases} cases exactly equal")
