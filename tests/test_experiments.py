"""Experiment runners and CLI: determinism, schema, built-in assertions."""

import decimal
import errno
import hashlib
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import casteljau
from casteljau import (
    cli,
    comp_de_casteljau_k,
    condition_number,
    exact_eval,
    experiments,
    leading_terms,
    p_tilde,
)
from casteljau.cli import main
from casteljau.eft import MAX_K
from casteljau.experiments import (
    CSV_HEADER,
    CUBIC_BERNSTEIN,
    OCTIC,
    QUARTIC,
    SPOTLIGHT_S,
    CheckFailed,
    SweepRecord,
    render_csv,
    run_condition_sweep,
    run_cubic_comparison,
    run_flop_report,
    run_root_neighborhood,
    run_table_reproduction,
)

from conftest import U, cond_multiplier, error_bound
from test_readme import _subcommand_flags

TWO_U = 2 * U

# SHA-256 of each experiment's output, the same with --out and on stdout,
# as recorded with the benchmark in perfbench/checks.py (not imported here,
# so the two records check each other); root-neighborhood has gate 7's golden.
OUTPUT_DIGESTS = {
    "condition-sweep": "584c2b1ad38a03ddfa7606f2dd0d7b4cc1d4c8d0cff3c3a169cd4d15759ac5d8",
    "cubic-compare": "e8b04c6ca9b9a4c9a388309ff74246bdb93c9e86fe314a0db93df7c65d56e95a",
    "table1": "c61bbf941deb980aa885b3c0ebf2d8abb4949d13407e92f9642175cd10b67582",
    "flops": "ea748eb7a7fc6bb04c6758d3626cb4a68684cbcec7ad1d1a76b5c57dd172e875",
}


@pytest.fixture(scope="module")
def sweep_records():
    return run_condition_sweep()


@pytest.fixture(scope="module")
def cubic_records():
    return run_cubic_comparison()


def _csv_rows(records):
    """The rendered CSV of ``records`` as one dict per row, keyed by column."""
    lines = render_csv(records).splitlines()
    return [dict(zip(CSV_HEADER, line.split(","))) for line in lines[1:]]


class TestCsvShape:
    def test_header_and_field_count(self):
        records = run_root_neighborhood(points=5)
        text = render_csv(records)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert all(len(line.split(",")) == len(CSV_HEADER) for line in lines[1:])
        assert text.endswith("\n") and "\r" not in text

    def test_value_hex_round_trips(self):
        records = run_root_neighborhood(points=7)
        for r, row in zip(records, _csv_rows(records), strict=True):
            assert float.fromhex(row["value_hex"]).hex() == row["value_hex"]
            assert float.fromhex(row["value_hex"]) == r.value
            assert float.fromhex(row["s_hex"]) == float(row["s_dec"]) == r.s

    def test_rows_sorted_by_point_method_k(self):
        records = run_cubic_comparison(points=9)
        keys = [(r.s, r.method, r.k) for r in records]
        assert keys == sorted(keys)

    def test_record_fields_are_pinned(self):
        # Records are built positionally, so the field order is the API.
        assert SweepRecord._fields == ("s", "method", "k", "value", "exact", "rel_err", "cond")


class TestRootNeighborhood:
    def test_default_record_count(self):
        records = run_root_neighborhood()
        assert len(records) == 401 * 3

    def test_points_override(self):
        assert len(run_root_neighborhood(points=11)) == 33

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["root-neighborhood", "--points", "51", "--out", str(a)]) == 0
        assert main(["root-neighborhood", "--points", "51", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_root_row_reports_absolute_error(self):
        records = run_root_neighborhood(points=5)
        root_rows = [r for r in records if r.s == 0.75]
        assert len(root_rows) == 3
        for r in root_rows:
            assert r.cond == math.inf
            assert r.exact == 0
            # rel_err column carries abs(computed - 0) here
            assert r.rel_err == abs(r.value)


class TestConditionSweep:
    def test_record_count_and_methods(self, sweep_records):
        assert len(sweep_records) == 86 * 4
        assert {r.method for r in sweep_records} == {"decasteljau", "comp", "compK"}
        assert {r.k for r in sweep_records} == {1, 2, 3, 4}

    def test_condition_grows_monotonically(self, sweep_records):
        conds = [r.cond for r in sweep_records if r.k == 1]
        ordered = sorted(conds)
        assert conds == ordered and len(set(conds)) == len(conds)

    def test_compensated_methods_stay_accurate_below_their_threshold(self, sweep_records):
        # K-fold compensation holds the relative error at rounding level
        # until cond reaches u**-(K-1).
        for r in sweep_records:
            if r.k >= 2 and r.cond <= float((1 / U) ** (r.k - 1)):
                assert r.rel_err <= TWO_U, (r.k, r.cond, r.rel_err)

    def test_rel_err_bounded_by_theoretical_curves(self, sweep_records):
        # Clamped comparison: beyond total accuracy loss (rel_err >= 1) the
        # magnitude of the garbage is meaningless, so the curve applies
        # only while it promises something (curve < 1).
        n = len(OCTIC) - 1
        for r in sweep_records:
            curve = cond_multiplier(n, r.k) * Fraction(r.cond) + TWO_U
            if curve < 1:
                assert Fraction(r.rel_err) <= curve, (r.k, r.cond, r.rel_err)

    def test_k_list_override(self):
        records = run_condition_sweep(k_list=(2, 5), points=4)
        assert len(records) == 8
        assert {r.k for r in records} == {2, 5}

    def test_points_past_float_spacing_are_refused(self, capsys):
        # fl(3/4 - 1.3**-138) equals the point before it: the points have run
        # out of binary64 spacing, an input limit rather than a regression.
        assert len(run_condition_sweep(k_list=(1,), points=133)) == 133
        assert main(["condition-sweep", "--points", "134"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "j=-138" in captured.err and "133 distinct points" in captured.err

    def test_non_increasing_condition_is_a_regression(self, monkeypatch):
        flat = condition_number(OCTIC, 0.5)
        monkeypatch.setattr(experiments, "condition_number", lambda p, s: flat)
        with pytest.raises(CheckFailed, match="not strictly increasing at j=-6"):
            run_condition_sweep(k_list=(1,), points=3)


class TestCubicComparison:
    def test_record_count(self, cubic_records):
        assert len(cubic_records) == 401 * 2 + 401 * 2 + 3

    def test_spotlight_rows(self, cubic_records):
        spotlight = [r for r in cubic_records if r.s == SPOTLIGHT_S]
        by_method = {(r.method, r.k): r for r in spotlight}
        assert set(by_method) == {("comp", 2), ("compK", 3), ("compK", 4)}
        collapse = by_method[("comp", 2)]
        assert collapse.value == 0.0
        assert collapse.rel_err == 1.0
        assert by_method[("compK", 3)].rel_err <= TWO_U
        assert by_method[("compK", 4)].rel_err <= TWO_U

    def test_center_rows_exact_zero(self, cubic_records):
        center = [r for r in cubic_records if r.s == 0.5]
        assert len(center) == 4  # horner, decasteljau, comp, compK
        for r in center:
            assert r.value == 0.0
            assert r.rel_err == 0.0
            assert r.cond == math.inf

    def test_uncompensated_methods_lose_digits_near_the_root(self, cubic_records):
        # Both evaluators in the wide window inherit the condition number's
        # growth; their worst relative error sits far above rounding level.
        for method in ("horner", "decasteljau"):
            worst = max(r.rel_err for r in cubic_records if r.method == method and r.cond < 1e17)
            assert worst > 1e5 * float(U), (method, worst)


def test_every_sweep_row_within_the_error_bound(sweep_records, cubic_records):
    # Checked exactly on every evaluator row, roots included; on
    # condition-sweep's K = 2..4 rows near cond 4e10 the error comes within
    # 3% of the bound.  cubic-compare runs K = 1 on the cubic, K >= 2 on the
    # quartic.
    rows = [(OCTIC, r) for r in run_root_neighborhood() + sweep_records]
    rows += [
        (CUBIC_BERNSTEIN if r.k == 1 else QUARTIC, r)
        for r in cubic_records
        if r.method != "horner"
    ]
    for p, r in rows:
        leading = leading_terms(p, r.s, r.k)
        bound = error_bound(len(p) - 1, r.k, r.exact, p_tilde(p, r.s), leading)
        assert abs(Fraction(r.value) - r.exact) <= bound, (r.method, r.k, r.s.hex())


class TestOneCascadePerPoint:
    @pytest.mark.parametrize(
        "runner, cascades",
        [(run_root_neighborhood, 3), (run_condition_sweep, 3), (run_cubic_comparison, 7)],
    )
    def test_one_cascade_per_polynomial_and_point(self, runner, cascades, monkeypatch):
        # cubic-compare: three points in each window, plus the spotlight.
        calls = Counter()

        def counted(p, s, k):
            calls[tuple(p), s] += 1
            return leading_terms(p, s, k)

        monkeypatch.setattr(experiments, "leading_terms", counted)
        runner(points=3)
        assert len(calls) == cascades
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize(
        "runner, oracle_calls",
        [(run_root_neighborhood, 3), (run_condition_sweep, 3), (run_cubic_comparison, 7)],
    )
    def test_one_oracle_call_per_point_in_every_run(self, runner, oracle_calls, monkeypatch):
        # cli.main runs repeatedly in one process (as the benchmark does), so
        # a memo surviving a run would skip later runs' oracle calls.
        calls = []

        def counted(p, s):
            calls.append((tuple(p), s))
            return condition_number(p, s)

        monkeypatch.setattr(experiments, "condition_number", counted)
        for _ in range(2):
            calls.clear()
            runner(points=3)
            assert len(calls) == len(set(calls)) == oracle_calls

    @pytest.mark.parametrize(
        "runner, builds",
        [(run_root_neighborhood, 1), (run_condition_sweep, 1), (run_cubic_comparison, 2)],
    )
    def test_one_row_per_polynomial_in_every_run(self, runner, builds, monkeypatch):
        # Each run converts each polynomial once, hands the oracle only that
        # row, and keeps no row for the next run.
        build = experiments._integer_row
        built = []

        def counted(p):
            built.append(tuple(p))
            return build(p)

        def judged(p, s):
            assert type(p) is casteljau.oracle._IntegerRow
            return condition_number(p, s)

        monkeypatch.setattr(experiments, "_integer_row", counted)
        monkeypatch.setattr(experiments, "condition_number", judged)
        for _ in range(2):
            built.clear()
            runner(points=3)
            assert len(built) == len(set(built)) == builds

    def test_every_k_equals_its_own_evaluation(self):
        records = run_condition_sweep(k_list=(1, 2, 3, 4, 5, 6, 7, 8), points=4)
        assert len(records) == 32
        for r in records:
            assert r.value.hex() == comp_de_casteljau_k(OCTIC, r.s, r.k).hex(), (r.s, r.k)


class TestTableReproduction:
    def test_audit_passes_and_reports_every_entry(self, tmp_path):
        out = tmp_path / "table.txt"
        assert main(["table1", "--out", str(out)]) == 0
        lines = run_table_reproduction()
        assert out.read_text(encoding="utf-8").splitlines() == lines
        assert "mismatches: 0" in lines[-1]
        # one line per triangle entry below the input row: 4+3+2+1
        entry_lines = [l for l in lines if l.lstrip()[:1].isdigit()]
        assert len(entry_lines) == 10
        assert all(" True" in l for l in entry_lines)

    def test_wrong_reference_entry_fails_naming_it(self, tmp_path, capsys, monkeypatch):
        reference = experiments._spotlight_reference()
        base, err1, resid = reference[(2, 1)]
        reference[(2, 1)] = (base + U, err1, resid)
        monkeypatch.setattr(experiments, "_spotlight_reference", lambda: reference)
        with pytest.raises(CheckFailed, match=re.escape("mismatches: [(2, 1)]")) as exc:
            run_table_reproduction()
        assert "entries audited: 10; mismatches: 1" in exc.value.report[-1]
        report, err = _failed_run(["table1"], tmp_path, capsys)
        assert report == exc.value.report
        assert "regression check failed: triangle audit mismatches: [(2, 1)]" in err

    def test_nonzero_k2_result_fails_naming_the_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "comp_de_casteljau_k", lambda p, s, k: U)
        message = "triangle audit mismatches: ['K=2 result is exactly 0']"
        with pytest.raises(CheckFailed, match=re.escape(message)) as exc:
            run_table_reproduction()
        assert "check: K=2 result is exactly 0: False" in exc.value.report
        report, err = _failed_run(["table1"], tmp_path, capsys)
        assert report == exc.value.report
        assert f"regression check failed: {message}" in err


class TestFlopReport:
    def test_k_list_override(self):
        lines = run_flop_report(k_list=(2,))
        cells = [l for l in lines if l.strip() and l.lstrip()[0].isdigit()]
        assert len(cells) == 7

    def test_wrong_formula_fails_naming_the_cell(self, tmp_path, capsys, monkeypatch):
        formula = experiments.flop_count
        monkeypatch.setattr(
            experiments, "flop_count", lambda n, k: formula(n, k) + ((n, k) == (5, 3))
        )
        cell = f"n=5 k=3 expected {formula(5, 3) + 1} got ["
        with pytest.raises(CheckFailed, match=re.escape(cell)) as exc:
            run_flop_report()
        assert f"   5   3 {formula(5, 3) + 1:10d} {formula(5, 3):13d}  False" in exc.value.report
        assert str(exc.value).count("expected") == 1
        report, err = _failed_run(["flops"], tmp_path, capsys)
        assert report == exc.value.report
        assert f"regression check failed: instrumented flop counts deviate: {cell}" in err


def _failed_run(argv, tmp_path, capsys):
    # A failed check exits 1 and still writes its report.
    out = tmp_path / "report.txt"
    assert main(argv + ["--out", str(out)]) == 1
    return out.read_text(encoding="utf-8").splitlines(), capsys.readouterr().err


def _failing_runner():
    raise CheckFailed("x", ["line"])


class TestCli:
    def test_sweep_to_file_and_stdout_match(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["root-neighborhood", "--points", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["root-neighborhood", "--points", "5"]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_table1_stdout(self, capsys):
        assert main(["table1"]) == 0
        assert "mismatches: 0" in capsys.readouterr().out

    def test_flops_with_k_list(self, capsys):
        assert main(["flops", "--k", "1,2"]) == 0
        assert "formula" in capsys.readouterr().out

    def test_invalid_k_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["condition-sweep", "--k", "9"])
        assert exc.value.code == 2
        assert "1..8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["condition-sweep", "--k", "0"],
            ["flops", "--k", "9"],
            ["cubic-compare", "--points", "1"],
            ["table1", "--points", "5"],
            ["table1", "--k", "2"],
            ["root-neighborhood", "--k", "2"],
            ["cubic-compare", "--k", "2"],
            ["flops", "--points", "5"],
            ["flops", "--k", "2,2"],
            ["condition-sweep", "--k", "1,3,1"],
            ["flops", "--k", "2,,3"],
            ["flops", "--k", "2,"],
            ["flops", "--k", "2,x"],
            ["root-neighborhood", "--points", "x"],
        ],
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
    )
    def test_bad_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_runner_error_exits_2(self, capsys):
        # The first point of this sweep lies below 0, which the oracle refuses.
        assert main(["root-neighborhood", "--points", "40000000"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failure_report_is_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._RUNNERS, "table1", _failing_runner)
        out = tmp_path / "report.txt"
        assert main(["table1", "--out", str(out)]) == 1
        assert out.read_text(encoding="utf-8") == "line\n"
        assert capsys.readouterr().out == ""
        assert main(["table1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "line\n"
        assert "regression check failed: x" in captured.err

    @pytest.mark.parametrize("target", ["", "missing/out"], ids=["directory", "missing_parent"])
    def test_unwritable_out_is_usage_error(self, target, tmp_path, capsys, monkeypatch):
        out = tmp_path / target
        assert main(["flops", "--k", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        # A failed check keeps its exit status 1 and reports both failures.
        monkeypatch.setitem(cli._RUNNERS, "table1", _failing_runner)
        assert main(["table1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err
        assert "regression check failed: x" in err

    def test_flags_survive_wrapped_runners(self, tmp_path, monkeypatch):
        # perfbench's tracer swaps every runner for a (*args, **kwargs)
        # wrapper after import; the parser must still offer the same flags.
        argv = ["condition-sweep", "--points", "3", "--k", "2", "--out"]
        plain = tmp_path / "plain.csv"
        assert main(argv + [str(plain)]) == 0
        flags = _subcommand_flags()
        for name, runner in list(cli._RUNNERS.items()):
            monkeypatch.setitem(
                cli._RUNNERS, name, lambda *args, _run=runner, **kwargs: _run(*args, **kwargs)
            )
        wrapped = tmp_path / "wrapped.csv"
        assert main(argv + [str(wrapped)]) == 0
        assert wrapped.read_bytes() == plain.read_bytes()
        assert _subcommand_flags() == flags

    @pytest.mark.parametrize("experiment", sorted(OUTPUT_DIGESTS))
    def test_output_bytes_match_recorded_digest(self, experiment, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([experiment, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_DIGESTS[experiment]
        assert main([experiment]) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == OUTPUT_DIGESTS[experiment]

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = _run_module(
            ["condition-sweep", "--points", "3", "--k", "2", "--out", str(out)],
            stdout=subprocess.DEVNULL,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 4

    def test_closed_pipe_on_stdout_exits_2(self):
        # As `casteljau root-neighborhood | true`, with the reader closed
        # before the child starts, so that every write fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_module(["root-neighborhood"], stdout=write_end)
        finally:
            os.close(write_end)
        # Exactly one line: no traceback, and no "Exception ignored" at exit.
        assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
        assert proc.returncode == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_on_stdout_exits_2(self):
        with open("/dev/full", "wb") as full:
            proc = _run_module(["table1"], stdout=full)
        assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        assert proc.returncode == 2


# Children import the same package as this process, installed or not.
SRC = str(Path(casteljau.__file__).resolve().parents[1])


def _run_module(argv, **kwargs):
    """``python -m casteljau *argv`` in a child, its stderr captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "casteljau", *argv],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        **kwargs,
    )


def _other_interpreters() -> list[Path]:
    """Every pyenv CPython >= 3.10 but the running one, by absolute path.

    The pyenv shims can fail inside a subprocess, so they are not used.
    """
    running = Path(sys.executable).resolve()
    found = []
    for python in sorted(Path.home().glob(".pyenv/versions/*/bin/python")):
        version = re.match(r"(\d+)\.(\d+)\.", python.parts[-3])
        supported = version and (int(version[1]), int(version[2])) >= (3, 10)
        if supported and python.resolve() != running:
            found.append(python)
    return found


# Every K the CLI accepts, so that each interpreter compiles and runs every
# generated kernel.
ALL_K = ["condition-sweep", "--k", ",".join(map(str, range(1, MAX_K + 1)))]

# Runs every experiment named on the command line, writing each to DIR/NAME,
# then the condition sweep at ALL_K to DIR/all-k.
_RUN_EXPERIMENTS = f"""
import sys
from casteljau.cli import main
out, names = sys.argv[1], sys.argv[2:]
codes = [main([name, "--out", f"{{out}}/{{name}}"]) for name in names]
sys.exit(max(codes + [main({ALL_K!r} + ["--out", f"{{out}}/all-k"])]))
"""


def test_every_installed_interpreter_gives_the_same_bytes(tmp_path):
    # The CSVs promise the same bytes on every platform; each interpreter
    # runs the five experiments and the sweep at ALL_K from this source
    # tree, one child each.
    pythons = _other_interpreters()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 under ~/.pyenv/versions")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    golden = (Path(__file__).parent / "data" / "root_neighborhood.csv").read_bytes()
    assert main([*ALL_K, "--out", str(tmp_path / "all-k")]) == 0
    all_k = (tmp_path / "all-k").read_bytes()
    names = sorted(cli._RUNNERS)
    for python in pythons:
        out = tmp_path / python.parts[-3]
        out.mkdir()
        proc = subprocess.run(
            [str(python), "-c", _RUN_EXPERIMENTS, str(out), *names],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, (python, proc.stderr)
        assert (out / "root-neighborhood").read_bytes() == golden, python
        for name, digest in OUTPUT_DIGESTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (python, name)
        assert (out / "all-k").read_bytes() == all_k, python


class TestExactBookkeeping:
    @pytest.mark.parametrize(
        "runner", [run_root_neighborhood, run_condition_sweep, run_cubic_comparison]
    )
    def test_csv_ignores_the_callers_decimal_context(self, runner):
        expected = render_csv(runner(points=3))
        hostile = decimal.Context(prec=5, rounding=decimal.ROUND_DOWN, capitals=0)
        with decimal.localcontext(hostile):
            assert render_csv(runner(points=3)) == expected

    def test_exact_dec_has_forty_significant_digits(self):
        for row in _csv_rows(run_condition_sweep(k_list=(1,), points=2)):
            mantissa = row["exact_dec"].split("E")[0].replace("-", "").replace(".", "")
            assert len(mantissa.lstrip("0")) in (39, 40)

    def test_exact_dec_close_to_oracle(self):
        for row in _csv_rows(run_root_neighborhood(points=3)):
            exact = exact_eval(OCTIC, float.fromhex(row["s_hex"]))
            approx = Fraction(row["exact_dec"].replace("E", "e"))
            if exact == 0:
                assert row["exact_dec"] == "0"
            else:
                assert abs(approx - exact) <= abs(exact) * Fraction(1, 10**38)
