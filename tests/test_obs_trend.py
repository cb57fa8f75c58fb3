"""Trend analytics over the run ledger, and the ``repro trend`` CLI.

Includes the ISSUE acceptance demo: three synthetic ledger entries with
an injected mod-mul step must make ``repro trend --check`` exit 1 naming
the exact counter, the first bad commit, and the attributed phase, and
``repro trend --report`` must render a sparkline row for every committed
suite.
"""

import random

import pytest

from repro.cli import main
from repro.obs.series import LedgerRecord, RunLedger
from repro.obs.trend import (
    SPARK_CHARS,
    Changepoint,
    check_ledger,
    detect_changepoints,
    lineages,
    render_check,
    render_trends,
    sparkline,
    timing_flags,
)

COMMITTED_SUITES = (
    "crypto-1024",
    "crypto-2048",
    "index-scale",
    "naive",
    "ppgnn",
    "ppgnn-opt",
    "serve",
    "serve-overload",
)


def _record(sha, metrics, suite="demo", config=None, **kwargs):
    return LedgerRecord(
        suite=suite,
        git_sha=sha,
        metrics=dict(metrics),
        config=dict(config or {"k": 3}),
        **kwargs,
    )


class TestSparkline:
    def test_normalizes_min_to_max(self):
        line = sparkline([0, 5, 10])
        assert line[0] == SPARK_CHARS[0] and line[-1] == SPARK_CHARS[-1]

    def test_constant_series_renders_flat(self):
        assert sparkline([4, 4, 4]) == SPARK_CHARS[3] * 3

    def test_empty(self):
        assert sparkline([]) == ""


class TestChangepoints:
    def test_step_attributed_to_first_moved_commit(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for sha, value in (("a1", 100), ("b2", 100), ("c3", 160), ("d4", 160)):
            ledger.append(_record(sha, {"ops.modmuls_estimated": value}))
        [cp] = detect_changepoints(ledger.load("demo"))
        assert cp.git_sha == "c3" and cp.prev_sha == "b2"
        assert cp.status == "regressed" and cp.metric == "ops.modmuls_estimated"

    def test_improvement_not_a_regression(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for sha, value in (("a1", 160), ("b2", 100)):
            ledger.append(_record(sha, {"ops.modmuls_estimated": value}))
        [cp] = detect_changepoints(ledger.load("demo"))
        assert cp.status == "improved"
        assert check_ledger(ledger).ok

    def test_fixed_metric_regresses_in_both_directions(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for sha, value in (("a1", 5), ("b2", 7)):
            ledger.append(_record(sha, {"answers.count": value}))
        [cp] = detect_changepoints(ledger.load("demo"))
        assert cp.direction == "fixed" and cp.status == "regressed"

    def test_accepted_step_passes_check(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record("a1", {"ops.x": 10}))
        ledger.append(
            _record("b2", {"ops.x": 20}, accepted=("ops.x",))
        )
        check = check_ledger(ledger)
        assert check.changepoints and check.ok
        assert not check.unexplained

    def test_attribution_is_ordering_invariant(self, tmp_path):
        """Property: shuffling ledger file lines never moves a changepoint."""
        ledger = RunLedger(tmp_path)
        rng = random.Random(5)
        values = [100, 100, 130, 130, 90, 90, 90, 200]
        for i, value in enumerate(values):
            ledger.append(_record(f"sha{i:02d}", {"ops.x": value}))
        baseline = [
            (cp.metric, cp.git_sha, cp.prev_value, cp.value)
            for cp in detect_changepoints(ledger.load("demo"))
        ]
        assert len(baseline) == 3
        path = ledger.path("demo")
        for _ in range(5):
            lines = path.read_text().strip().splitlines()
            rng.shuffle(lines)
            path.write_text("\n".join(lines) + "\n")
            shuffled = [
                (cp.metric, cp.git_sha, cp.prev_value, cp.value)
                for cp in detect_changepoints(ledger.load("demo"))
            ]
            assert shuffled == baseline

    def test_phase_attribution_rendered(self):
        cp = Changepoint(
            suite="s", metric="ops.x", direction="lower", status="regressed",
            prev_value=100, value=160, prev_sha="a" * 12, git_sha="b" * 12,
            seq=1, accepted=False, phases={"crypto": 62, "compute": 38},
        )
        assert cp.phase == "crypto (62% of traced ticks)"
        described = cp.describe()
        assert "first bad commit" in described and "phase crypto" in described


class TestLineages:
    def test_config_change_is_not_a_regression(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record("a1", {"ops.x": 100}, config={"k": 3}))
        ledger.append(_record("b2", {"ops.x": 900}, config={"k": 8}))
        ledger.append(_record("c3", {"ops.x": 100}, config={"k": 3}))
        assert len(lineages(ledger.load("demo"))) == 2
        assert check_ledger(ledger).ok

    def test_every_lineage_is_checked(self, tmp_path):
        """A regression in an older, smaller lineage still fails the check
        when a larger lineage of the same suite was appended after it."""
        ledger = RunLedger(tmp_path)
        for sha, degraded in (("a1", 13), ("b2", 20)):
            ledger.append(
                _record(sha, {"control.degraded": degraded}, config={"control": 1})
            )
        for sha in ("c3", "d4", "e5"):
            ledger.append(_record(sha, {"serve.completed": 40}, config={"seed": 1}))
        check = check_ledger(ledger)
        assert not check.ok
        assert [cp.metric for cp in check.unexplained] == ["control.degraded"]
        dashboard = render_trends(ledger)
        for record in ledger.load("demo")[::2]:
            assert f"config `{record.config_digest}`" in dashboard

    def test_keysize_splits_lineages(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record("a1", {"ops.modmuls_estimated": 1000}, keysize=128))
        ledger.append(_record("b2", {"ops.modmuls_estimated": 4000}, keysize=256))
        assert len(lineages(ledger.load("demo"))) == 2
        assert check_ledger(ledger).ok


class TestTimingBands:
    def test_outlier_beyond_mad_band_flagged(self, tmp_path):
        ledger = RunLedger(tmp_path)
        timings = [1.0, 1.01, 0.99, 1.02, 0.98, 5.0]
        for i, t in enumerate(timings):
            ledger.append(_record(f"s{i}", {"time.user_seconds": t}))
        flags = timing_flags(ledger.load("demo"))
        assert [f.git_sha for f in flags] == ["s5"]
        assert flags[0].value == 5.0

    def test_first_three_points_never_flagged(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i, t in enumerate([1.0, 50.0, 0.001]):
            ledger.append(_record(f"s{i}", {"time.user_seconds": t}))
        assert timing_flags(ledger.load("demo")) == []

    def test_ordinary_jitter_not_flagged(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i, t in enumerate([1.0, 1.0, 1.0, 1.0, 1.05]):
            ledger.append(_record(f"s{i}", {"time.user_seconds": t}))
        assert timing_flags(ledger.load("demo")) == []

    def test_timing_never_fails_check(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i, t in enumerate([1.0, 1.0, 1.0, 1.0, 99.0]):
            ledger.append(_record(f"s{i}", {"time.user_seconds": t}))
        check = check_ledger(ledger)
        assert check.flags and check.ok


class TestAcceptanceDemo:
    """ISSUE demo: inject a mod-mul step, watch the gate name it."""

    @pytest.fixture()
    def seeded(self, tmp_path):
        ledger = RunLedger(tmp_path / "series")
        ledger.append(
            _record(
                "aaaa1111aaaa", {"ops.modmuls_estimated": 1000,
                                 "time.user_seconds": 1.0},
                phases={"crypto": 70, "compute": 30},
            )
        )
        ledger.append(
            _record(
                "bbbb2222bbbb", {"ops.modmuls_estimated": 1000,
                                 "time.user_seconds": 1.02},
                phases={"crypto": 70, "compute": 30},
            )
        )
        ledger.append(
            _record(
                "cccc3333cccc", {"ops.modmuls_estimated": 1600,
                                 "time.user_seconds": 1.01},
                phases={"crypto": 90, "compute": 10},
            )
        )
        return tmp_path / "series"

    def test_check_exits_1_naming_counter_sha_phase(self, seeded, capsys):
        code = main(["trend", "--series-dir", str(seeded), "--check"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ops.modmuls_estimated" in out
        assert "cccc3333cccc" in out
        assert "phase crypto (90% of traced ticks)" in out
        assert "verdict: FAIL" in out

    def test_accepting_the_metric_turns_check_green(self, seeded, capsys, tmp_path):
        # Rebuild the history so the offending record arrives through
        # --append --accept: the acceptance note rides on the record that
        # introduced the step.
        import json

        ledger = RunLedger(seeded)
        ledger.path("demo").unlink()
        for sha, value in (("aaaa1111aaaa", 1000), ("bbbb2222bbbb", 1000)):
            ledger.append(_record(sha, {"ops.modmuls_estimated": value}))
        offending = _record("cccc3333cccc", {"ops.modmuls_estimated": 1600})
        doc = tmp_path / "offending.jsonl"
        doc.write_text(json.dumps(offending.to_dict()) + "\n")
        code = main([
            "trend", "--series-dir", str(seeded),
            "--append", str(doc), "--accept", "ops.modmuls_estimated",
            "--check",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out

    def test_report_renders_demo_sparkline(self, seeded, tmp_path, capsys):
        target = tmp_path / "TRENDS.md"
        code = main([
            "trend", "--series-dir", str(seeded), "--report", str(target),
        ])
        assert code == 0
        text = target.read_text()
        assert "## `demo`" in text
        assert any(ch in text for ch in SPARK_CHARS)
        assert "first bad" not in text  # describe() only in --check output
        assert "❌" in text  # the regression badge lands in the flags column


class TestCommittedLedger:
    """The seeded benchmarks/series/ ledger is a first-class artifact."""

    def test_every_committed_suite_has_a_ledger_file(self):
        from pathlib import Path

        series = Path(__file__).resolve().parent.parent / "benchmarks" / "series"
        assert series.is_dir()
        present = {p.stem for p in series.glob("*.jsonl")}
        assert set(COMMITTED_SUITES) <= present

    def test_report_renders_sparklines_for_every_committed_suite(self):
        from pathlib import Path

        series = Path(__file__).resolve().parent.parent / "benchmarks" / "series"
        dashboard = render_trends(RunLedger(series))
        for suite in COMMITTED_SUITES:
            assert f"## `{suite}`" in dashboard
        assert any(ch in dashboard for ch in SPARK_CHARS)

    def test_committed_ledger_passes_check(self):
        from pathlib import Path

        series = Path(__file__).resolve().parent.parent / "benchmarks" / "series"
        check = check_ledger(RunLedger(series))
        assert check.ok, render_check(check)

    def test_committed_dashboard_is_current(self):
        """BENCH_TRENDS.md must match a re-render of the committed ledger."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        committed = (root / "BENCH_TRENDS.md").read_text(encoding="utf-8")
        assert committed == render_trends(RunLedger(root / "benchmarks" / "series"))
