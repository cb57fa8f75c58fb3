"""The performance sentinel: classification, comparator, ledger-head gate."""

import dataclasses

import pytest

from repro.bench.recorder import SeriesRecorder
from repro.bench.sentinel import (
    BaselineComparison,
    BenchSentinel,
    render_markdown,
    serving_report_metrics,
)
from repro.errors import ConfigurationError, PerfRegressionError
from repro.obs.series import (
    LedgerRecord,
    RunLedger,
    classify_metric,
    compare_metrics,
)


class TestClassifyMetric:
    def test_exact_vs_timing(self):
        assert classify_metric("ops.encryptions").kind == "exact"
        assert classify_metric("comm.bytes_total").kind == "exact"
        assert classify_metric("time.user_seconds").kind == "timing"
        assert classify_metric("latency.p95_seconds").kind == "timing"
        assert classify_metric("throughput_qps").kind == "timing"

    def test_directions(self):
        assert classify_metric("ops.scalar_muls").direction == "lower"
        assert classify_metric("cache.hits").direction == "higher"
        assert classify_metric("serve.completed").direction == "higher"
        assert classify_metric("answers.count").direction == "fixed"


class TestCompareMetrics:
    def test_exact_zero_tolerance(self):
        deltas = compare_metrics({"ops.muls": 100}, {"ops.muls": 101})
        assert deltas[0].status == "regressed"
        deltas = compare_metrics({"ops.muls": 100}, {"ops.muls": 99})
        assert deltas[0].status == "improved"

    def test_timing_tolerance_window(self):
        base = {"wall_seconds": 1.0}
        assert compare_metrics(base, {"wall_seconds": 1.4})[0].status == "neutral"
        assert compare_metrics(base, {"wall_seconds": 1.6})[0].status == "regressed"
        faster = compare_metrics(base, {"wall_seconds": 0.4})
        assert faster[0].status == "improved"

    def test_higher_better_direction(self):
        up = compare_metrics({"cache.hits": 10}, {"cache.hits": 12})
        assert up[0].status == "improved"
        down = compare_metrics({"cache.hits": 10}, {"cache.hits": 8})
        assert down[0].status == "regressed"

    def test_fixed_metrics_regress_in_both_directions(self):
        for current in (1, 3):
            deltas = compare_metrics({"answers.count": 2}, {"answers.count": current})
            assert deltas[0].status == "regressed"

    def test_added_and_removed_are_not_failures(self):
        deltas = {
            d.name: d
            for d in compare_metrics({"ops.old": 1}, {"ops.new": 2})
        }
        assert deltas["ops.old"].status == "removed"
        assert deltas["ops.new"].status == "added"


class TestComparison:
    @staticmethod
    def _versus(current, baseline_sha="oldsha"):
        baseline = {"ops.muls": 100, "wall_seconds": 1.0}
        return BaselineComparison(
            "exp", compare_metrics(baseline, current), baseline_sha, "newsha"
        )

    def test_ok_gates_only_on_exact(self):
        comparison = self._versus({"ops.muls": 100, "wall_seconds": 10.0})
        assert comparison.ok  # timing regressed, exact did not
        assert len(comparison.timing_regressions) == 1
        worse = self._versus({"ops.muls": 101, "wall_seconds": 1.0})
        assert not worse.ok
        assert [d.name for d in worse.exact_regressions] == ["ops.muls"]
        assert dataclasses.replace(worse, accepted=("ops.muls",)).ok

    def test_markdown_report(self):
        good = self._versus({"ops.muls": 100, "wall_seconds": 1.0})
        bad = self._versus({"ops.muls": 200, "wall_seconds": 1.0})
        passing = render_markdown([good])
        failing = render_markdown([good, bad])
        assert "Verdict: PASS" in passing
        assert "Verdict: FAIL" in failing
        assert "`ops.muls`" in failing and "regressed" in failing
        assert "oldsha" in failing and "newsha" in failing
        accepted = render_markdown([dataclasses.replace(bad, accepted=("ops.muls",))])
        assert "Verdict: PASS" in accepted and "regressed (accepted)" in accepted


class TestServingReportMetrics:
    def test_extracts_counters_and_sections(self):
        report = {
            "completed": 24, "failed": 1, "rejected": 0,
            "comm_bytes_total": 35940,
            "makespan_seconds": 0.57,
            "cache": {"hits": 80, "misses": 112},
            "pool": {"pooled": 190},
            "transport": {"retransmissions": 2, "corrupt_rejected": 0},
            "latency": {"p95": 0.027},
            "obs": {"metrics": {"counters": {"crypto.encryptions": 190}}},
        }
        metrics = serving_report_metrics(report)
        assert metrics["serve.completed"] == 24
        assert metrics["cache.hits"] == 80
        assert metrics["transport.retransmissions"] == 2
        assert metrics["latency.p95_seconds"] == 0.027
        assert metrics["ops.crypto.encryptions"] == 190

    def test_tolerates_missing_obs(self):
        metrics = serving_report_metrics(
            {"completed": 1, "latency": {}, "cache": {}, "pool": {}}
        )
        assert metrics["serve.completed"] == 1
        assert not any(name.startswith("ops.") for name in metrics)


class TestBenchSentinel:
    @pytest.fixture(autouse=True)
    def _disarmed_env(self, monkeypatch):
        for var in (
            "REPRO_BENCH_RECORD_BASELINE",
            "REPRO_BENCH_CHECK_BASELINE",
            "REPRO_BENCH_SERIES_DIR",
        ):
            monkeypatch.delenv(var, raising=False)

    def test_disarmed_by_default(self, tmp_path):
        sentinel = BenchSentinel.from_env(tmp_path)
        assert not sentinel.armed
        assert sentinel.gate("exp", {"ops.x": 1}) is None
        assert list(tmp_path.iterdir()) == []

    def test_record_then_check_cycle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RECORD_BASELINE", "1")
        recorder = BenchSentinel.from_env(tmp_path)
        assert recorder.gate("exp", {"ops.x": 5}, keysize=128).ok
        assert (tmp_path / "exp.jsonl").exists()

        monkeypatch.delenv("REPRO_BENCH_RECORD_BASELINE")
        monkeypatch.setenv("REPRO_BENCH_CHECK_BASELINE", "1")
        checker = BenchSentinel.from_env(tmp_path)
        assert checker.gate("exp", {"ops.x": 5}, keysize=128).ok
        with pytest.raises(PerfRegressionError, match="ops.x"):
            checker.gate("exp", {"ops.x": 6}, keysize=128)

    def test_record_and_check_mutually_exclusive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BenchSentinel(tmp_path, record=True, check=True)

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SERIES_DIR", str(tmp_path / "alt"))
        sentinel = BenchSentinel.from_env(tmp_path)
        assert sentinel.ledger.directory == tmp_path / "alt"

    def test_gate_then_record_json_appends_one_ledger_line(
        self, tmp_path, monkeypatch
    ):
        """The benches' order — an armed gate, then record_json — leaves
        one new ledger line, not a second lineage."""
        series = tmp_path / "series"
        monkeypatch.setenv("REPRO_BENCH_RECORD_BASELINE", "1")
        monkeypatch.setenv("REPRO_BENCH_SERIES_DIR", str(series))
        BenchSentinel.from_env(series).gate(
            "exp", {"ops.x": 5}, keysize=128, config={"queries": 4}
        )
        SeriesRecorder(tmp_path / "results").record_json(
            "exp", {"ops": {"x": 5}}, keysize=128, config={"seed": 1}
        )
        assert len((series / "exp.jsonl").read_text().splitlines()) == 1

    def test_check_mode_never_writes_the_ledger(self, tmp_path, monkeypatch):
        ledger = RunLedger(tmp_path)
        ledger.append(
            LedgerRecord(
                suite="exp", git_sha="a" * 40, metrics={"ops.x": 5}, keysize=128
            )
        )
        before = ledger.path("exp").read_bytes()
        monkeypatch.setenv("REPRO_BENCH_CHECK_BASELINE", "1")
        monkeypatch.setenv("REPRO_BENCH_SERIES_DIR", str(tmp_path))
        checker = BenchSentinel.from_env(tmp_path)
        assert checker.gate("exp", {"ops.x": 5}, keysize=128).ok
        with pytest.raises(PerfRegressionError):
            checker.gate("exp", {"ops.x": 6}, keysize=128)
        assert ledger.path("exp").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["exp.jsonl"]
