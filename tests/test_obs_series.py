"""The run ledger's contracts: idempotent appends, lineage heads,
seq-ordered analytics, truncated-tail recovery, and the document
converters behind ``repro trend --append``."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.series import (
    LEDGER_SCHEMA_VERSION,
    LedgerRecord,
    RunLedger,
    config_digest,
    parse_ledger_jsonl,
    record_from_bench_document,
    records_from_text,
    sort_records,
)


def _record(sha="aaa", suite="demo", metrics=None, config=None, **kwargs):
    return LedgerRecord(
        suite=suite,
        git_sha=sha,
        metrics=dict(metrics or {"ops.x": 10}),
        config=dict(config or {"k": 3}),
        **kwargs,
    )


class TestLedgerRecord:
    def test_config_digest_auto_derived_and_stable(self):
        a = _record(config={"k": 3, "d": 5})
        b = _record(config={"d": 5, "k": 3})
        assert a.config_digest == b.config_digest == config_digest({"k": 3, "d": 5})

    def test_round_trip(self):
        record = _record(
            phases={"crypto": 8, "compute": 2},
            quality={"recall": 1.0},
            accepted=("ops.x",),
            keysize=128,
        )
        restored = LedgerRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert restored.to_dict() == record.to_dict()

    def test_rejects_empty_suite_and_sha(self):
        with pytest.raises(ReproError):
            LedgerRecord(suite="", git_sha="a", metrics={})
        with pytest.raises(ReproError):
            LedgerRecord(suite="s", git_sha="", metrics={})

    def test_rejects_non_numeric_metrics(self):
        with pytest.raises(ReproError):
            _record(metrics={"ops.x": "ten"})
        with pytest.raises(ReproError):
            _record(metrics={"ops.x": True})

    def test_from_dict_malformed(self):
        with pytest.raises(ReproError, match="malformed ledger record"):
            LedgerRecord.from_dict({"suite": "s"})


class TestAppendIdempotence:
    def test_duplicate_sha_and_config_is_noop(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first, appended = ledger.append(
            _record(metrics={"ops.x": 10, "time.user_seconds": 1.0})
        )
        assert appended and first.seq == 0
        for timing in (1.0, 9.0):  # exact-equal, then timing-only replay
            replay, appended = ledger.append(
                _record(metrics={"ops.x": 10, "time.user_seconds": timing})
            )
            assert not appended
            assert replay.seq == 0 and replay.metrics["time.user_seconds"] == 1.0
        with pytest.raises(ReproError, match="seq 0 .*ops.x"):
            ledger.append(_record(metrics={"ops.x": 999, "time.user_seconds": 1.0}))
        assert len(ledger.load("demo")) == 1

    def test_same_sha_and_config_other_keysize_appends_both(self, tmp_path):
        ledger = RunLedger(tmp_path)
        _, a = ledger.append(_record(metrics={"ops.x": 10}, keysize=128))
        _, b = ledger.append(_record(metrics={"ops.x": 40}, keysize=256))
        assert a and b
        assert ledger.head("demo", (config_digest({"k": 3}), 256)).metrics == {
            "ops.x": 40
        }

    def test_head_is_the_last_record_of_its_lineage(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for sha, k in (("a", 3), ("b", 5), ("c", 3), ("d", 5)):
            ledger.append(_record(sha=sha, config={"k": k}, keysize=128))
        assert ledger.head("demo", (config_digest({"k": 3}), 128)).git_sha == "c"
        assert ledger.head("demo", (config_digest({"k": 3}), 256)) is None
        assert ledger.head("other", (config_digest({"k": 3}), 128)) is None

    def test_replay_property_random_order(self, tmp_path):
        """Appending any shuffle of a record set, repeatedly, converges to
        exactly one stored record per (sha, config_digest)."""
        import random

        records = [
            _record(sha=f"sha{i}", config={"k": k})
            for i in range(4)
            for k in (3, 5)
        ]
        ledger = RunLedger(tmp_path)
        rng = random.Random(7)
        for _ in range(3):
            shuffled = records[:]
            rng.shuffle(shuffled)
            for record in shuffled:
                ledger.append(record)
        stored = ledger.load("demo")
        assert len(stored) == len(records)
        keys = {(r.git_sha, r.config_digest) for r in stored}
        assert len(keys) == len(records)
        assert sorted(r.seq for r in stored) == list(range(len(records)))

    def test_same_sha_different_config_appends_both(self, tmp_path):
        ledger = RunLedger(tmp_path)
        _, a = ledger.append(_record(config={"k": 3}))
        _, b = ledger.append(_record(config={"k": 5}))
        assert a and b
        assert len(ledger.load("demo")) == 2

    def test_suites_are_separate_files(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record(suite="alpha"))
        ledger.append(_record(suite="beta"))
        assert ledger.suites() == ["alpha", "beta"]
        assert ledger.path("alpha").name == "alpha.jsonl"


class TestParseTaxonomy:
    def test_truncated_tail_raises_with_guidance(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record(sha="a"))
        ledger.append(_record(sha="b"))
        path = ledger.path("demo")
        text = path.read_text()
        path.write_text(text.rstrip("\n")[: len(text) - 20])
        with pytest.raises(ReproError, match="truncated.*--allow-truncated"):
            ledger.load("demo")

    def test_truncated_tail_recovery_round_trip(self, tmp_path):
        """Kill the last append mid-line; recovery keeps the prefix and the
        next append lands on a clean line of its own."""
        ledger = RunLedger(tmp_path)
        ledger.append(_record(sha="a"))
        ledger.append(_record(sha="b"))
        path = ledger.path("demo")
        text = path.read_text()
        path.write_text(text.rstrip("\n")[: len(text) - 20])
        survivors = ledger.load("demo", allow_truncated_tail=True)
        assert [r.git_sha for r in survivors] == ["a"]
        stored, appended = ledger.append(
            _record(sha="c"), allow_truncated_tail=True
        )
        assert appended and stored.seq == 1
        recovered = ledger.load("demo", allow_truncated_tail=True)
        assert [r.git_sha for r in recovered] == ["a", "c"]
        # The healed file now parses strictly again.
        reparsed = parse_ledger_jsonl(path.read_text())
        assert len(reparsed) >= 1

    def test_mid_file_garbage_always_raises(self):
        good = json.dumps(_record(sha="a", seq=0).to_dict())
        text = good + "\n{broken\n" + good + "\n"
        with pytest.raises(ReproError, match="line 2 does not parse"):
            parse_ledger_jsonl(text, allow_truncated_tail=True)

    def test_foreign_schema_version_refused(self):
        data = _record(sha="a", seq=0).to_dict()
        data["schema_version"] = LEDGER_SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="schema v"):
            parse_ledger_jsonl(json.dumps(data))

    def test_non_object_line_refused(self):
        with pytest.raises(ReproError, match="not a record object"):
            parse_ledger_jsonl("[1, 2, 3]\n")


class TestOrderingInvariance:
    def test_load_sorts_by_seq_not_line_order(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for sha in ("a", "b", "c"):
            ledger.append(_record(sha=sha))
        path = ledger.path("demo")
        lines = path.read_text().strip().splitlines()
        path.write_text("\n".join(reversed(lines)) + "\n")
        assert [r.git_sha for r in ledger.load("demo")] == ["a", "b", "c"]

    def test_sort_records_is_total(self):
        records = [_record(sha=s, seq=i) for i, s in enumerate("cab")]
        assert [r.seq for r in sort_records(reversed(records))] == [0, 1, 2]


class TestConverters:
    def test_bench_document_with_serving_report(self):
        report = {
            "completed": 10,
            "failed": 0,
            "comm_bytes_total": 123,
            "latency": {"p95": 0.2},
            "queue": {"mean_wait": 0.1},
            "makespan_seconds": 1.0,
        }
        doc = {
            "experiment": "serve",
            "git_sha": "cafe",
            "results": {"process": report, "serial": report},
            "metrics": {"counters": {"x": 1}, "gauges": {}, "histograms": {}},
        }
        record = record_from_bench_document(doc)
        assert record.suite == "serve" and record.source == "bench"
        assert record.metrics["serve.completed"] == 10
        assert record.obs == doc["metrics"]

    def test_bench_document_flattens_plain_results(self):
        doc = {
            "experiment": "index-scale",
            "git_sha": "beef",
            "results": {"metrics": {"build_seconds": 2.5}, "sizes": [1, 2]},
        }
        record = record_from_bench_document(doc)
        assert record.metrics == {"metrics.build_seconds": 2.5}

    def test_committed_artifacts_convert(self):
        """Every committed BENCH document must stay appendable."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "benchmarks"
        for path in sorted((root / "results").glob("BENCH_*.json")):
            record = record_from_bench_document(json.loads(path.read_text()))
            assert record.metrics, path.name

    def test_records_from_text_dispatch(self):
        bench = {"experiment": "serve", "git_sha": "a", "results": {"n": 1}}
        assert records_from_text(json.dumps(bench))[0].source == "bench"
        raw = json.dumps(_record(seq=0).to_dict())
        assert records_from_text(raw)[0].suite == "demo"
        with pytest.raises(ReproError, match="BENCH_\\*.json document or ledger"):
            records_from_text("# Performance sentinel report\n")
        retired = {"experiment": "ppgnn", "git_sha": "a", "metrics": {"x": 1}}
        with pytest.raises(ReproError, match="nothing to append"):
            records_from_text(json.dumps(retired))

    def test_records_from_text_jsonl_fragment(self):
        lines = "\n".join(
            json.dumps(_record(sha=s, seq=i).to_dict())
            for i, s in enumerate("ab")
        )
        assert len(records_from_text(lines)) == 2
