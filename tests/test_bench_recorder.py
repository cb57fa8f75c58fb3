"""Tests for the benchmark series recorder."""

import pytest

from repro.bench.recorder import SeriesRecorder


class TestSeriesRecorder:
    def test_record_creates_file(self, tmp_path, capsys):
        recorder = SeriesRecorder(tmp_path)
        recorder.record(
            "exp1", "Demo title", "k", [1, 2], {"proto": ["1 B", "2 B"]}
        )
        content = (tmp_path / "exp1.txt").read_text()
        assert "Demo title" in content
        assert "proto: ['1 B', '2 B']" in content
        assert "Demo title" in capsys.readouterr().out

    def test_first_write_truncates_then_appends(self, tmp_path):
        recorder = SeriesRecorder(tmp_path)
        (tmp_path / "exp2.txt").write_text("stale content from last run\n")
        recorder.record("exp2", "A", "x", [1], {"s": ["1"]})
        recorder.record("exp2", "B", "x", [1], {"s": ["2"]})
        content = (tmp_path / "exp2.txt").read_text()
        assert "stale" not in content
        assert "=== A ===" in content and "=== B ===" in content

    def test_notes_recorded(self, tmp_path):
        recorder = SeriesRecorder(tmp_path)
        recorder.record(
            "exp3", "T", "x", [1], {"s": ["1"]}, notes="caveat emptor"
        )
        assert "note: caveat emptor" in (tmp_path / "exp3.txt").read_text()

    def test_note_method(self, tmp_path, capsys):
        recorder = SeriesRecorder(tmp_path)
        recorder.note("exp4", "free-form line")
        assert "free-form line" in (tmp_path / "exp4.txt").read_text()
        assert "free-form line" in capsys.readouterr().out

    def test_directory_created(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        SeriesRecorder(target)
        assert target.is_dir()


class TestRecordJson:
    def test_stamps_sha_keysize_and_config(self, tmp_path):
        import json

        recorder = SeriesRecorder(tmp_path)
        path = recorder.record_json(
            "serve",
            {"throughput_qps": 4.2},
            keysize=512,
            config={"workers": 4, "policy": "fifo"},
        )
        assert path == tmp_path / "BENCH_serve.json"
        document = json.loads(path.read_text())
        assert document["experiment"] == "serve"
        assert document["keysize"] == 512
        assert document["config"] == {"workers": 4, "policy": "fifo"}
        assert document["results"] == {"throughput_qps": 4.2}
        # tmp_path is outside any checkout, so the sha degrades gracefully.
        assert document["git_sha"] == "unknown"

    def test_writes_only_the_bench_json(self, tmp_path):
        results = tmp_path / "results"
        SeriesRecorder(results).record_json("serve", {"run": 1}, keysize=128)
        written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert [p.as_posix() for p in written] == [
            "results",
            "results/BENCH_serve.json",
        ]

    def test_overwrites_previous_run(self, tmp_path):
        import json

        recorder = SeriesRecorder(tmp_path)
        recorder.record_json("serve", {"run": 1})
        path = recorder.record_json("serve", {"run": 2})
        assert json.loads(path.read_text())["results"] == {"run": 2}

    def test_repo_checkout_yields_real_sha(self):
        from repro.bench.recorder import git_sha

        sha = git_sha(cwd=".")
        assert sha == "unknown" or (
            len(sha) == 40 and set(sha) <= set("0123456789abcdef")
        )

    def test_missing_config_defaults_empty(self, tmp_path):
        import json

        recorder = SeriesRecorder(tmp_path)
        document = json.loads(recorder.record_json("bare", [1, 2, 3]).read_text())
        assert document["config"] == {}
        assert document["keysize"] is None
        assert document["results"] == [1, 2, 3]

    def test_stamps_schema_version(self, tmp_path):
        import json

        from repro.bench.recorder import RECORD_SCHEMA_VERSION

        recorder = SeriesRecorder(tmp_path)
        document = json.loads(recorder.record_json("v", {"x": 1}).read_text())
        assert document["schema_version"] == RECORD_SCHEMA_VERSION

    def test_metrics_snapshot_rides_along(self, tmp_path):
        import json

        recorder = SeriesRecorder(tmp_path)
        snapshot = {"counters": {"crypto.encryptions": 9}}
        path = recorder.record_json("m", {"x": 1}, metrics=snapshot)
        assert json.loads(path.read_text())["metrics"] == snapshot
        # Omitted metrics leave the key out entirely.
        bare = recorder.record_json("m2", {"x": 1})
        assert "metrics" not in json.loads(bare.read_text())

    def test_refuses_cross_schema_overwrite(self, tmp_path):
        import json

        from repro.errors import ReproError

        recorder = SeriesRecorder(tmp_path)
        path = recorder.record_json("serve", {"run": 1})
        # Age the document back to the unversioned v1 layout.
        document = json.loads(path.read_text())
        del document["schema_version"]
        path.write_text(json.dumps(document))
        with pytest.raises(ReproError, match="force=True"):
            recorder.record_json("serve", {"run": 2})
        # Same-version overwrite still allowed, and force overrides.
        recorder.record_json("serve", {"run": 2}, force=True)
        recorder.record_json("serve", {"run": 3})
        assert json.loads(path.read_text())["results"] == {"run": 3}
