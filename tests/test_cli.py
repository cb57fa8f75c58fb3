"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.group import random_group
from repro.datasets import load_sequoia
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import MAX, SUM
from repro.gnn.bruteforce import brute_force_kgnn


def run_cli(args):
    return main(args)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--protocol", "carrier-pigeon"])


class TestInfo:
    def test_info_output(self, capsys):
        assert run_cli(["info"]) == 0
        out = capsys.readouterr().out
        assert "EDBT 2018" in out
        assert "d=25" in out


class TestSolve:
    def test_solve_paper_example(self, capsys):
        assert run_cli(["solve", "--n", "4", "--d", "4", "--delta", "8"]) == 0
        out = capsys.readouterr().out
        assert "delta' (candidates): 8" in out
        assert "(2, 2)" in out

    def test_solve_infeasible_is_reported(self, capsys):
        assert run_cli(["solve", "--n", "2", "--d", "3", "--delta", "100"]) == 2
        assert "error:" in capsys.readouterr().err


class TestQuery:
    COMMON = [
        "--pois", "400", "--d", "4", "--delta", "12", "--k", "3",
        "--keysize", "128", "--seed", "3",
    ]

    @pytest.mark.parametrize("protocol", ["ppgnn", "opt", "naive", "nas"])
    def test_group_query_protocols(self, capsys, protocol):
        code = run_cli(["query", "--n", "3", "--protocol", protocol, *self.COMMON])
        assert code == 0
        out = capsys.readouterr().out
        assert "answer (" in out
        assert "communication" in out

    def test_single_user_query(self, capsys):
        assert run_cli(["query", "--n", "1", *self.COMMON]) == 0
        out = capsys.readouterr().out
        assert "candidate queries : 4" in out

    def test_max_aggregate(self, capsys):
        # --aggregate reaches the answers only through the LSP; at this seed
        # the MAX and SUM top-3 differ, so the printed answer tells them apart.
        code = run_cli(
            [
                "query", "--n", "2", "--protocol", "nas", "--aggregate", "max",
                "--pois", "400", "--d", "3", "--delta", "6", "--k", "3",
                "--keysize", "128", "--seed", "2",
            ]
        )
        assert code == 0
        group = random_group(2, LocationSpace.unit_square(), np.random.default_rng(2))
        entries = [(poi.location, poi) for poi in load_sequoia(400)]
        best = {
            aggregate.name: [poi for _, poi, _ in brute_force_kgnn(entries, group, 3, aggregate)]
            for aggregate in (MAX, SUM)
        }
        assert best["max"] != best["sum"]
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("answer (3 of k=3 POIs):") + 1
        assert lines[start : start + 3] == [
            f"  {rank}. {poi}" for rank, poi in enumerate(best["max"], start=1)
        ]


class TestAttack:
    def test_attack_demo_runs(self, capsys):
        code = run_cli(
            [
                "attack", "--pois", "400", "--n", "4", "--d", "4",
                "--delta", "12", "--k", "4", "--keysize", "128",
                "--samples", "2000", "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "without sanitation" in out
        assert "with sanitation" in out


class TestServeBench:
    ARGS = [
        "serve-bench", "--pois", "300", "--queries", "8", "--groups", "3",
        "--keysize", "128", "--seed", "3",
    ]

    def test_serve_bench_runs_and_reports(self, capsys):
        assert run_cli(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "served 8/8 queries" in out
        assert "simulated throughput" in out
        assert "kNN cache" in out

    @pytest.mark.parametrize("index", ["lsh", "kdtree"])
    def test_serve_bench_rejects_retired_index(self, capsys, index):
        with pytest.raises(SystemExit) as exc:
            run_cli([*self.ARGS, "--index", index])
        assert exc.value.code == 2
        assert f"invalid choice: '{index}'" in capsys.readouterr().err

    def test_serve_bench_records_json(self, capsys, tmp_path):
        import json

        results = tmp_path / "results"
        assert run_cli([*self.ARGS, "--record", str(results)]) == 0
        # The BENCH json is the only write: no ledger beside the results.
        assert [p.name for p in tmp_path.iterdir()] == ["results"]
        assert [p.name for p in results.iterdir()] == ["BENCH_serve.json"]
        document = json.loads((results / "BENCH_serve.json").read_text())
        assert document["keysize"] == 128
        assert document["config"]["queries"] == 8
        assert document["results"]["completed"] == 8
        assert "wall_seconds" in document["results"]

    def test_serve_bench_json_output(self, capsys):
        import json

        assert run_cli([*self.ARGS, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["completed"] == 8
        assert report["answers_digest"]

    def test_serve_bench_rejects_retired_flags(self, capsys):
        retired = (
            ("shards", "2"),
            ("shard-replicas", "2"),
            ("quorum", "0.5"),
            ("partition", "str"),
            ("hedge-factor", "2.0"),
            ("kill-shard", "1"),
            ("fault-rate", "0.05"),
            ("executor", "process"),
            ("policy", "fair-share"),
        )
        for name, value in retired:
            with pytest.raises(SystemExit) as exc:
                run_cli([*self.ARGS, f"--{name}", value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{name} {value}" in (
                capsys.readouterr().err
            )

    def test_serve_bench_obs_embeds_metrics(self, capsys):
        import json

        assert run_cli([*self.ARGS, "--obs", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "crypto.encryptions" in report["obs"]["metrics"]["counters"]
        assert report["obs"]["spans"]

    def test_serve_bench_trace_out_writes_parseable_jsonl(self, capsys, tmp_path):
        from repro.obs import parse_jsonl, validate_spans

        trace = tmp_path / "serve.jsonl"
        assert run_cli([*self.ARGS, "--trace-out", str(trace)]) == 0
        spans = parse_jsonl(trace.read_text())
        assert spans
        validate_spans(spans)


class TestTrace:
    ARGS = [
        "trace", "--pois", "300", "--n", "3", "--d", "3", "--delta", "6",
        "--k", "3", "--keysize", "128", "--seed", "4",
    ]

    def test_live_trace_renders_tree_and_metrics(self, capsys):
        assert run_cli(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "round.ppgnn" in out
        assert "slowest path:" in out
        assert "crypto.encryptions" in out

    def test_trace_round_trips_through_file(self, capsys, tmp_path):
        trace = tmp_path / "q.jsonl"
        assert run_cli([*self.ARGS, "--out", str(trace)]) == 0
        live = capsys.readouterr().out
        assert run_cli(["trace", "--input", str(trace)]) == 0
        rendered = capsys.readouterr().out
        assert rendered.strip() in live

    def test_trace_bad_input_reports_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert run_cli(["trace", "--input", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_trace_truncated_tail_recoverable(self, capsys, tmp_path):
        trace = tmp_path / "q.jsonl"
        assert run_cli([*self.ARGS, "--out", str(trace)]) == 0
        capsys.readouterr()
        text = trace.read_text().rstrip("\n")
        trace.write_text(text[:-20])  # kill the run mid-write
        assert run_cli(["trace", "--input", str(trace)]) == 2
        assert "--allow-truncated" in capsys.readouterr().err
        code = run_cli(["trace", "--input", str(trace), "--allow-truncated"])
        assert code == 0


class TestAnalyze:
    TRACE_ARGS = [
        "trace", "--pois", "300", "--n", "3", "--d", "3", "--delta", "6",
        "--k", "3", "--keysize", "128", "--seed", "4",
    ]
    SERVE_ARGS = [
        "serve-bench", "--pois", "300", "--queries", "8", "--groups", "3",
        "--keysize", "128", "--seed", "3", "--obs",
    ]

    def test_analyze_trace_renders_phases(self, capsys, tmp_path):
        trace = tmp_path / "q.jsonl"
        assert run_cli([*self.TRACE_ARGS, "--out", str(trace)]) == 0
        capsys.readouterr()
        assert run_cli(["analyze", "--input", str(trace)]) == 0
        out = capsys.readouterr().out
        for phase in ("crypto", "transport", "queue", "compute"):
            assert phase in out
        assert "critical path:" in out
        assert "per-protocol phase shares:" in out

    def test_analyze_report_renders_sections(self, capsys, tmp_path):
        assert run_cli([*self.SERVE_ARGS, "--record", str(tmp_path)]) == 0
        capsys.readouterr()
        report = str(tmp_path / "BENCH_serve.json")
        assert run_cli(["analyze", "--report", report]) == 0
        out = capsys.readouterr().out
        assert "queue delay:" in out
        assert "per-query ops" in out

    def test_analyze_rejects_non_report_json(self, capsys, tmp_path):
        bogus = tmp_path / "x.json"
        report = '"latency": {"mean": 0.1}, "queue": {"max_depth": 0, "mean_depth": 0}'
        for document, message in (
            ('{"hello": "world"}', "no serving report"),
            # The retired executor envelope holds no report any more.
            ('{"results": {"serial": {' + report + '}}}', "no serving report"),
            # These two ended in a KeyError or TypeError traceback (exit 1).
            ('{"latency": {}, "queue": {}}', "latency.mean"),
            ('{"latency": {"mean": "x"}, "queue": {}}', "latency.mean"),
        ):
            bogus.write_text(document)
            assert run_cli(["analyze", "--report", str(bogus)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err


def _tamper_head(path, deltas=None, config=None):
    """Rewrite a ledger's last line as an older commit's run, its metrics
    shifted by ``deltas`` (a cheaper baseline reads as a regression)."""
    import json

    from repro.obs.series import config_digest

    lines = path.read_text().splitlines()
    head = json.loads(lines[-1])
    head["git_sha"] = "0" * 40
    for name, delta in (deltas or {}).items():
        head["metrics"][name] += delta
    if config is not None:
        head["config"] = config
        head["config_digest"] = config_digest(config)
    lines[-1] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")


class TestPerfCheck:
    ARGS = [
        "perf-check", "--pois", "300", "--n", "3", "--keysize", "128",
        "--protocols", "ppgnn",
    ]

    def _record(self, tmp_path):
        code = run_cli([*self.ARGS, "--record", "--series-dir", str(tmp_path)])
        assert code == 0
        return tmp_path / "ppgnn.jsonl"

    def test_record_then_unchanged_check_exits_zero(self, capsys, tmp_path):
        path = self._record(tmp_path)
        before = path.read_bytes()
        capsys.readouterr()
        assert run_cli([*self.ARGS, "--series-dir", str(tmp_path)]) == 0
        assert "0 exact regression(s)" in capsys.readouterr().out
        assert path.read_bytes() == before

    def test_exact_counter_regression_exits_nonzero(self, capsys, tmp_path):
        path = self._record(tmp_path)
        _tamper_head(path, {"ops.modmuls_estimated": -1})  # baseline was cheaper
        before = path.read_bytes()
        capsys.readouterr()
        report = tmp_path / "verdict.md"
        code = run_cli(
            [*self.ARGS, "--series-dir", str(tmp_path),
             "--report-out", str(report)]
        )
        assert code == 1
        assert "regressed ops.modmuls_estimated" in capsys.readouterr().out
        assert "Verdict: FAIL" in report.read_text()
        assert path.read_bytes() == before  # checking never writes

    def test_missing_baseline_is_a_clear_error(self, capsys, tmp_path):
        assert run_cli([*self.ARGS, "--series-dir", str(tmp_path)]) == 2
        assert "--record" in capsys.readouterr().err

    def test_workload_mismatch_refused(self, capsys, tmp_path):
        import json

        path = self._record(tmp_path)
        config = json.loads(path.read_text())["config"]
        _tamper_head(path, config={**config, "pois": 999})
        capsys.readouterr()
        assert run_cli([*self.ARGS, "--series-dir", str(tmp_path)]) == 2
        assert "re-record" in capsys.readouterr().err

    def test_baselines_stamp_provenance(self, tmp_path):
        from repro.obs.series import RunLedger

        self._record(tmp_path)
        [record] = RunLedger(tmp_path).load("ppgnn")
        assert record.keysize == 128
        assert record.config["seed"] == 7
        assert record.metrics["ops.modmuls_estimated"] > 0
        assert record.metrics["protocol.rounds"] >= 1
        assert record.phases and record.source == "perf-check"

    def test_record_accepts_the_counters_it_moved(self, capsys, tmp_path):
        from repro.obs.series import RunLedger

        path = self._record(tmp_path)
        _tamper_head(path, {"ops.modmuls_estimated": -1})
        assert run_cli([*self.ARGS, "--record", "--series-dir", str(tmp_path)]) == 0
        records = RunLedger(tmp_path).load("ppgnn")
        assert len(records) == 2
        assert records[-1].accepted == ("ops.modmuls_estimated",)
        assert run_cli(["trend", "--series-dir", str(tmp_path), "--check"]) == 0
        assert run_cli([*self.ARGS, "--series-dir", str(tmp_path)]) == 0

    def test_other_keysize_is_its_own_lineage(self, capsys, tmp_path):
        from repro.obs.series import RunLedger

        self._record(tmp_path)
        wider = [*self.ARGS, "--keysize", "256"]  # the last --keysize wins
        capsys.readouterr()
        assert run_cli([*wider, "--series-dir", str(tmp_path)]) == 2
        assert "re-record" in capsys.readouterr().err
        assert run_cli([*wider, "--record", "--series-dir", str(tmp_path)]) == 0
        records = RunLedger(tmp_path).load("ppgnn")
        assert [r.keysize for r in records] == [128, 256]
        assert records[-1].accepted == ()
        assert run_cli(["trend", "--series-dir", str(tmp_path), "--check"]) == 0
        assert run_cli([*self.ARGS, "--series-dir", str(tmp_path)]) == 0
        assert run_cli([*wider, "--series-dir", str(tmp_path)]) == 0


class TestCryptoMicroSuite:
    ARGS = ["perf-check", "--suite", "crypto", "--keysize", "256", "--seed", "9"]

    def test_record_then_check_round_trips(self, capsys, tmp_path):
        code = run_cli([*self.ARGS, "--record", "--series-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "crypto-256.jsonl").exists()
        capsys.readouterr()
        assert run_cli([*self.ARGS, "--series-dir", str(tmp_path)]) == 0
        assert "0 exact regression(s)" in capsys.readouterr().out

    def test_counter_regression_fails_the_gate(self, capsys, tmp_path):
        assert (
            run_cli([*self.ARGS, "--record", "--series-dir", str(tmp_path)])
            == 0
        )
        _tamper_head(tmp_path / "crypto-256.jsonl", {"ops.encrypt.bigint_muls": -1})
        capsys.readouterr()
        assert run_cli([*self.ARGS, "--series-dir", str(tmp_path)]) == 1
        assert "regressed ops.encrypt.bigint_muls" in capsys.readouterr().out

    def test_digest_is_fixed_direction(self, capsys, tmp_path):
        assert (
            run_cli([*self.ARGS, "--record", "--series-dir", str(tmp_path)])
            == 0
        )
        # Either direction fails.
        _tamper_head(tmp_path / "crypto-256.jsonl", {"answers.digest_mod": 1})
        capsys.readouterr()
        assert run_cli([*self.ARGS, "--series-dir", str(tmp_path)]) == 1

    def test_slow_baseline_improves_with_fast_paths(self, capsys, tmp_path):
        from repro.crypto import fastexp

        with fastexp.forced(False):
            assert (
                run_cli([*self.ARGS, "--record", "--series-dir", str(tmp_path)])
                == 0
            )
        capsys.readouterr()
        with fastexp.forced(True):
            assert run_cli([*self.ARGS, "--series-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "improved  ops.encrypt.bigint_muls" in out
        assert "improved  ops.dot.bigint_muls" in out
        assert "improved  ops.rerandomize.bigint_muls" in out
        assert "0 exact regression(s)" in out
