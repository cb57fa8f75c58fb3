"""Phase attribution, critical paths, and mod-mul estimates on real traces."""

import numpy as np
import pytest

from repro.core.common import group_keypair
from repro.core.group import random_group, run_ppgnn
from repro.obs import (
    PHASES,
    Observability,
    Tracer,
    attribute_phases,
    attribute_phases_by_protocol,
    classify_phase,
    critical_path,
    estimate_modmuls,
    normalized_ops,
    render_attribution,
    self_ticks,
)
from repro.obs.profile import profile_keypair


@pytest.fixture(scope="module")
def traced_run(medium_pois, fast_config):
    """One PPGNN query with tracing on, shared by the module."""
    from repro.core.lsp import LSPServer

    lsp = LSPServer(medium_pois, sanitation_samples=1500, seed=99)
    group = random_group(3, lsp.space, np.random.default_rng(5))
    obs = Observability()
    result = run_ppgnn(lsp, group, fast_config, seed=5, obs=obs)
    return obs, result


class TestClassify:
    def test_prefix_table(self):
        assert classify_phase("coordinator.decrypt") == "crypto"
        assert classify_phase("crypto.rerandomize") == "crypto"
        assert classify_phase("transport.send") == "transport"
        assert classify_phase("uploads") == "transport"
        assert classify_phase("queue.wait") == "queue"
        assert classify_phase("lsp.answer") == "compute"
        assert classify_phase("session.query") == "other"
        assert classify_phase("round.ppgnn") == "other"


class TestSelfTicks:
    def test_partitions_the_forest(self, traced_run):
        obs, _ = traced_run
        spans = obs.tracer.spans()
        own = self_ticks(spans)
        roots_total = sum(s.ticks for s in spans if s.parent_id is None)
        assert sum(own.values()) == roots_total

    def test_subtree_self_ticks_sum_to_span_duration(self, traced_run):
        obs, _ = traced_run
        spans = obs.tracer.spans()
        own = self_ticks(spans)
        children: dict[int, list] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)

        def subtree(span) -> int:
            return own[span.span_id] + sum(
                subtree(child) for child in children.get(span.span_id, [])
            )

        for span in spans:
            assert subtree(span) == span.ticks


class TestAttribution:
    def test_phase_totals_match_tracer_root_durations(self, traced_run):
        obs, _ = traced_run
        spans = obs.tracer.spans()
        breakdown = attribute_phases(spans)
        roots_total = sum(s.ticks for s in spans if s.parent_id is None)
        assert breakdown.total == roots_total
        # The known protocol structure: one encrypt + one decrypt self-tick
        # per round under crypto, the uploads leg under transport, the
        # LSP answer under compute.
        assert breakdown.ticks["crypto"] > 0
        assert breakdown.ticks["transport"] > 0
        assert breakdown.ticks["compute"] > 0

    def test_by_name_sums_match_phase_totals(self, traced_run):
        obs, _ = traced_run
        breakdown = attribute_phases(obs.tracer.spans())
        for phase, names in breakdown.by_name.items():
            assert sum(names.values()) == breakdown.ticks[phase]

    def test_per_protocol_covers_round_subtree(self, traced_run):
        obs, _ = traced_run
        spans = obs.tracer.spans()
        per_protocol = attribute_phases_by_protocol(spans)
        assert list(per_protocol) == ["ppgnn"]
        round_spans = [s for s in spans if s.name.startswith("round.")]
        assert per_protocol["ppgnn"].total == sum(s.ticks for s in round_spans)

    def test_render_lists_every_phase(self, traced_run):
        obs, _ = traced_run
        rendered = render_attribution(obs.tracer.spans())
        for phase in PHASES:
            assert phase in rendered
        assert "critical path:" in rendered


class TestCriticalPath:
    def test_bounded_by_forest_total(self, traced_run):
        obs, _ = traced_run
        spans = obs.tracer.spans()
        path, duration = critical_path(spans)
        assert path
        assert duration <= attribute_phases(spans).total
        # The path is a real root-to-leaf chain.
        assert path[0].parent_id is None
        for parent, child in zip(path, path[1:]):
            assert child.parent_id == parent.span_id

    def test_beats_greedy_on_adversarial_tree(self):
        # A heavy shallow child vs. a lighter child with a deep subtree:
        # greedy descent takes the heavy child and stops, the DP keeps
        # digging.  (Burn filler events inside spans to shape self times.)
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("heavy-leaf"):
                for _ in range(4):
                    with tracer.span("lsp.filler"):
                        pass
            with tracer.span("light-parent"):
                with tracer.span("deep"):
                    for _ in range(6):
                        with tracer.span("lsp.filler"):
                            pass
        spans = tracer.spans()
        _, duration = critical_path(spans)
        own = self_ticks(spans)
        by_id = {s.span_id: s for s in spans}

        def chain_total(leaf_name: str) -> int:
            leaf = max(
                (s for s in spans if s.name == leaf_name), key=lambda s: s.ticks
            )
            total, cursor = 0, leaf
            while cursor is not None:
                total += own[cursor.span_id]
                cursor = by_id.get(cursor.parent_id)
            return total

        assert duration >= chain_total("deep")
        assert duration >= chain_total("heavy-leaf")

    def test_empty_forest(self):
        assert critical_path([]) == ([], 0)


class TestOpCounts:
    def test_normalized_ops_divides_by_queries(self, traced_run):
        obs, _ = traced_run
        counters = obs.snapshot().counters
        ops = normalized_ops(counters, 2)
        for name, value in ops.items():
            assert value == counters[name] / 2

    def test_normalized_ops_rejects_zero_queries(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            normalized_ops({}, 0)

    def test_estimate_matches_profiler_exactly(self, fast_config, traced_run):
        # Replay the traced run's op mix through profiled keys: the
        # analytic estimate must equal the profiler's bigint-mul ledger
        # (both sides use the same square-and-multiply arithmetic), with
        # the fast paths on and off.  Every counted encryption is the
        # coordinator's, on the owner path.
        from repro.crypto import fastexp

        obs, _ = traced_run
        counters = obs.snapshot().counters
        keypair = group_keypair(fast_config)
        for fast in (True, False):
            with fastexp.forced(fast):
                estimate = estimate_modmuls(counters, keypair)
                keys, profiler = profile_keypair(keypair)
                ciphertext = keys.secret_key.encrypt(41)
                keys.secret_key.decrypt(ciphertext)
            ledger = profiler.to_dict()
            assert "encrypt" not in ledger  # the public path never ran
            per_encrypt = ledger["encrypt.owner"]["bigint_muls"]
            per_crt = ledger["decrypt.crt"]["bigint_muls"]
            assert estimate["encrypt.owner"] == (
                counters["crypto.encryptions"] * per_encrypt
            )
            assert estimate["decrypt.crt"] == (
                counters["crypto.decryptions.crt"] * per_crt
            )
            # Window-table builds are ledgered under their own class; the
            # total is the sum of every breakdown key.
            per_crt_tables = ledger.get("decrypt.crt.tables", {}).get(
                "bigint_muls", 0
            )
            assert estimate["decrypt.crt.tables"] == (
                counters["crypto.decryptions.crt"] * per_crt_tables
            )
            assert estimate["total"] == (
                estimate["encrypt.owner"]
                + estimate["decrypt.crt"]
                + estimate["decrypt.crt.tables"]
                + estimate["decrypt.generic"]
            )
