"""Tests for transcript recording and rendering."""

import numpy as np

from repro.core.group import random_group, run_ppgnn
from repro.protocol.messages import GenericMessage
from repro.protocol.metrics import COORDINATOR, LSP, USER, CostLedger
from repro.protocol.transcript import format_transcript


class TestTranscriptRecording:
    def test_entries_in_send_order(self):
        ledger = CostLedger()
        ledger.record(COORDINATOR, LSP, GenericMessage("req", 10))
        ledger.record(USER, LSP, GenericMessage("up", 20))
        ledger.record(LSP, COORDINATOR, GenericMessage("ans", 30))
        transcript = ledger.report().transcript
        assert [e.sender for e in transcript] == [COORDINATOR, USER, LSP]
        assert [e.byte_size for e in transcript] == [10, 20, 30]

    def test_protocol_run_produces_expected_sequence(self, lsp, fast_config):
        group = random_group(3, lsp.space, np.random.default_rng(7))
        result = run_ppgnn(lsp, group, fast_config, seed=1)
        kinds = [e.kind for e in result.report.transcript]
        assert kinds[: len(group)] == ["PositionAssignment"] * len(group)
        assert "GroupQueryRequest" in kinds
        assert kinds.count("LocationSetUpload") == len(group)
        assert kinds[-1] == "PlaintextAnswerBroadcast"


class TestTranscriptFormatting:
    def test_collapses_repeats(self):
        ledger = CostLedger()
        for _ in range(5):
            ledger.record(USER, LSP, GenericMessage("up", 7))
        ledger.record(LSP, COORDINATOR, GenericMessage("ans", 9))
        text = format_transcript(ledger.report())
        assert "x5" in text
        assert "(35 B)" in text
        assert text.count("\n") == 2  # two collapsed lines + total

    def test_total_line(self):
        ledger = CostLedger()
        ledger.record(USER, LSP, GenericMessage("a", 1))
        assert "total" in format_transcript(ledger.report())

    def test_empty_transcript(self):
        assert "no messages" in format_transcript(CostLedger().report())
