"""Tests for the cost ledger, the report and the runners' send hook."""

import time

import pytest

from repro.crypto.homomorphic import OpCounter
from repro.errors import ConfigurationError
from repro.protocol.messages import GenericMessage, PositionAssignment
from repro.protocol.metrics import (
    COORDINATOR,
    LSP,
    USER,
    CostLedger,
    party_role,
    send,
)


class TestLedgerAccounting:
    def test_record_accumulates_per_link(self):
        ledger = CostLedger()
        ledger.record(USER, LSP, GenericMessage("a", 100))
        ledger.record(USER, LSP, GenericMessage("b", 50))
        ledger.record(LSP, COORDINATOR, GenericMessage("c", 10))
        report = ledger.report()
        assert report.link_bytes(USER, LSP) == 150
        assert report.link_bytes(LSP, COORDINATOR) == 10
        assert report.link_bytes(COORDINATOR, LSP) == 0
        assert report.total_comm_bytes == 160
        assert report.messages_by_link[(USER, LSP)] == 2

    def test_intra_group_bytes_exclude_lsp_links(self):
        ledger = CostLedger()
        ledger.record(USER, USER, GenericMessage("peer", 30))
        ledger.record(COORDINATOR, USER, GenericMessage("pos", 4))
        ledger.record(USER, LSP, GenericMessage("up", 99))
        assert ledger.report().intra_group_comm_bytes == 34

    def test_clock_attributes_time_to_role(self):
        ledger = CostLedger()
        with ledger.clock(LSP):
            time.sleep(0.01)
        with ledger.clock(USER):
            time.sleep(0.002)
        report = ledger.report()
        assert report.lsp_cost_seconds >= 0.009
        assert report.time_by_role[USER] >= 0.001

    def test_user_cost_sums_users_and_coordinator(self):
        ledger = CostLedger()
        with ledger.clock(USER):
            time.sleep(0.003)
        with ledger.clock(COORDINATOR):
            time.sleep(0.003)
        assert ledger.report().user_cost_seconds >= 0.005

    def test_clock_survives_exceptions(self):
        ledger = CostLedger()
        try:
            with ledger.clock(LSP):
                time.sleep(0.002)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert ledger.report().lsp_cost_seconds >= 0.001

    def test_counters_per_role(self):
        ledger = CostLedger()
        ledger.counter(LSP).scalar_muls += 5
        ledger.counter("auditor").additions += 1  # unknown roles allowed
        report = ledger.report()
        assert report.ops_by_role[LSP].scalar_muls == 5
        assert report.ops_by_role["auditor"].additions == 1
        assert isinstance(report.ops_by_role[USER], OpCounter)

    def test_report_is_a_snapshot(self):
        ledger = CostLedger()
        ledger.record(USER, LSP, GenericMessage("x", 1))
        report = ledger.report()
        ledger.record(USER, LSP, GenericMessage("y", 1))
        assert report.total_comm_bytes == 1


class TestSendHelper:
    def test_untampered_send_matches_plain_record(self):
        message = PositionAssignment(2)
        via_helper, via_record = CostLedger(), CostLedger()
        delivered = send(via_helper, "user:4", "lsp", message)
        via_record.record("user", "lsp", message)
        assert delivered is message
        assert via_helper.comm_bytes == via_record.comm_bytes
        assert via_helper.transcript == via_record.transcript

    def test_tamper_forges_the_delivery_not_the_record(self):
        honest, forged = PositionAssignment(2), PositionAssignment(10**6)
        links = []

        def tamper(link, message):
            links.append(link)
            return forged if link[1] == "user:1" else None

        ledger = CostLedger()
        assert send(ledger, "coordinator", "user:0", honest, tamper) is honest
        assert send(ledger, "coordinator", "user:1", honest, tamper) is forged
        assert links == [("coordinator", "user:0"), ("coordinator", "user:1")]
        # The ledger charges what the honest sender sent.
        assert ledger.comm_bytes[(COORDINATOR, USER)] == 2 * honest.byte_size

    def test_party_role_parsing(self):
        assert party_role("user:12") == "user"
        assert party_role("coordinator") == "coordinator"
        assert party_role("lsp") == "lsp"
        with pytest.raises(ConfigurationError):
            party_role("mallory")
