"""Error-path coverage: every exception class fires from a real code path.

Also pins the hierarchy contracts callers rely on (`except ReproError`
catches everything) and a property-style check that transcript rendering
preserves byte totals under the run-collapsing it performs.
"""

import random
import re

import pytest

from repro.errors import (
    ConfigurationError,
    CryptoError,
    EncodingError,
    InfeasibleError,
    ProtocolError,
    ReproError,
)

ALL_ERRORS = [
    ConfigurationError,
    CryptoError,
    EncodingError,
    InfeasibleError,
    ProtocolError,
]


class TestHierarchy:
    @pytest.mark.parametrize("error", ALL_ERRORS)
    def test_everything_is_a_repro_error(self, error):
        assert issubclass(error, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)


class TestRaisedFromRealPaths:
    """One genuine trigger per class — no error is dead code."""

    def test_configuration_error(self):
        from repro.core.config import PPGNNConfig

        with pytest.raises(ConfigurationError):
            PPGNNConfig(d=1)

    def test_infeasible_error(self):
        from repro.partition.solver import solve_partition

        with pytest.raises(InfeasibleError):
            solve_partition(n=2, d=2, delta=5)  # delta > d**n = 4

    def test_crypto_error(self):
        from repro.crypto.paillier import generate_keypair

        with pytest.raises(CryptoError):
            generate_keypair(15)  # odd, and below 16 bits

    def test_encoding_error(self):
        from repro.encoding.packing import split_bitstream

        with pytest.raises(EncodingError):
            split_bitstream(1 << 64, 32, 2)  # 65 bits do not fit 2 x 32

    def test_protocol_error(self):
        from repro.core.lsp import LSPServer

        with pytest.raises(ProtocolError):
            LSPServer(pois=[])


class TestTranscriptCollapseProperty:
    """format_transcript merges runs of identical messages; the rendered
    per-line byte totals and the final total must both equal the report's
    exact byte count, whatever the message sequence."""

    PARTIES = ("user", "coordinator", "lsp")

    def _random_report(self, rng: random.Random):
        from repro.protocol.messages import GenericMessage
        from repro.protocol.metrics import CostLedger

        ledger = CostLedger()
        for _ in range(rng.randrange(1, 60)):
            sender = rng.choice(self.PARTIES)
            receiver = rng.choice([p for p in self.PARTIES if p != sender])
            kind = rng.choice(("A", "B", "C"))
            # Repeats with the same kind/link exercise the collapsing path.
            for _ in range(rng.randrange(1, 4)):
                ledger.record(sender, receiver, GenericMessage(kind, rng.randrange(1, 500)))
        return ledger.report()

    @pytest.mark.parametrize("seed", range(25))
    def test_byte_totals_preserved(self, seed):
        from repro.protocol.transcript import format_transcript

        report = self._random_report(random.Random(seed))
        rendered = format_transcript(report)
        sizes = [int(match) for match in re.findall(r"\((\d+) B\)", rendered)]
        assert sum(sizes) == report.total_comm_bytes
        total_line = rendered.splitlines()[-1]
        assert total_line.split()[-2] == str(report.total_comm_bytes)

    def test_empty_transcript(self):
        from repro.protocol.metrics import CostLedger
        from repro.protocol.transcript import format_transcript

        assert "no messages" in format_transcript(CostLedger().report())
