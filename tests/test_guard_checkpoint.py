"""Crash-safe session checkpoints: round trips, resume equality, rejection."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import PPGNNConfig
from repro.core.session import QuerySession, SessionTotals
from repro.errors import CheckpointError, CryptoError, ReproError
from repro.guard.checkpoint import checkpoint_session, restore_session
from repro.guard.guard import ProtocolGuard

# SHA-256 of the bytes ``TestRoundTrip.test_wire_format_pinned`` builds.
CHECKPOINT_SHA256 = (
    "a42bd8ada856c4d663ac0b9dc94d6c41f3515d388f0743b66e22fd21940b8e73"
)


@pytest.fixture()
def locations(space, nprng):
    return space.sample_points(3, nprng)


class TestRoundTrip:
    def test_fresh_session_round_trips(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, protocol="ppgnn-opt", seed=31)
        restored = QuerySession.restore(session.checkpoint(), lsp)
        assert restored.protocol == "ppgnn-opt"
        assert restored.seed == 31
        assert restored.config == fast_config
        assert restored.totals == SessionTotals()
        assert restored.max_history == session.max_history

    def test_totals_survive(self, lsp, fast_config, locations):
        session = QuerySession(lsp, fast_config)
        session.query(locations)
        restored = QuerySession.restore(session.checkpoint(), lsp)
        assert restored.totals == session.totals
        assert restored.history == []  # history is deliberately not durable

    def test_checkpoint_is_deterministic(self, lsp, fast_config):
        a = QuerySession(lsp, fast_config, seed=5).checkpoint()
        b = QuerySession(lsp, fast_config, seed=5).checkpoint()
        assert a == b

    def test_none_fields_round_trip(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, max_history=None)
        restored = QuerySession.restore(session.checkpoint(), lsp)
        assert restored.max_history is None

    def test_negative_seed_round_trips(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, seed=-12)
        assert QuerySession.restore(session.checkpoint(), lsp).seed == -12

    def test_wire_format_pinned(self, lsp):
        """One checkpoint's bytes, pinned across releases.

        Every field kind is present: a negative seed, absent and present
        optionals, floats and a non-default configuration.
        """
        config = PPGNNConfig(
            d=6, delta=18, k=6, theta0=0.02, keysize=128,
            sanitation_samples=1500, key_seed=7, aggregate_name="max",
        )
        totals = SessionTotals(
            queries=3, comm_bytes=12345, user_seconds=0.25,
            lsp_seconds=0.5, answers_returned=9,
        )
        session = QuerySession(
            lsp, config, protocol="ppgnn-opt", seed=-12, totals=totals,
            max_history=None,
        )
        blob = checkpoint_session(session)
        assert hashlib.sha256(blob).hexdigest() == CHECKPOINT_SHA256
        assert restore_session(blob, lsp).totals == totals


class TestResumeEquality:
    def test_killed_session_resumes_to_identical_totals(
        self, medium_pois, fast_config, locations
    ):
        from repro.core.lsp import LSPServer

        def fresh_lsp():
            return LSPServer(medium_pois, sanitation_samples=1500, seed=99)

        uninterrupted = QuerySession(fresh_lsp(), fast_config, seed=3)
        straight_answers = [
            uninterrupted.query(locations).answers for _ in range(4)
        ]

        doomed = QuerySession(fresh_lsp(), fast_config, seed=3)
        for _ in range(2):
            doomed.query(locations)
        blob = doomed.checkpoint()
        del doomed  # the crash

        resumed = QuerySession.restore(blob, fresh_lsp())
        resumed_answers = [resumed.query(locations).answers for _ in range(2)]

        # Deterministic totals match exactly; CPU seconds are wall-clock
        # measurements and can only be compared loosely.
        assert resumed.totals.queries == uninterrupted.totals.queries
        assert resumed.totals.comm_bytes == uninterrupted.totals.comm_bytes
        assert (
            resumed.totals.answers_returned
            == uninterrupted.totals.answers_returned
        )
        assert resumed.totals.user_seconds > 0
        assert resumed.totals.lsp_seconds > 0
        assert resumed_answers == straight_answers[2:]

    def test_restore_as_subclass(self, lsp, fast_config, locations):
        class TaggedSession(QuerySession):
            pass

        base = QuerySession(lsp, fast_config, seed=9)
        base.query(locations)
        guard = ProtocolGuard()
        restored = TaggedSession.restore(base.checkpoint(), lsp, guard=guard)
        assert type(restored) is TaggedSession
        assert restored.guard is guard
        assert restored.totals.queries == 1
        result = restored.query(locations)
        assert len(result.answers) > 0


class TestRejection:
    def _blob(self, lsp, fast_config):
        return QuerySession(lsp, fast_config).checkpoint()

    def test_bad_magic(self, lsp, fast_config):
        blob = self._blob(lsp, fast_config)
        with pytest.raises(CryptoError, match="magic"):
            restore_session(b"XXXX" + blob[4:], lsp)

    def test_unsupported_version(self, lsp, fast_config):
        blob = self._blob(lsp, fast_config)
        with pytest.raises(CryptoError, match="version"):
            restore_session(blob[:4] + b"\x00\x63" + blob[6:], lsp)

    def test_truncated(self, lsp, fast_config):
        blob = self._blob(lsp, fast_config)
        with pytest.raises(CryptoError):
            restore_session(blob[: len(blob) // 2], lsp)
        with pytest.raises(CryptoError):
            restore_session(b"RP", lsp)

    def test_trailing_bytes(self, lsp, fast_config):
        blob = self._blob(lsp, fast_config)
        with pytest.raises(CryptoError, match="trailing"):
            restore_session(blob + b"\x00", lsp)

    def test_negative_cost_totals(self, lsp, fast_config):
        session = QuerySession(
            lsp, fast_config, totals=SessionTotals(user_seconds=-1.0)
        )
        with pytest.raises(CheckpointError, match="negative"):
            restore_session(session.checkpoint(), lsp)

    def test_answers_without_queries(self, lsp, fast_config):
        session = QuerySession(
            lsp, fast_config, totals=SessionTotals(answers_returned=3)
        )
        with pytest.raises(CheckpointError, match="without queries"):
            restore_session(session.checkpoint(), lsp)

    def test_every_single_byte_truncation_is_typed(self, lsp, fast_config):
        blob = self._blob(lsp, fast_config)
        for cut in range(len(blob)):
            with pytest.raises(ReproError):
                restore_session(blob[:cut], lsp)
