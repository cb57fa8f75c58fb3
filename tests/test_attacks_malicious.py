"""Adversary tests: every scripted deviation is detected or provably harmless.

The adversaries in :mod:`repro.attacks.malicious` forge well-formed
messages; the assertion here is the guard's contract: each deviation
either raises a typed :class:`~repro.errors.GuardError` naming the
offending round and party, or the run completes with answers
*byte-identical* to the honest run (the one harmless case being
ciphertext rerandomization).
"""

from __future__ import annotations

import pytest

from repro.attacks.malicious import (
    LSP_DEVIATIONS,
    CheatingLSP,
    corrupt_position,
    duplicate_user_id,
    nan_location,
    outside_location,
    short_set,
)
from repro.core.group import run_ppgnn
from repro.core.lsp import LSPServer
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt
from repro.errors import (
    ConfigurationError,
    GuardError,
    InboundValidationError,
    ProtocolStateError,
)
from repro.guard.guard import ProtocolGuard

GUARD = ProtocolGuard()


@pytest.fixture(scope="module")
def locations(space):
    import numpy as np

    return space.sample_points(3, np.random.default_rng(42))


@pytest.fixture(scope="module")
def honest_answers(medium_pois, fast_config, locations):
    lsp = LSPServer(medium_pois, sanitation_samples=1500, seed=99)
    return run_ppgnn(lsp, locations, fast_config, seed=7, guard=GUARD).answers


def fresh_lsp(medium_pois):
    return LSPServer(medium_pois, sanitation_samples=1500, seed=99)


class TestCheatingLSP:
    def test_unknown_deviation_rejected(self, lsp):
        with pytest.raises(ConfigurationError, match="unknown deviation"):
            CheatingLSP(lsp, "made-up")

    @pytest.mark.parametrize(
        "deviation", [d for d in LSP_DEVIATIONS if d != "rerandomize"]
    )
    def test_cheats_detected_and_attributed(
        self, medium_pois, fast_config, locations, deviation
    ):
        cheater = CheatingLSP(fresh_lsp(medium_pois), deviation, seed=3)
        with pytest.raises(InboundValidationError) as info:
            run_ppgnn(cheater, locations, fast_config, seed=7, guard=GUARD)
        assert info.value.party == "lsp"

    def test_rerandomize_is_harmless(
        self, medium_pois, fast_config, locations, honest_answers
    ):
        # Semantic security: every ciphertext byte changes, the decrypted
        # answer must not.
        cheater = CheatingLSP(fresh_lsp(medium_pois), "rerandomize", seed=3)
        result = run_ppgnn(cheater, locations, fast_config, seed=7, guard=GUARD)
        assert result.answers == honest_answers

    @pytest.mark.parametrize(
        "deviation",
        ["extra_ciphertext", "empty_answer", "non_unit_value", "wrong_level"],
    )
    def test_cheats_detected_on_opt_path(
        self, medium_pois, fast_config, locations, deviation
    ):
        cheater = CheatingLSP(fresh_lsp(medium_pois), deviation, seed=3)
        with pytest.raises(InboundValidationError) as info:
            run_ppgnn_opt(cheater, locations, fast_config, seed=7, guard=GUARD)
        assert info.value.party == "lsp"

    def test_unguarded_run_cannot_tell(self, medium_pois, fast_config, locations):
        # The control experiment: without the guard, a rerandomizing LSP
        # passes silently — the guard adds the detection, not the protocol.
        cheater = CheatingLSP(fresh_lsp(medium_pois), "rerandomize", seed=3)
        result = run_ppgnn(cheater, locations, fast_config, seed=7)
        assert len(result.answers) > 0


RUNNERS = {"ppgnn": run_ppgnn, "ppgnn-opt": run_ppgnn_opt, "naive": run_naive}


def counted(mutator):
    """Wrap a mutator so the test can count the forgeries it made."""
    forged = []

    def tamper(link, message):
        forgery = mutator(link, message)
        if forgery is not None:
            forged.append(link)
        return forgery

    return tamper, forged


@pytest.mark.parametrize("protocol", sorted(RUNNERS))
class TestCheatingMembers:
    def _run(self, protocol, medium_pois, fast_config, locations, mutator):
        tamper, forged = counted(mutator)
        runner = RUNNERS[protocol]
        with pytest.raises(GuardError) as info:
            runner(
                fresh_lsp(medium_pois), locations, fast_config, seed=7,
                tamper=tamper, guard=GUARD,
            )
        assert len(forged) == 1, "exactly one message is forged per run"
        return info.value

    @pytest.mark.parametrize(
        "mutator_factory, expected_party",
        [
            (nan_location, "user:1"),
            (outside_location, "user:1"),
            (short_set, "user:1"),
        ],
    )
    def test_poisoned_uploads_detected(
        self, protocol, medium_pois, fast_config, locations, mutator_factory,
        expected_party,
    ):
        error = self._run(
            protocol, medium_pois, fast_config, locations, mutator_factory(1)
        )
        assert type(error) is InboundValidationError
        assert error.party == expected_party

    def test_impersonation_detected(
        self, protocol, medium_pois, fast_config, locations
    ):
        # Member 1 claims member 0's id: the LSP state machine sees a
        # duplicate upload and rejects before the candidate matrix forms.
        error = self._run(
            protocol, medium_pois, fast_config, locations,
            duplicate_user_id(1, victim_id=0),
        )
        assert type(error) is ProtocolStateError
        assert error.party == "user:0"
        assert "duplicate" in str(error)

    def test_forged_position_detected(
        self, protocol, medium_pois, fast_config, locations
    ):
        error = self._run(
            protocol, medium_pois, fast_config, locations, corrupt_position(1)
        )
        assert type(error) is InboundValidationError
        assert error.party == "coordinator"
        assert "position" in str(error)

    def test_every_deviation_raises_a_guard_error(
        self, protocol, medium_pois, fast_config, locations
    ):
        # The blanket contract: nothing escapes as an untyped exception.
        for factory in (nan_location, outside_location, short_set):
            self._run(protocol, medium_pois, fast_config, locations, factory(2))
