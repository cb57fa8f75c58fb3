"""Guard no-op guarantee: ``guard=None`` stays byte-for-byte identical.

The fixture values below were captured from the runners *before* the
guard subsystem existed.  Two invariants are pinned:

1. ``guard=None`` (the default) reproduces the pre-guard cost reports and
   answers exactly — the hardening layer added zero bytes, zero messages,
   and zero behavioral drift to the trusting path.
2. An *armed* guard over honest parties produces the same answers and
   the same per-link byte counts — validation observes the round, it
   never perturbs it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.core.group import run_ppgnn
from repro.core.lsp import LSPServer
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt
from repro.datasets.synthetic import clustered_pois
from repro.geometry.space import LocationSpace
from repro.guard.guard import ProtocolGuard

# Captured before the guard subsystem was introduced, at
# PPGNNConfig(d=4, delta=8, k=3, keysize=256, key_seed=5,
# sanitation_samples=400), 2000 clustered POIs (seed 11), an LSP with
# sanitation_samples=400/seed=99, three locations from default_rng(42),
# and runner seed 7.
PRE_GUARD_FIXTURE = {
    "ppgnn": {
        "total_comm_bytes": 908,
        "comm_bytes_by_link": {
            ("coordinator", "user"): 68,
            ("coordinator", "lsp"): 572,
            ("user", "lsp"): 204,
            ("lsp", "coordinator"): 64,
        },
        "query_index": 1,
    },
    "ppgnn-opt": {
        "total_comm_bytes": 876,
        "comm_bytes_by_link": {
            ("coordinator", "user"): 68,
            ("coordinator", "lsp"): 508,
            ("user", "lsp"): 204,
            ("lsp", "coordinator"): 96,
        },
        "query_index": 1,
    },
    "naive": {
        "total_comm_bytes": 1120,
        "comm_bytes_by_link": {
            ("coordinator", "user"): 68,
            ("coordinator", "lsp"): 592,
            ("user", "lsp"): 396,
            ("lsp", "coordinator"): 64,
        },
        "query_index": 2,
    },
}

MESSAGES_BY_LINK = {
    ("coordinator", "user"): 5,
    ("coordinator", "lsp"): 1,
    ("user", "lsp"): 3,
    ("lsp", "coordinator"): 1,
}

EXPECTED_ANSWERS = [
    (446, 0.738387812030613, 0.7038361585961901),
    (1592, 0.7312733948453854, 0.6837345921846315),
    (1537, 0.7396943470900985, 0.659903201964571),
]

RUNNERS = {"ppgnn": run_ppgnn, "ppgnn-opt": run_ppgnn_opt, "naive": run_naive}


@pytest.fixture(scope="module")
def fixture_setup():
    space = LocationSpace.unit_square()
    pois = clustered_pois(2000, space, seed=11)
    config = PPGNNConfig(d=4, delta=8, k=3, keysize=256, key_seed=5)
    locations = space.sample_points(3, np.random.default_rng(42))
    return pois, config, locations


def _fresh_lsp(pois):
    return LSPServer(pois, sanitation_samples=400, seed=99)


def _flatten(result):
    return [(a.poi_id, a.location.x, a.location.y) for a in result.answers]


@pytest.mark.parametrize("protocol", sorted(RUNNERS))
def test_default_path_matches_pre_guard_capture(fixture_setup, protocol):
    pois, config, locations = fixture_setup
    result = RUNNERS[protocol](_fresh_lsp(pois), locations, config, seed=7)
    expected = PRE_GUARD_FIXTURE[protocol]
    assert result.report.total_comm_bytes == expected["total_comm_bytes"]
    assert dict(result.report.comm_bytes_by_link) == expected["comm_bytes_by_link"]
    assert dict(result.report.messages_by_link) == MESSAGES_BY_LINK
    assert result.query_index == expected["query_index"]
    assert result.delta_prime == 8
    assert result.m == 1
    assert _flatten(result) == EXPECTED_ANSWERS


@pytest.mark.parametrize("protocol", sorted(RUNNERS))
def test_armed_guard_is_observationally_transparent(fixture_setup, protocol):
    pois, config, locations = fixture_setup
    runner = RUNNERS[protocol]
    bare = runner(_fresh_lsp(pois), locations, config, seed=7)
    guarded = runner(
        _fresh_lsp(pois), locations, config, seed=7, guard=ProtocolGuard()
    )
    assert _flatten(guarded) == _flatten(bare)
    assert dict(guarded.report.comm_bytes_by_link) == dict(
        bare.report.comm_bytes_by_link
    )
    assert dict(guarded.report.messages_by_link) == dict(
        bare.report.messages_by_link
    )
    assert guarded.query_index == bare.query_index
    assert [e.kind for e in guarded.report.transcript] == [
        e.kind for e in bare.report.transcript
    ]
