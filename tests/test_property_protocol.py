"""Protocol-level property tests: random parameters, end-to-end exactness.

Hypothesis drives the whole stack — random group sizes, privacy
parameters, k, and locations — and asserts the protocol's fundamental
contract: with sanitation off, every variant returns exactly the plaintext
kGNN answer; with sanitation on, a non-empty prefix of it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PPGNNConfig
from repro.core.group import run_ppgnn
from repro.core.lsp import LSPServer
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt
from repro.datasets.synthetic import uniform_pois
from repro.gnn.bruteforce import brute_force_kgnn

POIS = uniform_pois(300, seed=77)


@pytest.fixture(scope="module")
def shared_lsp():
    return LSPServer(POIS, sanitation_samples=600, seed=13)


protocol_params = st.tuples(
    st.integers(min_value=1, max_value=6),   # n
    st.integers(min_value=2, max_value=6),   # d
    st.integers(min_value=2, max_value=30),  # delta (clamped to >= d below)
    st.integers(min_value=1, max_value=10),  # k
    st.integers(min_value=0, max_value=10**6),  # seed
)


def truth_ids(lsp, locations, k):
    return [
        p.poi_id
        for _, p, _ in brute_force_kgnn(
            ((q.location, q) for q in POIS), locations, k, lsp.aggregate
        )
    ]


class TestProtocolContract:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(protocol_params)
    def test_nas_returns_exact_answer(self, shared_lsp, params):
        n, d, delta, k, seed = params
        delta = max(delta, d)
        if delta > d**n:
            return
        cfg = PPGNNConfig(
            d=d, delta=delta, k=k, keysize=128, sanitize=False,
            key_seed=5,
        )
        group = shared_lsp.space.sample_points(n, np.random.default_rng(seed))
        result = run_ppgnn(shared_lsp, group, cfg, seed=seed)
        assert list(result.answer_ids) == truth_ids(shared_lsp, group, k)
        assert result.delta_prime >= delta

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(protocol_params)
    def test_all_variants_agree(self, shared_lsp, params):
        n, d, delta, k, seed = params
        delta = max(delta, d)
        if delta > d**n:
            return
        cfg = PPGNNConfig(
            d=d, delta=delta, k=k, keysize=128, sanitize=False,
            key_seed=5,
        )
        group = shared_lsp.space.sample_points(n, np.random.default_rng(seed))
        plain = run_ppgnn(shared_lsp, group, cfg, seed=seed)
        opt = run_ppgnn_opt(shared_lsp, group, cfg, seed=seed)
        naive = run_naive(shared_lsp, group, cfg, seed=seed)
        assert plain.answer_ids == opt.answer_ids == naive.answer_ids

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(protocol_params)
    def test_sanitized_prefix_properties(self, shared_lsp, params):
        n, d, delta, k, seed = params
        delta = max(delta, d)
        if delta > d**n or n < 2:
            return
        cfg = PPGNNConfig(
            d=d, delta=delta, k=k, keysize=128, theta0=0.05,
            key_seed=5,
        )
        group = shared_lsp.space.sample_points(n, np.random.default_rng(seed))
        result = run_ppgnn(shared_lsp, group, cfg, seed=seed)
        truth = truth_ids(shared_lsp, group, k)
        assert 1 <= len(result.answers) <= k
        assert list(result.answer_ids) == truth[: len(result.answers)]
