"""Shared user-side building blocks of the protocol runners."""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import PPGNNConfig

if TYPE_CHECKING:
    from repro.dummies.base import DummyGenerator
from repro.crypto.paillier import KeyPair, generate_keypair
from repro.encoding.answers import AnswerCodec, DecodedAnswer
from repro.errors import ConfigurationError, positive_int
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.obs import Observability, maybe_span
from repro.protocol.messages import EncryptedAnswer
from repro.protocol.metrics import COORDINATOR, CostLedger


def derive_rngs(seed: int) -> tuple[random.Random, np.random.Generator]:
    """One seed -> (protocol randomness, dummy-location randomness).

    The seed must be a non-negative integer (a numpy integer is taken as
    ``int``); anything else, a bool or a float included, raises
    :class:`ConfigurationError`.  Every runner takes its seed through here.
    """
    seed = positive_int(seed, "seed", floor=0)
    return random.Random(seed), np.random.default_rng(seed)


def group_keypair(config: PPGNNConfig) -> KeyPair:
    """The (sk, pk) pair for a query group.

    Key generation is an offline step (keys exist before any query is
    posed), so runners call this outside the user clock; with a
    ``key_seed`` the pair is cached across runs, keeping benchmark sweeps
    comparable to the paper's timing which excludes key setup.
    """
    return generate_keypair(config.keysize, seed=config.key_seed)


def build_location_set(
    real_location: Point,
    position: int,
    size: int,
    space: LocationSpace,
    rng: np.random.Generator,
    generator: "DummyGenerator | None" = None,
) -> tuple[Point, ...]:
    """A length-``size`` location set with the real location at ``position``.

    The remaining slots are dummy locations from ``generator`` (default:
    uniform over the space, the paper's evaluation model; PAD-style and
    POI-aware strategies live in :mod:`repro.dummies`).  The real location
    must lie inside the space — Privacy I hinges on dummies and real
    locations being indistinguishable.
    """
    if not 0 <= position < size:
        raise ConfigurationError(f"position {position} out of range [0, {size})")
    if not space.contains(real_location):
        raise ConfigurationError(f"real location {real_location} outside the space")
    if generator is None:
        dummies = space.sample_points(size - 1, rng)
    else:
        dummies = generator.generate(size - 1, space, rng)
        if len(dummies) != size - 1:
            raise ConfigurationError(
                f"dummy generator returned {len(dummies)} locations, "
                f"expected {size - 1}"
            )
        for dummy in dummies:
            if not space.contains(dummy):
                raise ConfigurationError(f"dummy {dummy} outside the space")
    return tuple(dummies[:position]) + (real_location,) + tuple(dummies[position:])


def publish_round(obs: "Observability", span, result, lsp) -> None:
    """Stamp a finished round's costs onto its span and the metrics registry.

    Called by the protocol runners when ``obs`` is armed, after the round
    guard closed.  The span carries the *deterministic* per-round totals
    (operation counts, communication bytes, the LSP's kGNN call count) —
    the numbers the acceptance test compares against
    :meth:`~repro.serve.costs.CostModel.predict_ops`.
    """
    ops = result.report.ops_by_role
    encryptions = sum(c.encryptions for c in ops.values())
    decryptions = sum(c.decryptions for c in ops.values())
    scalar_muls = sum(c.scalar_muls for c in ops.values())
    additions = sum(c.additions for c in ops.values())
    stats = getattr(lsp, "last_stats", None)
    kgnn_queries = stats.kgnn_queries if stats is not None else 0
    span.set(
        protocol=result.protocol,
        encryptions=encryptions,
        decryptions=decryptions,
        scalar_muls=scalar_muls,
        additions=additions,
        kgnn_queries=kgnn_queries,
        comm_bytes=result.report.total_comm_bytes,
    )
    obs.count("crypto.encryptions", encryptions)
    obs.count("crypto.scalar_muls", scalar_muls)
    obs.count("crypto.additions", additions)
    obs.count("lsp.kgnn_queries", kgnn_queries)


def decrypt_answer(
    keypair: KeyPair,
    codec: AnswerCodec,
    encrypted: EncryptedAnswer,
    ledger: CostLedger,
    nested: bool = False,
    guard_round=None,
    obs: "Observability | None" = None,
) -> list[DecodedAnswer]:
    """Coordinator-side answer decryption + decoding (charged to its clock).

    ``guard_round`` (a :class:`~repro.guard.guard.RoundGuard`) range-checks
    the decrypted plaintexts and attributes decode failures to the LSP;
    None keeps the trusting decode path.  ``obs`` records a
    ``coordinator.decrypt`` span and splits the
    ``crypto.decryptions.crt`` / ``.generic`` counters by the path each
    decryption actually took.
    """
    with maybe_span(
        obs, "coordinator.decrypt", ciphertexts=len(encrypted.ciphertexts)
    ) as span:
        with ledger.clock(COORDINATOR):
            counter = ledger.counter(COORDINATOR)
            crt = generic = 0
            integers = []
            if nested:
                for c in encrypted.ciphertexts:
                    value, paths = keypair.secret_key.decrypt_nested_with_path(c)
                    integers.append(value)
                    for path in paths:
                        crt += path == "crt"
                        generic += path == "generic"
                counter.decryptions += 2 * len(encrypted.ciphertexts)
            else:
                for c in encrypted.ciphertexts:
                    value, path = keypair.secret_key.decrypt_with_path(c)
                    integers.append(value)
                    crt += path == "crt"
                    generic += path == "generic"
                counter.decryptions += len(encrypted.ciphertexts)
            if obs is not None:
                obs.count("crypto.decryptions.crt", crt)
                obs.count("crypto.decryptions.generic", generic)
                span.set(crt=crt, generic=generic)
            if guard_round is not None:
                return guard_round.decode_plaintexts(codec, integers)
            return codec.decode(integers)
