"""Crash-safe session checkpoints.

A coordinator that dies k queries into an m-query session should not redo
key generation or partition solving, and its cost accounting should not
forget the traffic already spent.  :func:`checkpoint_session` freezes the
durable state of a :class:`~repro.core.session.QuerySession` — protocol
name, session seed, full configuration, and the exact running totals —
into a byte string built from the hardened length-prefixed primitives of
:mod:`repro.crypto.serialization`; :func:`restore_session` rebuilds a
session that continues the per-query seed sequence exactly where the dead
one stopped, so a resumed run finishes with totals equal to an
uninterrupted one.

Query *history* is deliberately not checkpointed: results pin transcripts
and live ciphertexts, and ``totals`` is already exact over all queries.

Wire format: magic ``RPSS``, a 2-byte version, then the fields in fixed
order.  Every malformed buffer dies with a typed
:class:`~repro.errors.ReproError` subclass — :class:`CryptoError` for
byte-level damage, :class:`ConfigurationError` for out-of-domain values,
:class:`CheckpointError` for semantically impossible states.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.crypto.serialization import (
    pack_float,
    pack_int,
    pack_str,
    unpack_float,
    unpack_int,
    unpack_str,
)
from repro.errors import CheckpointError, CryptoError

if TYPE_CHECKING:
    from repro.core.session import QuerySession

_MAGIC = b"RPSS"
_VERSION = 1


def _pack_bool(value: bool) -> bytes:
    return b"\x01" if value else b"\x00"


def _unpack_bool(data: bytes, offset: int) -> tuple[bool, int]:
    if offset + 1 > len(data):
        raise CryptoError("truncated boolean")
    tag = data[offset]
    if tag not in (0, 1):
        raise CryptoError(f"invalid boolean byte {tag}")
    return bool(tag), offset + 1


def _pack_signed(value: int) -> bytes:
    """Sign byte + magnitude, so session seeds may be any integer."""
    return _pack_bool(value < 0) + pack_int(abs(value) + 1)


def _unpack_signed(data: bytes, offset: int) -> tuple[int, int]:
    negative, offset = _unpack_bool(data, offset)
    magnitude, offset = unpack_int(data, offset)
    if magnitude < 1:
        raise CryptoError("signed integer magnitude must be positive")
    value = magnitude - 1
    return (-value if negative else value), offset


def _pack_opt(packer, value) -> bytes:
    return _pack_bool(value is not None) + (b"" if value is None else packer(value))


def _unpack_opt(unpacker, data: bytes, offset: int):
    present, offset = _unpack_bool(data, offset)
    if not present:
        return None, offset
    return unpacker(data, offset)


def checkpoint_session(session: "QuerySession") -> bytes:
    """Serialize the durable state of a query session."""
    config = session.config
    totals = session.totals
    return b"".join(
        (
            _MAGIC,
            struct.pack(">H", _VERSION),
            pack_str(session.protocol),
            _pack_signed(session.seed),
            _pack_opt(pack_int, session.max_history),
            # --- configuration -------------------------------------------
            pack_int(config.d),
            pack_int(config.delta),
            pack_int(config.k),
            _pack_opt(pack_float, config.theta0),
            _pack_bool(config.sanitize),
            pack_float(config.gamma),
            pack_float(config.eta),
            pack_float(config.phi),
            _pack_opt(pack_int, config.sanitation_samples),
            pack_int(config.keysize),
            _pack_opt(_pack_signed, config.key_seed),
            pack_str(config.aggregate_name),
            # --- running totals ------------------------------------------
            pack_int(totals.queries),
            pack_int(totals.comm_bytes),
            pack_float(totals.user_seconds),
            pack_float(totals.lsp_seconds),
            pack_int(totals.answers_returned),
        )
    )


def restore_session(data: bytes, lsp, *, session_cls=None, **session_kwargs):
    """Rebuild a session from :func:`checkpoint_session` bytes.

    ``lsp`` is the (re-established) provider handle — server state is the
    LSP's own durable concern and never part of a client checkpoint.
    ``session_cls`` picks the session class (default
    :class:`~repro.core.session.QuerySession`, or the subclass whose
    ``restore`` was called) and ``session_kwargs`` passes through its
    extra constructor fields (guard, nonce pool, ...).

    The restored session's next query runs with ``seed + totals.queries``
    — the same seed the dead session would have used.
    """
    from repro.core.config import PPGNNConfig
    from repro.core.session import QuerySession, SessionTotals

    if len(data) < 6:
        raise CryptoError("checkpoint shorter than its header")
    if data[:4] != _MAGIC:
        raise CryptoError(f"bad checkpoint magic {data[:4]!r}")
    (version,) = struct.unpack_from(">H", data, 4)
    if version != _VERSION:
        raise CryptoError(f"unsupported checkpoint version {version}")
    offset = 6
    protocol, offset = unpack_str(data, offset)
    seed, offset = _unpack_signed(data, offset)
    max_history, offset = _unpack_opt(unpack_int, data, offset)
    d, offset = unpack_int(data, offset)
    delta, offset = unpack_int(data, offset)
    k, offset = unpack_int(data, offset)
    theta0, offset = _unpack_opt(unpack_float, data, offset)
    sanitize, offset = _unpack_bool(data, offset)
    gamma, offset = unpack_float(data, offset)
    eta, offset = unpack_float(data, offset)
    phi, offset = unpack_float(data, offset)
    samples, offset = _unpack_opt(unpack_int, data, offset)
    keysize, offset = unpack_int(data, offset)
    key_seed, offset = _unpack_opt(_unpack_signed, data, offset)
    aggregate_name, offset = unpack_str(data, offset)
    queries, offset = unpack_int(data, offset)
    comm_bytes, offset = unpack_int(data, offset)
    user_seconds, offset = unpack_float(data, offset)
    lsp_seconds, offset = unpack_float(data, offset)
    answers_returned, offset = unpack_int(data, offset)
    if offset != len(data):
        raise CryptoError("trailing bytes after checkpoint")
    if user_seconds < 0.0 or lsp_seconds < 0.0:
        raise CheckpointError("checkpoint carries negative cost totals")
    if answers_returned and not queries:
        raise CheckpointError("checkpoint counts answers without queries")

    config = PPGNNConfig(
        d=d,
        delta=delta,
        k=k,
        theta0=theta0,
        sanitize=sanitize,
        gamma=gamma,
        eta=eta,
        phi=phi,
        sanitation_samples=samples,
        keysize=keysize,
        key_seed=key_seed,
        aggregate_name=aggregate_name,
    )
    totals = SessionTotals(
        queries=queries,
        comm_bytes=comm_bytes,
        user_seconds=user_seconds,
        lsp_seconds=lsp_seconds,
        answers_returned=answers_returned,
    )
    cls = session_cls if session_cls is not None else QuerySession
    return cls(
        lsp=lsp,
        config=config,
        protocol=protocol,
        seed=seed,
        totals=totals,
        max_history=max_history,
        **session_kwargs,
    )

