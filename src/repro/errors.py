"""Exception hierarchy for the PPGNN reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the library produces with a single ``except`` clause while
still being able to distinguish configuration mistakes from protocol
violations.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter value is outside its documented domain.

    Examples: ``d < 2`` for the Privacy I anonymity parameter, a ``delta``
    larger than ``d ** n`` (no feasible partition exists), or a key size too
    small to hold an encoded answer integer.
    """


def positive_int(value: object, name: str, floor: int = 1) -> int:
    """``value`` as an ``int`` when it is an integer of at least ``floor``.

    Python and numpy integers pass; a float (even ``2.0``), a bool or any
    other type raises :class:`ConfigurationError`, as does a value below
    ``floor``.  This is the one check behind every ``k``, every count
    setting (floor 1) and every seed or cap that may be zero (floor 0).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(
            f"{name} must be an integer >= {floor}, "
            f"not {type(value).__name__} {value!r}"
        )
    if value < floor:
        raise ConfigurationError(f"{name} must be an integer >= {floor}, got {value}")
    return int(value)


def flag(value: object, name: str) -> bool:
    """``value`` as a ``bool`` when it is a Python or numpy bool.

    Anything else, such as ``"no"``, ``0`` or ``None``, raises
    :class:`ConfigurationError`: a switch acts on its value's truth, and
    ``"no"`` is true.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(
            f"{name} must be a bool, not {type(value).__name__} {value!r}"
        )
    return bool(value)


def finite_real(value: object) -> bool:
    """Whether ``value`` is a real number, not a bool, that a float holds.

    The range test refuses NaN, ±inf and integers too large for a float,
    so arithmetic on an accepted value never raises.
    """
    limit = sys.float_info.max
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and -limit <= value <= limit
    )


class CryptoError(ReproError):
    """A cryptographic operation failed or was used inconsistently.

    Raised for plaintexts outside the plaintext space, ciphertexts combined
    under mismatching public keys, or decryption with the wrong key.
    """


class EncodingError(ReproError):
    """Answer encoding or decoding failed.

    Raised when a value does not fit its packed field width, or when a
    decoded buffer is structurally invalid.
    """


class ProtocolError(ReproError):
    """A party received a message that violates the protocol state machine."""


class GuardError(ProtocolError):
    """A hostile-input defense in :mod:`repro.guard` fired.

    Every guard rejection names the protocol round it happened in and the
    party whose inbound message triggered it, so an operator
    can attribute the abuse without replaying the transcript.
    """

    def __init__(self, message: str, *, round_id: int = 0, party: str = "") -> None:
        self.round_id = round_id
        self.party = party
        origin = f" [round {round_id}, party {party or '?'}]"
        super().__init__(message + origin)


class ProtocolStateError(GuardError):
    """A message arrived out of order, duplicated, or in the wrong phase.

    Raised by the per-role state machines of :mod:`repro.guard.state`: a
    replayed upload, a second query request, an answer before any request —
    anything the round's phase ordering forbids.
    """


class InboundValidationError(GuardError):
    """An inbound message is structurally or cryptographically malformed.

    Raised by :mod:`repro.guard.validate` before the payload reaches the
    crypto layer: ciphertexts outside ``Z*_{N^{s+1}}``, wrong level tags,
    indicator/candidate shapes that contradict the solved partition,
    NaN/out-of-space locations, undecodable plaintexts.
    """


class InfeasibleError(ConfigurationError):
    """No feasible solution exists for an optimization problem instance.

    Raised by the partition-parameter solver when ``delta > d ** n`` — the
    paper requires users to pick a larger ``d`` in that case.
    """


class QueueFullError(ReproError):
    """The serving engine's bounded queue is at capacity.

    The engine turns the arrival away and records the rejection, under
    this type's name, in the serving report instead of growing the queue
    without bound.
    """


class PerfRegressionError(ReproError):
    """A benchmark run regressed against its committed baseline.

    Raised by the performance sentinel (:mod:`repro.bench.sentinel`) when
    an exact counter — operation counts, rounds, bytes on the wire —
    moved the wrong way relative to the baseline, the head of the run's
    lineage in the run ledger.  ``regressions`` carries the offending
    metric deltas so reports can name them.
    """

    def __init__(self, experiment: str, regressions: list) -> None:
        self.experiment = experiment
        self.regressions = regressions
        names = ", ".join(delta.name for delta in regressions)
        super().__init__(
            f"experiment {experiment!r} regressed {len(regressions)} "
            f"exact counter(s): {names}"
        )
