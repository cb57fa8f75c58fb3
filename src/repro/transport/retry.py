"""Retry policy: timeout, capped exponential backoff, deterministic jitter.

The simulation is synchronous, so "time" here is simulated network time:
the transport charges each failed attempt's timeout and each backoff wait
to the run's network clock (``CostReport.time_by_role["network"]``) rather
than sleeping.  Jitter is derived from a CRC32 of (link, seq, attempt), so
two runs with the same fault seed replay byte-identically — a requirement
for the chaos sweep's answers-must-match assertion.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """When to give up on a message and how long to wait in between.

    Attributes
    ----------
    max_attempts:
        Transmissions per message (first send included) before
        :class:`~repro.errors.RetryExhaustedError`.
    timeout_seconds:
        Simulated wait before an unanswered attempt is declared lost.
    base_backoff_seconds / backoff_multiplier / max_backoff_seconds:
        Capped exponential backoff between attempts: attempt ``a`` waits
        ``min(base * multiplier**a, max)`` (before jitter).
    jitter_fraction:
        Deterministic +/- spread applied to each backoff, in [0, 1).
    """

    max_attempts: int = 5
    timeout_seconds: float = 0.05
    base_backoff_seconds: float = 0.01
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 1.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.timeout_seconds < 0 or self.base_backoff_seconds < 0:
            raise ConfigurationError("timeout and backoff must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")
        if self.max_backoff_seconds < self.base_backoff_seconds:
            raise ConfigurationError("max_backoff must be >= base_backoff")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError("jitter_fraction must be in [0, 1)")

    def _raw_backoff(self, attempt: int) -> float:
        """``min(base * multiplier**(attempt-1), max)`` without overflow.

        ``multiplier ** (attempt - 1)`` raises OverflowError once the
        exponent passes ~1024 for multiplier 2 — reachable with a large
        ``max_attempts`` — so saturation at the cap is decided in log
        space first and the original expression only evaluates when it is
        known to be in range (keeping every in-range value bit-identical
        to the pre-guard behaviour).
        """
        base, mult, cap = (
            self.base_backoff_seconds,
            self.backoff_multiplier,
            self.max_backoff_seconds,
        )
        if base == 0.0:
            return 0.0
        if mult > 1.0 and attempt > 1:
            log_raw = math.log(base) + (attempt - 1) * math.log(mult)
            # A half-unit margin keeps log-space rounding away from the
            # decision: anything this close to the cap from above is capped.
            if log_raw >= math.log(cap) + 0.5:
                return cap
        return min(base * mult ** (attempt - 1), cap)

    def backoff(self, attempt: int, link: tuple[str, str], seq: int) -> float:
        """Wait before retransmission number ``attempt`` (1-based retry).

        Jitter is a deterministic draw seeded per link: the CRC32 of
        (link, seq, attempt) is this transport's per-link RNG, so chaos
        runs replay byte-identically regardless of global RNG state.
        """
        raw = self._raw_backoff(attempt)
        token = f"{link[0]}|{link[1]}|{seq}|{attempt}".encode()
        unit = zlib.crc32(token) / 2**32  # deterministic in [0, 1)
        return raw * (1.0 - self.jitter_fraction + 2.0 * self.jitter_fraction * unit)
