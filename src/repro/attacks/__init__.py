"""Attack implementations the protocol defends against.

- The inequality attack of Section 5.1: n - 1 colluding users exploit the
  ranking of the returned POIs to carve out the feasible region of the
  remaining user's location.
- Scripted malicious parties (:mod:`repro.attacks.malicious`): a cheating
  LSP, and mutators for the runners' ``tamper=`` hook that forge a group
  member's messages; the :mod:`repro.guard` layer must detect each
  deviation or prove it harmless.
"""

from repro.attacks.inequality import AttackResult, inequality_attack
from repro.attacks.malicious import (
    LSP_DEVIATIONS,
    CheatingLSP,
    corrupt_position,
    duplicate_user_id,
    nan_location,
    outside_location,
    short_set,
)

__all__ = [
    "AttackResult",
    "CheatingLSP",
    "LSP_DEVIATIONS",
    "corrupt_position",
    "duplicate_user_id",
    "inequality_attack",
    "nan_location",
    "outside_location",
    "short_set",
]
