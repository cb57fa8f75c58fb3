"""Protocol hardening: state machines and inbound validation.

The paper proves privacy against semi-honest parties over a reliable
channel; this package defends the runners against a faulty or cheating
*counterpart*.  Pass a :class:`ProtocolGuard` to any runner (or session)
via ``guard=``; the ``guard=None`` default keeps the historical trusting
behavior byte-for-byte.

Layers:

- :mod:`repro.guard.state` — per-role protocol state machines enforcing
  round ordering (:class:`~repro.errors.ProtocolStateError`),
- :mod:`repro.guard.validate` — inbound structural/cryptographic checks
  (:class:`~repro.errors.InboundValidationError`).

The scripted adversaries of :mod:`repro.attacks.malicious` exercise both
layers; ``tests/test_attacks_malicious.py`` asserts each
deviation is either detected or provably harmless.
"""

from repro.guard.guard import NULL_ROUND_GUARD, ProtocolGuard, RoundGuard, begin_round
from repro.guard.state import (
    LSPStateMachine,
    RoleStateMachine,
    coordinator_machine,
    lsp_machine,
    member_machine,
)

__all__ = [
    "NULL_ROUND_GUARD",
    "LSPStateMachine",
    "ProtocolGuard",
    "RoleStateMachine",
    "RoundGuard",
    "begin_round",
    "coordinator_machine",
    "lsp_machine",
    "member_machine",
]
