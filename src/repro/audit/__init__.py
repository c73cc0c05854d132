"""Determinism audit subsystem: static lint + runtime invariant checks.

Two independent layers guard the reproducibility contract the rest of
the simulator assumes:

* **Static** -- ``python -m repro.audit lint src/`` applies the AST
  rules of :mod:`repro.audit.rules` (unseeded RNGs, wall-clock reads,
  ``id()`` cache keys, mutable defaults, over-broad ``except``) and
  exits nonzero on any unsuppressed finding.
* **Runtime** -- an opt-in :class:`DeterminismTracker`
  (``SimulationSession(audit=...)`` / CLI ``--audit``) shadow-recomputes
  a seeded sample of session cache hits and keeps an RNG draw ledger
  across chain stages, raising typed :class:`AuditViolation` errors and
  mirroring them as ``audit_violation`` events.
"""

from repro.audit.errors import (
    AuditViolation,
    CacheShadowMismatch,
    RngLedgerViolation,
)
from repro.audit.lint import Finding, lint_file, lint_paths, lint_source
from repro.audit.rules import RULE_IDS, RULES, Rule, render_rule_table
from repro.audit.tracker import AuditStats, DeterminismTracker, bitwise_equal

__all__ = [
    "AuditViolation",
    "CacheShadowMismatch",
    "RngLedgerViolation",
    "Finding",
    "lint_file",
    "lint_paths",
    "lint_source",
    "Rule",
    "RULES",
    "RULE_IDS",
    "render_rule_table",
    "AuditStats",
    "DeterminismTracker",
    "bitwise_equal",
]
