"""The determinism lint rule table.

Each rule is a project-specific invariant the reproduction's
bit-identity guarantees rest on (GA resume, session caching, fault
retry).  The rule objects here carry only metadata -- identifier,
summary, and the documented fix-it -- so both the linter output and
``docs/architecture.md`` render from one source of truth.  The AST
checks themselves live in :mod:`repro.audit.lint`.

Suppression syntax (same line as the finding)::

    key = id(obj)  # audit: ignore[R3]
    value = risky()  # audit: ignore[R3,R6]
    anything = ok()  # audit: ignore

A bare ``# audit: ignore`` suppresses every rule on that line; the
bracketed form suppresses only the listed rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, what it flags, and how to fix it."""

    id: str
    name: str
    summary: str
    fixit: str


RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="R1",
            name="unseeded-rng",
            summary=(
                "unseeded RNG construction: numpy's module-level "
                "np.random.* functions draw from hidden global state, "
                "and default_rng() with no seed is entropy-seeded -- "
                "either one makes a run unreproducible"
            ),
            fixit=(
                "construct an explicit generator with "
                "np.random.default_rng(seed) and thread it to the "
                "draw site (instrument RNGs come from the run seed)"
            ),
        ),
        Rule(
            id="R2",
            name="wall-clock-read",
            summary=(
                "wall-clock read (time.time / datetime.now / "
                "datetime.utcnow / date.today) outside repro.obs: "
                "timestamps belong in telemetry, never in results"
            ),
            fixit=(
                "move the timestamp into the repro.obs event/manifest "
                "layer, or derive durations from time.monotonic / "
                "time.perf_counter inside a timing section"
            ),
        ),
        Rule(
            id="R3",
            name="id-cache-key",
            summary=(
                "id() of a non-interned object: CPython reuses "
                "addresses after GC, so an id()-derived cache or dict "
                "key can silently alias a dead object's entries"
            ),
            fixit=(
                "key by a stable monotonic token (Cluster.uid) or by a "
                "weakref, never by id()"
            ),
        ),
        Rule(
            id="R4",
            name="mutable-default-arg",
            summary=(
                "mutable default argument: the default is shared "
                "across calls, so state leaks between runs"
            ),
            fixit=(
                "default to None and construct the container inside "
                "the function (or use dataclasses.field("
                "default_factory=...))"
            ),
        ),
        Rule(
            id="R6",
            name="overbroad-except",
            summary=(
                "bare or over-broad except: `except:` / `except "
                "BaseException:` swallow KeyboardInterrupt and "
                "SystemExit, and a non-re-raising `except Exception:` "
                "swallows injected FaultErrors and AuditViolations"
            ),
            fixit=(
                "catch the narrowest concrete exception types the "
                "operation can raise (e.g. pickle.PicklingError, "
                "OSError), or re-raise after cleanup with a bare "
                "`raise`"
            ),
        ),
    )
}

#: Rule ids in canonical order, for stable output.
RULE_IDS: Tuple[str, ...] = tuple(sorted(RULES))


def render_rule_table() -> str:
    """Plain-text table of every rule (the ``rules`` subcommand)."""
    lines = []
    for rule_id in RULE_IDS:
        rule = RULES[rule_id]
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"    {rule.summary}")
        lines.append(f"    fix-it: {rule.fixit}")
    return "\n".join(lines)
