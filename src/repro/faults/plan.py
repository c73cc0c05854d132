"""Deterministic fault scheduling: FaultSpec, FaultPlan, FaultInjector.

A :class:`FaultPlan` is a declarative, JSON-serializable schedule of
faults; a :class:`FaultInjector` is the armed runtime object that chain
stages, workers and checkpoint IO call into at their *sites*.  Sites
are dotted names matched with :func:`fnmatch.fnmatch` patterns::

    chain.execute  chain.current  chain.pdn  chain.radiate
    chain.propagate  chain.receive          (SignalPath stage boundaries)
    worker.shard                            (per shard, inside a worker)
    checkpoint.save  checkpoint.load        (GA checkpoint IO)

Scheduling is deterministic: every spec keeps its own per-injector
visit counter, and either fires on an explicit visit window
(``at_visit`` .. ``at_visit + times - 1``) or samples a seeded RNG at
``rate`` per visit (for chaos runs), capped at ``times`` firings.  A
disarmed injector (no specs) costs one attribute check per visit, so
production paths call :meth:`FaultInjector.visit` unconditionally.

Injectors ship to worker processes by pickling alongside the fitness;
each worker therefore owns an independent copy with fresh counters --
a ``worker.shard`` spec with ``at_visit=0`` makes every worker fail its
first shard, which is exactly the "flaky pool" chaos scenario.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.errors import FAULT_KINDS, FaultError

FAULT_PLAN_VERSION = 1


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: where, what, and when it fires.

    ``at_visit`` selects a deterministic window of matching visits
    (0-based); ``rate`` instead samples the plan's seeded RNG per
    visit.  ``times`` bounds total firings in both modes.
    """

    site: str
    kind: str = "transient"
    at_visit: Optional[int] = None
    times: int = 1
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.at_visit is not None and self.at_visit < 0:
            raise ValueError("at_visit must be >= 0")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.at_visit is None and self.rate == 0.0:
            raise ValueError("spec needs at_visit or a non-zero rate")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "at_visit": self.at_visit,
            "times": self.times,
            "rate": self.rate,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        try:
            return cls(
                site=str(data["site"]),
                kind=str(data.get("kind", "transient")),
                at_visit=(
                    None
                    if data.get("at_visit") is None
                    else int(data["at_visit"])
                ),
                times=int(data.get("times", 1)),
                rate=float(data.get("rate", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed fault spec: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable schedule of :class:`FaultSpec` entries."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": FAULT_PLAN_VERSION,
            "kind": "fault-plan",
            "seed": self.seed,
            "specs": [s.to_dict() for s in self.specs],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if data.get("kind") != "fault-plan":
            raise ValueError("not a fault plan")
        if data.get("format_version") != FAULT_PLAN_VERSION:
            raise ValueError(
                f"unsupported fault-plan version "
                f"{data.get('format_version')!r}"
            )
        return cls(
            specs=tuple(
                FaultSpec.from_dict(s) for s in data.get("specs", ())
            ),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Read a fault plan from a JSON file (the CLI ``--fault-plan``)."""
    try:
        return FaultPlan.from_json(
            Path(path).read_text(encoding="utf-8")
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid fault-plan JSON: {exc}") from exc


class FaultInjector:
    """The armed runtime counterpart of a :class:`FaultPlan`.

    Instrumented code calls :meth:`visit` with its site name; the
    injector raises the scheduled typed fault or returns.  ``fired``
    records every injection for assertions and post-mortems.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self._specs = self.plan.specs
        self._visits = [0] * len(self._specs)
        self._fired_counts = [0] * len(self._specs)
        self._rng = np.random.default_rng(self.plan.seed)
        #: Chronological record of injections: (site, kind, visit index).
        self.fired: List[Tuple[str, str, int]] = []

    @property
    def armed(self) -> bool:
        """Whether any spec can still fire (False = pure no-op)."""
        return bool(self._specs)

    def visit(self, site: str) -> None:
        """Announce reaching ``site``; raises the scheduled fault.

        Disarmed injectors return after a single truthiness check, so
        the instrumented hot paths carry no overhead.
        """
        if not self._specs:
            return
        firing: Optional[Tuple[FaultSpec, int]] = None
        for i, spec in enumerate(self._specs):
            if not fnmatch(site, spec.site):
                continue
            visit = self._visits[i]
            self._visits[i] = visit + 1
            if self._fired_counts[i] >= spec.times:
                continue
            if spec.at_visit is not None:
                fire = spec.at_visit <= visit < spec.at_visit + spec.times
            else:
                fire = float(self._rng.random()) < spec.rate
            if fire:
                self._fired_counts[i] += 1
                if firing is None:
                    firing = (spec, visit)
        if firing is not None:
            spec, visit = firing
            self.fired.append((site, spec.kind, visit))
            raise FAULT_KINDS[spec.kind](
                f"injected {spec.kind} at {site} (visit {visit})",
                site=site,
            )

    def fired_at(self, site_pattern: str) -> List[Tuple[str, str, int]]:
        """Injections whose site matches ``site_pattern``."""
        return [f for f in self.fired if fnmatch(f[0], site_pattern)]


#: Shared disarmed injector: the default for every ``injector`` /
#: ``fault_injector`` parameter, analogous to ``repro.obs.NULL_LOG``.
NULL_INJECTOR = FaultInjector()
