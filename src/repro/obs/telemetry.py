"""Lean-path run counters.

:class:`RunTelemetry` is the observability layer's answer to "what did
this run do?" at near-zero cost: a slotted dataclass of plain integer
counters that :meth:`~repro.core.kernel.StepKernel.run_lean` bumps
once per step from values it already has in local variables —
no per-step objects, no RNG reads, no change to routing decisions.
The instrumented step updates the same counters from each
:class:`~repro.core.kernel.StepSummary`, so the lean and instrumented
paths produce bit-identical telemetry (pinned by the engine
differential tests, which compare whole :class:`RunResult`\\ s).

This module must stay import-light: the core engines construct
:class:`RunTelemetry` at startup, so nothing here may import from
``repro.core`` at runtime (type-checking imports are fine).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kernel import StepSummary

__all__ = ["RunTelemetry", "aggregate"]


@dataclass(slots=True)
class RunTelemetry:
    """Integer counters accumulated over one run (or merged over many).

    Totals count events; ``max_*`` fields are per-step peaks.  A
    *packet-step* is one in-flight packet present for one step (the
    unit behind the benchmark suite's packet-steps/s throughput
    figures), so ``packet_steps == advances + deflections + waits``
    where waits only occur under buffered semantics.
    """

    #: Kernel steps executed.
    steps: int = 0
    #: Sum over steps of the in-flight population (routed packets).
    packet_steps: int = 0
    #: Packets generated by an injection source (0 for batch runs).
    generated: int = 0
    #: Packets injected into the fabric by a source (0 for batch runs).
    injected: int = 0
    #: Packets absorbed at their destination.
    delivered: int = 0
    #: Hops that reduced the distance to the destination (good hops).
    advances: int = 0
    #: Hops that did not (deflections; Definition 5).
    deflections: int = 0
    #: Packets removed by fault events (0 without a fault schedule).
    dropped: int = 0
    #: Peak in-flight population over any single step.
    max_in_flight: int = 0
    #: Peak single-node load (buffer occupancy under buffered rules).
    max_node_load: int = 0
    #: Peak source backlog (generated but not yet injected packets).
    max_backlog: int = 0

    def note_summary(self, summary: "StepSummary") -> None:
        """Accumulate one step from its :class:`StepSummary`.

        Used by the instrumented step; the lean loops apply the same
        arithmetic from local variables through
        ``StepKernel._note_step``.
        """
        self.steps += 1
        self.packet_steps += summary.routed
        self.generated += summary.generated
        self.injected += summary.injected
        self.delivered += summary.delivered
        advancing = summary.advancing
        self.advances += advancing
        self.deflections += summary.moved - advancing
        self.dropped += summary.dropped
        if summary.routed > self.max_in_flight:
            self.max_in_flight = summary.routed
        if summary.max_node_load > self.max_node_load:
            self.max_node_load = summary.max_node_load
        if summary.backlog > self.max_backlog:
            self.max_backlog = summary.backlog

    def merge(self, other: "RunTelemetry") -> None:
        """Fold another run's counters into this one (totals add,
        peaks take the max) — the cross-worker aggregation rule."""
        self.steps += other.steps
        self.packet_steps += other.packet_steps
        self.generated += other.generated
        self.injected += other.injected
        self.delivered += other.delivered
        self.advances += other.advances
        self.deflections += other.deflections
        self.dropped += other.dropped
        if other.max_in_flight > self.max_in_flight:
            self.max_in_flight = other.max_in_flight
        if other.max_node_load > self.max_node_load:
            self.max_node_load = other.max_node_load
        if other.max_backlog > self.max_backlog:
            self.max_backlog = other.max_backlog

    @property
    def deflection_rate(self) -> float:
        """Deflections per moved packet-step (0.0 on an empty run)."""
        moved = self.advances + self.deflections
        return self.deflections / moved if moved else 0.0

    def to_dict(self) -> Dict[str, int]:
        """A plain-int mapping (JSON- and manifest-friendly)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunTelemetry":
        """Inverse of :meth:`to_dict`; rejects unknown or non-int keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown telemetry fields: {sorted(unknown)}")
        values: Dict[str, int] = {}
        for name, value in data.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"telemetry field {name!r} must be an int, "
                    f"got {value!r}"
                )
            values[name] = value
        return cls(**values)

    def summary(self) -> str:
        """One human line, mirroring ``RunResult.summary()``'s style."""
        return (
            f"telemetry: steps={self.steps} packet_steps={self.packet_steps} "
            f"delivered={self.delivered} advances={self.advances} "
            f"deflections={self.deflections} "
            f"(rate {self.deflection_rate:.3f}) "
            f"peak in-flight={self.max_in_flight} "
            f"peak load={self.max_node_load} "
            f"peak backlog={self.max_backlog}"
        )


def aggregate(
    items: Iterable[Optional["RunTelemetry"]],
) -> Optional["RunTelemetry"]:
    """Merge many runs' telemetry; ``None`` entries (runs from older
    result payloads) are skipped, and all-``None`` input returns
    ``None`` rather than a misleading zero record."""
    total: Optional[RunTelemetry] = None
    for item in items:
        if item is None:
            continue
        if total is None:
            total = RunTelemetry()
        total.merge(item)
    return total
