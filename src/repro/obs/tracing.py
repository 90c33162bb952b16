"""Deflection-causality tracing: per-packet lifecycle events.

The paper's potential argument hinges on Definition 5 — "p is
*deflected by* q" when q takes an arc p needed — and on following the
consequences of each deflection through time.  :class:`PacketTracer`
makes that causality observable: an opt-in structured trace of every
packet's lifecycle (``inject`` → ``advance``/``deflect(by=q)`` →
``deliver``) with a query layer (:class:`PacketTrace`) that
reconstructs deflection chains.

Cost model: tracing consumes per-step :class:`StepRecord`\\ s, so it
declares ``needs_steps = True`` and forces the engine onto the
instrumented loop (and off the soa backend).  That is the deliberate
opposite of the metric/series recorders — tracing answers *why did
this packet wander*, not *how fast are we going* — and attaching it
must not change the routing outcome: the obs differential tests pin
traced runs bit-identical to untraced ones, including under fault
schedules.

Deflector attribution: for a deflected packet p routed at node v, the
candidates are the packets assigned one of p's good directions out of
v (the arcs p could have advanced along).  Advancing candidates are
preferred (the paper's Definition 5 shape), and the smallest packet id
wins ties, so the attribution is deterministic.  ``by`` is ``None``
when no candidate exists (a policy deflected p without contention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.types import Node, PacketId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.metrics import StepMetrics, StepRecord

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "EVENT_KINDS",
    "PacketTrace",
    "PacketTracer",
    "TraceEvent",
]

#: Version stamp carried by every exported trace payload.
TRACE_SCHEMA_VERSION = 1

#: The lifecycle event vocabulary, in lifecycle order.
EVENT_KINDS = ("inject", "advance", "deflect", "deliver")


@dataclass(frozen=True)
class TraceEvent:
    """One packet lifecycle event.

    ``node`` is where the event happened (the routing node for moves,
    the source for ``inject``, the destination for ``deliver``);
    ``to`` is the move's target node (``None`` for inject/deliver);
    ``by`` is the attributed deflector (``deflect`` only, may be
    ``None`` when the deflection had no contending packet).
    """

    kind: str
    step: int
    packet: PacketId
    node: Node
    to: Optional[Node] = None
    by: Optional[PacketId] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "step": self.step,
            "packet": self.packet,
            "node": list(self.node),
        }
        if self.to is not None:
            payload["to"] = list(self.to)
        if self.by is not None:
            payload["by"] = self.by
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        if data.get("kind") not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {data.get('kind')!r}")
        to = data.get("to")
        return cls(
            kind=data["kind"],
            step=int(data["step"]),
            packet=data["packet"],
            node=tuple(data["node"]),
            to=tuple(to) if to is not None else None,
            by=data.get("by"),
        )


class PacketTrace:
    """An ordered event log with per-packet indices and chain queries."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._by_packet: Dict[PacketId, List[TraceEvent]] = {}

    def __len__(self) -> int:
        return len(self.events)

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)
        self._by_packet.setdefault(event.packet, []).append(event)

    def packets(self) -> List[PacketId]:
        """All packet ids seen, sorted."""
        return sorted(self._by_packet)

    def events_for(self, packet: PacketId) -> List[TraceEvent]:
        """One packet's full lifecycle, in step order."""
        return list(self._by_packet.get(packet, ()))

    def deflections_of(self, packet: PacketId) -> List[TraceEvent]:
        """Just the packet's ``deflect`` events, in step order."""
        return [
            e for e in self._by_packet.get(packet, ()) if e.kind == "deflect"
        ]

    def deflection_chain(
        self, packet: PacketId, step: Optional[int] = None
    ) -> List[TraceEvent]:
        """Reconstruct the causal chain behind a deflection.

        Starting from ``packet``'s deflection at ``step`` (its last
        deflection when ``step`` is ``None``), follow the attributed
        deflector ``q``, then ``q``'s own most recent deflection at an
        earlier step, and so on — the trace-level reconstruction of the
        paper's "p deflected by q" relation iterated through time.  The
        chain ends at a packet that was never deflected before the
        point it did its deflecting (or whose deflection had no
        attributed cause).
        """
        chain: List[TraceEvent] = []
        deflections = self.deflections_of(packet)
        if step is not None:
            deflections = [e for e in deflections if e.step == step]
        if not deflections:
            return chain
        current = deflections[-1]
        seen: set[Tuple[PacketId, int]] = set()
        while True:
            key = (current.packet, current.step)
            if key in seen:  # cannot happen on a well-formed trace
                break
            seen.add(key)
            chain.append(current)
            if current.by is None:
                break
            earlier = [
                e
                for e in self.deflections_of(current.by)
                if e.step < current.step
            ]
            if not earlier:
                break
            current = earlier[-1]
        return chain

    def deflected_by_counts(self) -> Dict[Tuple[PacketId, PacketId], int]:
        """How often each (victim, deflector) pair occurred."""
        counts: Dict[Tuple[PacketId, PacketId], int] = {}
        for event in self.events:
            if event.kind == "deflect" and event.by is not None:
                pair = (event.packet, event.by)
                counts[pair] = counts.get(pair, 0) + 1
        return counts

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All events as JSON-safe dicts, in order."""
        return [event.to_dict() for event in self.events]


class PacketTracer:
    """Run observer that builds a :class:`PacketTrace`.

    Requires the instrumented loop (``needs_steps = True``); see the
    module docstring for the cost model and attribution rule.  Works on
    every engine that delivers :class:`~repro.core.metrics.StepRecord`
    objects — batch hot-potato, buffered (waiting packets emit no
    event), and both dynamic engines (source injections emit
    ``inject`` on first appearance).
    """

    needs_steps = True
    needs_summaries = False

    def __init__(self) -> None:
        self.trace = PacketTrace()
        self._mesh: Any = None
        self._seen: set[PacketId] = set()

    def on_run_start(self, engine: Any) -> None:
        self._mesh = engine.mesh
        start = engine.time
        for packet in engine.in_flight:
            self._seen.add(packet.id)
            self.trace.append(
                TraceEvent(
                    kind="inject",
                    step=start,
                    packet=packet.id,
                    node=packet.location,
                )
            )

    def on_step(self, record: "StepRecord", metrics: "StepMetrics") -> None:
        mesh = self._mesh
        groups = record.node_groups()
        for node in sorted(groups):
            infos = groups[node]
            for info in infos:
                if info.packet_id not in self._seen:
                    self._seen.add(info.packet_id)
                    self.trace.append(
                        TraceEvent(
                            kind="inject",
                            step=record.step,
                            packet=info.packet_id,
                            node=info.node,
                        )
                    )
            for info in infos:
                if info.next_node == info.node:
                    continue  # buffered wait: no movement event
                if info.advanced:
                    self.trace.append(
                        TraceEvent(
                            kind="advance",
                            step=record.step,
                            packet=info.packet_id,
                            node=info.node,
                            to=info.next_node,
                        )
                    )
                    continue
                good = mesh.good_directions(info.node, info.destination)
                candidates = [
                    other
                    for other in infos
                    if other.packet_id != info.packet_id
                    and other.assigned_direction in good
                ]
                advancing = [c for c in candidates if c.advanced]
                pool = advancing if advancing else candidates
                by = (
                    min(c.packet_id for c in pool) if pool else None
                )
                self.trace.append(
                    TraceEvent(
                        kind="deflect",
                        step=record.step,
                        packet=info.packet_id,
                        node=info.node,
                        to=info.next_node,
                        by=by,
                    )
                )
        for packet_id in record.delivered_after:
            info = record.infos[packet_id]
            self.trace.append(
                TraceEvent(
                    kind="deliver",
                    step=record.step,
                    packet=packet_id,
                    node=info.next_node,
                )
            )

    def on_summary(self, summary: Any) -> None:
        """Never fires: ``needs_summaries`` is False."""

    def on_run_end(self, result: Any) -> None:
        """Nothing to finalize; read :attr:`trace` any time."""
