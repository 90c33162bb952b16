"""Store-and-forward engine for the structured baselines.

The paper contrasts hot-potato routing with traditional
store-and-forward routing, where "a packet is stored at a processor
until it can be transmitted to its preferred direction" (Section 1).
This engine implements that model: nodes have unbounded buffers, each
step a node may send at most one packet per outgoing arc, and packets
that cannot be sent simply wait.

It is a buffered configuration of the shared
:class:`~repro.core.kernel.StepKernel` (sorted node order, partial
assignments via :meth:`~repro.core.policy.BufferedPolicy.forward`); no
validators run by default because buffer occupancy legitimately
exceeds node degree.  Step metrics carry real per-step loads and
bad-node counts (historically this engine reported the cumulative
buffer maximum and zeros there); ``RunResult.max_load_seen`` is
unchanged by that, and ``RunResult.seed`` now uses the shared
:func:`~repro.core.rng.describe_seed` convention.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

from repro.core.events import RunObserver
from repro.core.kernel import (
    PhaseSink,
    StepKernel,
    StepSummary,
    build_run_result,
    default_step_limit,
    lean_equivalent,
    step_metrics_from_summary,
)
from repro.core.metrics import RunResult, StepMetrics
from repro.core.packet import Packet
from repro.core.policy import BufferedPolicy
from repro.core.problem import RoutingProblem
from repro.core.rng import RngLike, describe_seed, make_rng
from repro.core.validation import StepValidator
from repro.exceptions import LivelockSuspectedError
from repro.faults import (
    ActiveFaults,
    FaultSchedule,
    RunWatchdog,
    step_limit_abort,
)
from repro.obs.telemetry import RunTelemetry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.soa.adapters import PolicyAdapter


class BufferedEngine:
    """Synchronous store-and-forward simulator.

    The interface mirrors :class:`~repro.core.engine.HotPotatoEngine`
    so experiment code can treat both uniformly, but the semantics
    differ: a :class:`~repro.core.policy.BufferedPolicy` returns a
    *partial* assignment and unassigned packets remain buffered.
    """

    def __init__(
        self,
        problem: RoutingProblem,
        policy: BufferedPolicy,
        *,
        seed: RngLike = 0,
        validators: Sequence[StepValidator] = (),
        observers: Iterable[RunObserver] = (),
        max_steps: Optional[int] = None,
        raise_on_timeout: bool = False,
        profiler: Optional[PhaseSink] = None,
        faults: Optional[FaultSchedule] = None,
        watchdog: Optional[RunWatchdog] = None,
        backend: str = "object",
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if backend not in ("object", "soa"):
            raise ValueError(
                f"backend must be 'object' or 'soa', got {backend!r}"
            )
        self.backend = backend
        self._soa_adapter: Optional["PolicyAdapter"] = None
        if backend == "soa":
            from repro.core.soa import adapter_for

            if watchdog is not None:
                raise ValueError(
                    "backend='soa' does not support watchdogs"
                )
            if faults is not None:
                if not faults.is_empty:
                    raise ValueError(
                        "backend='soa' does not support fault "
                        "schedules; an empty FaultSchedule is "
                        "accepted and ignored"
                    )
                faults = None
            self._soa_adapter = adapter_for(
                policy, buffered=True, has_injection=False
            )
        self.problem = problem
        self.mesh = problem.mesh
        self.policy = policy
        self.rng = make_rng(seed)
        self._seed = describe_seed(seed)
        self.validators: List[StepValidator] = list(validators)
        self.observers: List[RunObserver] = list(observers)
        self.max_steps = (
            max_steps if max_steps is not None else default_step_limit(problem)
        )
        self.raise_on_timeout = raise_on_timeout
        self.profiler = profiler
        self.telemetry = RunTelemetry()
        self.faults = faults
        if watchdog is None and faults is not None:
            watchdog = RunWatchdog()
        self.watchdog = watchdog
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if on_checkpoint is None:
                raise ValueError(
                    "checkpoint_every needs an on_checkpoint sink to "
                    "receive the snapshots"
                )
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self.packets: List[Packet] = problem.make_packets()
        self._metrics: List[StepMetrics] = []
        self._summary_sinks: List[Any] = []
        self._max_buffer_seen = 0
        self._started = False
        self._resumed = False
        self._kernel = StepKernel(
            self.mesh,
            policy,
            buffered=True,
            node_order="sorted",
            set_entry_direction=False,
            emit=self._note,
            telemetry=self.telemetry,
            faults=(
                ActiveFaults(self.mesh, faults)
                if faults is not None
                else None
            ),
            watchdog=watchdog,
        )

    @property
    def time(self) -> int:
        return self._kernel.time

    @property
    def in_flight(self) -> List[Packet]:
        return self._kernel.in_flight

    @property
    def max_buffer_seen(self) -> int:
        """Largest per-node buffer occupancy observed (the cost the
        hot-potato discipline avoids)."""
        return self._max_buffer_seen

    def run(self) -> RunResult:
        self._start()
        watchdog = self._kernel.watchdog
        if watchdog is not None and not self._resumed:
            # A resumed run keeps its restored watchdog counters (see
            # HotPotatoEngine.run).
            watchdog.reset(self._kernel)
        every = self.checkpoint_every
        if lean_equivalent(self.validators, self.observers, False):
            if every is None:
                self._run_fast(self.max_steps)
            else:
                while (
                    self.in_flight
                    and self.time < self.max_steps
                    and self._kernel.abort is None
                ):
                    boundary = ((self.time // every) + 1) * every
                    self._run_fast(min(self.max_steps, boundary))
                    self._maybe_checkpoint()
        else:
            if self.backend == "soa":
                raise ValueError(
                    "backend='soa' runs the lean loop only; detach "
                    "step-consuming observers and validators first"
                )
            if self.profiler is not None:
                raise ValueError(
                    "profiling times the lean kernel loop; detach "
                    "step-consuming observers and validators first"
                )
            while self.in_flight and self.time < self.max_steps:
                if watchdog is not None:
                    verdict = watchdog.check(self._kernel)
                    if verdict is not None:
                        self._kernel.abort = verdict
                        break
                self.step()
                if every is not None and self.time % every == 0:
                    self._maybe_checkpoint()
        if (
            self.in_flight
            and self.raise_on_timeout
            and self._kernel.abort is None
        ):
            raise LivelockSuspectedError(
                f"{len(self.in_flight)} packets still buffered after "
                f"{self.time} steps under {self.policy.name!r}"
            )
        if (
            self._kernel.abort is None
            and self.in_flight
            and self.time >= self.max_steps
        ):
            self._kernel.abort = step_limit_abort(
                self._kernel, self.max_steps
            )
        result = build_run_result(
            self.problem,
            self.policy.name,
            self.packets,
            self._kernel,
            self._metrics,
            None,
            self._seed,
            abort=self._kernel.abort,
        )
        for observer in self.observers:
            observer.on_run_end(result)
        return result

    def step(self) -> None:
        self._start()
        record, summary = self._kernel.step_instrumented(self.validators)
        self._note(summary)
        for observer in self.observers:
            observer.on_step(record, self._metrics[-1])

    def snapshot(self) -> Dict[str, Any]:
        """Capture this engine's complete state as a JSON-safe dict
        (see :mod:`repro.snapshot`); valid at any step boundary."""
        from repro.snapshot.engine import engine_snapshot

        return engine_snapshot(self)

    def resume_from(self, payload: Dict[str, Any]) -> None:
        """Restore a snapshot onto this freshly constructed engine
        (same inputs, not yet run); the next :meth:`run` continues
        bit-identically from the checkpointed step."""
        from repro.snapshot.engine import resume_engine

        resume_engine(self, payload)

    def _run_fast(self, until: int) -> None:
        """One lean-loop segment up to absolute step ``until``."""
        if self.backend == "soa":
            from repro.core.soa import SoaKernel

            adapter = self._soa_adapter
            assert adapter is not None
            SoaKernel(self._kernel, adapter).run(
                until, profiler=self.profiler
            )
        else:
            self._kernel.run_lean(until, self.profiler)

    def _maybe_checkpoint(self) -> None:
        if (
            self.on_checkpoint is None
            or not self.in_flight
            or self._kernel.abort is not None
            or self.time >= self.max_steps
        ):
            return
        self.on_checkpoint(self.snapshot())

    def _note(self, summary: StepSummary) -> None:
        if summary.max_node_load > self._max_buffer_seen:
            self._max_buffer_seen = summary.max_node_load
        self._metrics.append(step_metrics_from_summary(summary))
        for sink in self._summary_sinks:
            sink(summary)

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        self.policy.prepare(self.mesh, self.problem, self.rng)
        delivered = 0
        remaining: List[Packet] = []
        for packet in self.packets:
            if packet.location == packet.destination:
                packet.delivered_at = 0
                delivered += 1
            else:
                remaining.append(packet)
        self._kernel.seed_packets(remaining, delivered_total=delivered)
        self._summary_sinks = [
            o.on_summary
            for o in self.observers
            if getattr(o, "needs_summaries", False)
        ]
        for observer in self.observers:
            observer.on_run_start(self)
