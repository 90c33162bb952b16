"""Correctness checks the benchmark applies to every result it times.

Each check returns a list of failure messages (empty when the result
is correct).  :class:`Tally` counts checked operations and failed
ones; a failed check is printed by name and counted, never raised, so
one bad result cannot hide the others and the run still reports
``failed`` in its result line.
"""

from __future__ import annotations

import sys
from typing import Any, List, Sequence, Tuple

from repro.potential.bounds import theorem20_bound


class Tally:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, operation: str, problems: Sequence[str]) -> None:
        """Count one operation; print and count it as failed when any
        check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
        for problem in problems:
            print(f"perfbench CHECK FAILED {operation}: {problem}", file=sys.stderr)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_batch(result: Any, restricted: bool) -> List[str]:
    """A finished batch run (a ``RunResult``, full or summary level).

    Every packet is delivered; every hot-potato packet-step is a move
    (``packet_steps == advances + deflections``); and, for a policy
    that prefers restricted packets, the makespan respects Theorem 20.
    """
    problems = []
    if not result.completed or result.delivered != result.k:
        problems.append(
            f"incomplete run: delivered {result.delivered} of {result.k}"
        )
    telemetry = result.telemetry
    if telemetry is None:
        problems.append("run carries no telemetry")
    elif telemetry.packet_steps != telemetry.advances + telemetry.deflections:
        problems.append(
            f"packet_steps {telemetry.packet_steps} != advances "
            f"{telemetry.advances} + deflections {telemetry.deflections}"
        )
    if restricted:
        bound = theorem20_bound(result.side, result.k)
        if result.total_steps > bound:
            problems.append(
                f"makespan {result.total_steps} exceeds Theorem 20 bound "
                f"{bound:.1f} (n={result.side}, k={result.k})"
            )
    return problems


def check_dynamic(telemetry: Any, stats: Any, horizon: int) -> List[str]:
    """A finished dynamic run: it reached its horizon and conserved
    packets (``injected == delivered + in flight + dropped``)."""
    problems = []
    if stats.abort is not None or stats.horizon != horizon:
        problems.append(
            f"run stopped at step {stats.horizon} of {horizon}: {stats.abort}"
        )
    accounted = telemetry.delivered + stats.final_in_flight + telemetry.dropped
    if telemetry.injected != accounted:
        problems.append(
            f"injected {telemetry.injected} != delivered "
            f"{telemetry.delivered} + in flight {stats.final_in_flight} "
            f"+ dropped {telemetry.dropped}"
        )
    return problems


def check_campaign(
    result: Any, restricted: bool
) -> List[Tuple[str, List[str]]]:
    """Per-case verdicts of a finished campaign, as ``(case, problems)``:
    every point is checked as a batch run and every ``CaseFailure`` is
    a failed case."""
    verdicts = [
        (f"case seed={point.params['seed']}", check_batch(point.result, restricted))
        for point in result.points
    ]
    verdicts.extend(
        (f"case {failure.key}", [f"CaseFailure {failure.error}: {failure.message}"])
        for failure in result.failures
    )
    return verdicts


def check_equal(what: str, got: Any, expected: Any) -> List[str]:
    """A replayed or resumed result equals the original one."""
    return [] if got == expected else [f"{what} differs from the original"]
