"""Timing of the benchmark workloads: the untraced end-to-end run and
the traced per-layer run.

Untraced run, for one workload: the timed region cycles through the
workload's instances, one timed unit at a time, until ``seconds`` have
passed and every instance ran once.  Building each unit's engine or
store happens between units and is not timed; a ``gc.collect()``
before each timing keeps earlier garbage out of it.  Between units,
cold set-ups and resumes are timed too, each until it has used
``SIDE_SHARE`` of the elapsed region.  Every unit's result is checked,
and a repeated instance must reproduce its first simulated outcome
exactly.

Traced run: one set-up with spans, then every instance once with
spans and once without (the difference is the tracing overhead), then
the workload's extra layer passes.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from checks import Tally, check_equal
from spans import Tracer
from suite import Unit, Workload, reset_caches, sha256_json


#: Share of the timed region given to set-up and to resume samples
#: each; the rest goes to timed units.
SIDE_SHARE = 0.15
#: Fewest set-up and resume samples in a run, and most of each taken
#: between two units (cheap set-ups would otherwise take hundreds of
#: samples at once instead of spreading them over the region).
MIN_SIDE_SAMPLES = 3
MAX_SIDE_SAMPLES_PER_UNIT = 10


def timed(action: Callable[[], Any]) -> Tuple[float, Any]:
    """Wall seconds of one call of ``action`` (after a collection, so
    earlier garbage is not collected inside the timing) and its value."""
    gc.collect()
    start = time.perf_counter()
    value = action()
    return time.perf_counter() - start, value


def cold_setup(workload: Workload) -> None:
    reset_caches()
    workload.setup()


def run_e2e(
    workload: Workload, seconds: float, tally: Tally
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics (all but ``peak_rss_mb``) and a report of
    sample counts and the simulated-statistics digest.

    Set-up and resume samples are interleaved with the timed units
    across the whole region rather than taken in a block, so every
    metric averages over the same stretch of host time.
    """
    setup_times = [timed(lambda: cold_setup(workload))[0]]
    resume_times: List[float] = []
    samples: List[Tuple[float, Unit]] = []
    artifact = None
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or len(samples) < workload.instances
        or len(setup_times) < MIN_SIDE_SAMPLES
        or len(resume_times) < MIN_SIDE_SAMPLES
    ):
        index = len(samples) % workload.instances
        prepared = workload.prepare(index)
        elapsed, raw = timed(lambda: workload.execute(index, prepared))
        unit = workload.digest(index, raw, tally)
        del prepared, raw
        first = workload.first_sims.setdefault(index, unit.sim)
        if len(samples) >= workload.instances:
            tally.record(
                f"{workload.name} repeat of instance {index}",
                check_equal("simulated outcome", unit.sim, first),
            )
        samples.append((elapsed, unit))
        if artifact is None:
            artifact = workload.resume_artifact()

        budget = SIDE_SHARE * (time.perf_counter() - start)
        for _ in range(MAX_SIDE_SAMPLES_PER_UNIT):
            if len(setup_times) >= MIN_SIDE_SAMPLES and sum(setup_times) >= budget:
                break
            setup_times.append(timed(lambda: cold_setup(workload))[0])
        for _ in range(MAX_SIDE_SAMPLES_PER_UNIT):
            if len(resume_times) >= MIN_SIDE_SAMPLES and sum(resume_times) >= budget:
                break
            elapsed, resumed = timed(lambda: workload.resume(artifact))
            workload.check_resume(resumed, artifact, tally)
            resume_times.append(elapsed)
            del resumed

    times = [elapsed for elapsed, _ in samples]
    total_s = sum(times)
    sims = [workload.first_sims[index] for index in range(workload.instances)]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "packet_steps_per_s": sum(unit.packet_steps for _, unit in samples) / total_s,
        "run_s_p50": statistics.median(times),
        "cases_per_s": sum(unit.cases for _, unit in samples) / total_s,
        "resume_s": statistics.fmean(resume_times),
        "sim_makespan_steps": statistics.fmean(sim["makespan"] for sim in sims),
        "sim_latency_steps_mean": statistics.fmean(sim["latency_mean"] for sim in sims),
        "t20_ratio_max": max(sim["t20_ratio"] for sim in sims),
    }
    report = {
        "samples": {
            "setup": len(setup_times),
            "units": len(times),
            "resume": len(resume_times),
        },
        "unit_s": times,
        "unit_packet_steps": [unit.packet_steps for _, unit in samples],
        "digest": sims,
        "digest_sha256": sha256_json(sims),
    }
    return metrics, report


def run_traced(
    workload: Workload, tally: Tally, names: Sequence[str], spans_path: str
) -> Dict[str, float]:
    """Per-layer metrics: every name in ``names``, 0 for layers this
    workload does not reach."""
    tracer = Tracer()
    workload.tracer = tracer
    reset_caches()
    with tracer.span("setup", trace="setup"):
        workload.setup()
    untraced = Tracer(enabled=False)
    seconds = {True: 0.0, False: 0.0}
    for index in range(workload.instances):
        # Each instance runs traced and untraced back to back, in
        # alternating order, so drift on the host cancels out of the
        # overhead rather than landing on one side of it.
        for traced in (True, False) if index % 2 == 0 else (False, True):
            workload.tracer = tracer if traced else untraced
            gc.collect()
            start = time.perf_counter()
            with workload.tracer.span("unit", trace=f"unit-{index}"):
                raw = workload.execute(index, workload.prepare(index))
            seconds[traced] += time.perf_counter() - start
            unit = workload.digest(index, raw, tally)
            workload.first_sims.setdefault(index, unit.sim)
            del raw
    workload.tracer = untraced
    workload.layer_passes(tracer, tally)
    tracer.write(spans_path)

    metrics = {name: 0.0 for name in names}
    for span, self_s in tracer.self_seconds().items():
        if f"{span}_s" in metrics:
            metrics[f"{span}_s"] = self_s
    for name, value in tracer.counts.items():
        if name in metrics:
            metrics[name] = value
    if metrics["core.packet_steps"]:
        metrics["core.advance_ratio"] = (
            metrics["core.advances"] / metrics["core.packet_steps"]
        )
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_s"] += seconds[True] - seconds[False]
    return metrics
