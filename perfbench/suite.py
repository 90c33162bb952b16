"""The four benchmark workloads.

Every workload exposes the same steps, which :mod:`harness` times:

* ``setup()`` builds everything the timed region needs from cold
  caches (meshes, arc tables, generated inputs, the first engine, the
  worker pool);
* ``prepare(i)`` builds what one timed unit of instance ``i`` needs
  and is not timed (a fresh engine, a fresh store);
* ``execute(i, prepared)`` is the timed unit;
* ``digest(i, raw, tally)`` checks the unit's result and reduces it to
  a :class:`Unit` whose ``sim`` part is simulated data only, so it
  repeats exactly for a seed;
* ``resume_artifact()`` / ``resume(artifact)`` time the read path from
  a durable artifact back to a finished result;
* ``layer_passes(tracer, tally)`` runs the extra traced passes that
  only the per-layer run needs.

Spans are recorded through ``self.tracer``; the untraced run uses a
disabled tracer, which records nothing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import shutil
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from checks import (
    Tally,
    check_batch,
    check_campaign,
    check_dynamic,
    check_equal,
)
from spans import Tracer

from repro.algorithms import make_policy
from repro.campaign import Campaign, CampaignStore, CaseSpec, WorkerPool, spec_key
from repro.campaign import worker as campaign_worker
from repro.campaign.results import ExperimentPoint, summary_result
from repro.campaign.worker import (
    execute_chunk,
    initialize_worker,
    mesh_for,
    resolve_policy,
    resolve_workload,
)
from repro.core.engine import HotPotatoEngine
from repro.core.problem import RoutingProblem
from repro.core.validation import validators_for
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.faults import random_schedule
from repro.mesh import tables as mesh_tables
from repro.mesh.topology import Mesh
from repro.obs.profiler import PhaseProfiler
from repro.potential.bounds import theorem20_bound
from repro.snapshot.state import packet_from_dict
from repro.workloads import random_many_to_many

RESTRICTED = "restricted-priority"


@dataclass
class Unit:
    """One timed unit, reduced: its work and its simulated outcome."""

    packet_steps: int
    cases: int
    #: Simulated data only: ``makespan``, ``latency_mean`` and
    #: ``t20_ratio`` (steps, steps, ratio) plus a telemetry digest.
    sim: Dict[str, Any]


def reset_caches() -> None:
    """Drop the process-wide arc-table and worker mesh caches, so the
    next set-up pays what a fresh process pays."""
    mesh_tables._TABLE_CACHE.clear()
    campaign_worker._MESH_CACHE.clear()


def sha256_json(data: Any) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def batch_sim(result: Any) -> Dict[str, Any]:
    """Simulated outcome of a finished batch run.

    In a hot-potato batch every packet is in flight from step 0 until
    its delivery, so ``packet_steps / k`` is the mean delivery time.
    """
    telemetry = result.telemetry.to_dict()
    return {
        "makespan": result.total_steps,
        "latency_mean": telemetry["packet_steps"] / result.k,
        "t20_ratio": result.total_steps / theorem20_bound(result.side, result.k),
        "telemetry": telemetry,
    }


class Workload:
    """Shared plumbing; subclasses implement the steps listed above."""

    name = ""
    #: Distinct instances the timed region cycles through.
    instances = 1
    #: Span name of the timed unit.
    run_span = ""

    def __init__(self, params: Dict[str, Any], seed: int, out_dir: str) -> None:
        self.params = params
        self.seed = seed
        #: The only directory a workload may write files to.
        self.out_dir = out_dir
        self.tracer = Tracer(enabled=False)
        #: The first simulated outcome of each instance; the harness
        #: fills it and checks every later unit against it.
        self.first_sims: Dict[int, Dict[str, Any]] = {}

    def instance_seed(self, index: int) -> int:
        return self.seed * 10000 + index

    def count_telemetry(self, telemetry: Any) -> None:
        for field in ("steps", "packet_steps", "advances", "deflections"):
            self.tracer.count(f"core.{field}", getattr(telemetry, field))

    def layer_passes(self, tracer: Tracer, tally: Tally) -> None:
        """Extra traced passes for per-layer metrics (none by default)."""

    def close(self) -> None:
        """Release processes and files the workload holds."""


class RouteWorkload(Workload):
    """Seeded random many-to-many batch problems on one backend."""

    def __init__(self, params: Dict[str, Any], seed: int, out_dir: str) -> None:
        super().__init__(params, seed, out_dir)
        self.backend = params["backend"]
        self.instances = params["problems"]
        self.run_span = "soa.run" if self.backend == "soa" else "core.run"
        self._ready: Optional[HotPotatoEngine] = None

    def engine(
        self, index: int, profiler: Optional[PhaseProfiler] = None, **extra: Any
    ) -> HotPotatoEngine:
        policy = make_policy(self.params["policy"])
        with self.tracer.span("core.engine_build"):
            return HotPotatoEngine(
                self.problems[index],
                policy,
                seed=self.instance_seed(index),
                validators=validators_for(policy, strict=False),
                backend=self.backend,
                profiler=profiler,
                **extra,
            )

    def setup(self) -> None:
        with self.tracer.span("mesh.build"):
            self.mesh = Mesh(2, self.params["side"])
        if self.backend == "soa":
            with self.tracer.span("mesh.arc_tables"):
                mesh_tables.arc_tables_for(self.mesh)
        self.problems = []
        for index in range(self.instances):
            with self.tracer.span("workloads.generate"):
                problem = random_many_to_many(
                    self.mesh, k=self.params["k"], seed=self.instance_seed(index)
                )
            self.tracer.count("workloads.packets", problem.k)
            self.problems.append(problem)
        self._ready = self.engine(0)

    def prepare(self, index: int) -> HotPotatoEngine:
        """The engine set-up built for problem 0, else a new one."""
        if index == 0 and self._ready is not None:
            engine, self._ready = self._ready, None
            return engine
        return self.engine(index)

    def execute(self, index: int, engine: HotPotatoEngine) -> Any:
        with self.tracer.span(self.run_span):
            return engine.run()

    def digest(self, index: int, result: Any, tally: Tally) -> Unit:
        tally.record(
            f"{self.name} problem {index}",
            check_batch(result, self.params["policy"] == RESTRICTED),
        )
        self.count_telemetry(result.telemetry)
        return Unit(result.telemetry.packet_steps, 1, batch_sim(result))

    def resume_artifact(self) -> Tuple[str, Any]:
        """The last checkpoint of problem 0, JSON-encoded, and the
        checkpointed run's own result."""
        taken: List[str] = []
        engine = self.engine(
            0,
            checkpoint_every=self.params["checkpoint_every"],
            on_checkpoint=lambda snapshot: taken.append(json.dumps(snapshot)),
        )
        result = engine.run()
        if not taken:
            raise RuntimeError(f"{self.name}: problem 0 ended before a checkpoint")
        return taken[-1], result

    def resume(self, artifact: Tuple[str, Any]) -> Any:
        engine = self.engine(0)
        engine.resume_from(json.loads(artifact[0]))
        return engine.run()

    def check_resume(self, resumed: Any, artifact: Tuple[str, Any], tally: Tally) -> None:
        tally.record(
            f"{self.name} resume",
            check_equal("resumed run", resumed, artifact[1])
            + check_equal("resumed run", batch_sim(resumed), self.first_sims[0]),
        )

    def layer_passes(self, tracer: Tracer, tally: Tally) -> None:
        """Phase times from the profiler hook, over every problem.

        On the object backend the hook times ``run_profiled``, a copy
        of the lean loop, so those phase times are an estimate.  The
        soa kernel profiles inline in the loop that runs.
        """
        prefix = "soa.phase" if self.backend == "soa" else "core.phase"
        profiler = PhaseProfiler()
        for index in range(self.instances):
            gc.collect()
            result = self.engine(index, profiler=profiler).run()
            tally.record(
                f"{self.name} profiled problem {index}",
                check_equal("profiled run", batch_sim(result), self.first_sims[index]),
            )
        for phase, ns in profiler.totals().items():
            tracer.count(f"{prefix}.{phase}_s", ns / 1e9)
        if self.backend == "soa":
            # Python-level allocation tracing slows the soa loop about
            # fifteenfold, so only the first steps run traced: that is
            # where the in-flight population, and the columns, peak.
            gc.collect()
            engine = self.engine(0, max_steps=self.params["tracemalloc_steps"])
            tracemalloc.start()
            try:
                engine.run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tracer.count("soa.tracemalloc_peak_mb", peak / 2**20)


class CampaignWorkload(Workload):
    """A seeded sweep of small cases through ``Campaign`` with a durable
    store and a worker pool; one timed unit is the whole campaign."""

    run_span = "campaign.run"

    def __init__(self, params: Dict[str, Any], seed: int, out_dir: str) -> None:
        super().__init__(params, seed, out_dir)
        self.pool: Optional[WorkerPool] = None
        self.store_dir = tempfile.mkdtemp(prefix="campaign-", dir=self.out_dir)
        self._stores = 0
        self._last: Optional[Tuple[str, List[ExperimentPoint]]] = None

    def spec(self, index: int) -> CaseSpec:
        return CaseSpec(
            topology="mesh",
            workload=self.params["workload"],
            policy=self.params["policy"],
            seed=self.instance_seed(index),
            side=self.params["side"],
            workload_params=(("k", self.params["k"]),),
            strict_validation=False,
            backend=self.params["backend"],
        )

    def setup(self) -> None:
        self.close_pool()
        with self.tracer.span("campaign.spec"):
            self.specs = [self.spec(index) for index in range(self.params["cases"])]
        with self.tracer.span("pool.start"):
            self.pool = WorkerPool(
                self.params["workers"],
                initializer=initialize_worker,
                initargs=((self.specs[0].shape,),),
            )
            self.pool.start()
            # One chunk per worker, so every worker process has started
            # and imported before the first timed campaign.
            self.pool.run_batch(self.specs[: self.params["workers"]], execute_chunk)

    def new_store(self) -> CampaignStore:
        """A fresh store file; only the newest two are kept on disk."""
        self._stores += 1
        stale = os.path.join(self.store_dir, f"campaign-{self._stores - 2}.jsonl")
        if os.path.exists(stale):
            os.remove(stale)
        return CampaignStore(
            os.path.join(self.store_dir, f"campaign-{self._stores}.jsonl")
        )

    def prepare(self, index: int) -> CampaignStore:
        return self.new_store()

    def execute(self, index: int, store: CampaignStore) -> Tuple[str, Any]:
        with self.tracer.span(self.run_span):
            return store.path, Campaign(self.specs, store=store, pool=self.pool).run()

    def digest(self, index: int, raw: Tuple[str, Any], tally: Tally) -> Unit:
        path, result = raw
        for case, problems in check_campaign(result, self.params["policy"] == RESTRICTED):
            tally.record(f"{self.name} {case}", problems)
        self._last = (path, result.points)
        sims = [batch_sim(point.result) for point in result.points]
        telemetry = result.telemetry()
        self.count_telemetry(telemetry)
        self.tracer.count("pool.chunks", result.chunked)
        self.tracer.count("pool.degraded", int(result.degraded))
        self.tracer.count("pool.failed_cases", len(result.failures))
        return Unit(
            telemetry.packet_steps,
            len(result.points),
            {
                "makespan": statistics.fmean(sim["makespan"] for sim in sims),
                "latency_mean": statistics.fmean(sim["latency_mean"] for sim in sims),
                "t20_ratio": max(sim["t20_ratio"] for sim in sims),
                "telemetry": telemetry.to_dict(),
                "cases_sha256": sha256_json(
                    [[sim["makespan"], sim["telemetry"]] for sim in sims]
                ),
            },
        )

    def resume_artifact(self) -> Tuple[str, List[ExperimentPoint]]:
        """A copy of the newest finished store (later units delete old
        stores) and the points its run returned."""
        if self._last is None:
            raise RuntimeError(f"{self.name}: no finished campaign to resume")
        path, points = self._last
        copy = os.path.join(self.store_dir, "resume.jsonl")
        shutil.copyfile(path, copy)
        return copy, points

    def resume(self, artifact: Tuple[str, List[ExperimentPoint]]) -> Any:
        with Campaign.from_store(artifact[0]) as campaign:
            return campaign.run()

    def check_resume(
        self, resumed: Any, artifact: Tuple[str, List[ExperimentPoint]], tally: Tally
    ) -> None:
        problems = check_equal("resumed points", resumed.points, artifact[1])
        if resumed.resumed != len(artifact[1]):
            problems.append(
                f"resume restored {resumed.resumed} of {len(artifact[1])} points"
            )
        tally.record(f"{self.name} resume", problems)

    def layer_passes(self, tracer: Tracer, tally: Tally) -> None:
        """The store's read path, then a serial replica of every case
        through the public functions the worker and orchestrator call,
        traced and untraced; the replica's points must equal the
        pooled run's."""
        path, points = self.resume_artifact()
        with open(path, "rb") as handle:
            tracer.count("store.events", sum(1 for _ in handle))
        tracer.count("store.bytes", os.path.getsize(path))
        with tracer.span("store.replay"):
            CampaignStore(path).replay()
        results = [point.result for point in points]
        gc.collect()
        traced_s, replica = self.replica(tracer)
        tally.record(
            f"{self.name} serial replica",
            check_equal("serial replica results", replica, results),
        )
        gc.collect()
        untraced_s, _ = self.replica(Tracer(enabled=False))
        tracer.count("trace.overhead_s", traced_s - untraced_s)
        tracer.count(
            "campaign.ipc_bytes_per_case",
            tracer.counts.pop("campaign.ipc_bytes", 0.0) / len(self.specs),
        )
        cases = tracer.durations_ms("campaign.case")
        centiles = statistics.quantiles(cases, n=100)
        tracer.count("campaign.case_ms_p50", statistics.median(cases))
        tracer.count("campaign.case_ms_p99", centiles[98])

    def replica(self, tracer: Tracer) -> Tuple[float, List[Any]]:
        """One serial pass over every case; returns (seconds, results)."""
        store = self.new_store()
        results = []
        start = time.perf_counter()
        entries = []
        for index in range(len(self.specs)):
            with tracer.span("campaign.spec", trace=str(index)):
                spec = self.spec(index)
                entries.append((spec_key(spec), spec))
        with tracer.span("store.queue"):
            store.queue(entries)
            store.start([key for key, _ in entries])
        for index, (key, spec) in enumerate(entries):
            with tracer.span("campaign.case", trace=str(index)):
                with tracer.span("campaign.resolve"):
                    mesh = mesh_for(spec)
                    policy = resolve_policy(spec)
                with tracer.span("workloads.generate"):
                    problem = resolve_workload(mesh, spec)
                tracer.count("workloads.packets", problem.k)
                with tracer.span("core.engine_build"):
                    engine = HotPotatoEngine(
                        problem,
                        policy,
                        seed=spec.seed,
                        validators=validators_for(policy, strict=spec.strict_validation),
                        max_steps=spec.max_steps,
                        backend=spec.backend,
                    )
                with tracer.span("core.run"):
                    result = engine.run()
                with tracer.span("campaign.summary"):
                    point = ExperimentPoint(
                        params={"seed": spec.seed}, result=summary_result(result)
                    )
                with tracer.span("campaign.ipc"):
                    blob = pickle.dumps(point)
                    point = pickle.loads(blob)
                tracer.count("campaign.ipc_bytes", len(blob))
                with tracer.span("store.finish"):
                    store.finish(key, point)
                results.append(point.result)
        return time.perf_counter() - start, results

    def close_pool(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def close(self) -> None:
        self.close_pool()
        shutil.rmtree(self.store_dir, ignore_errors=True)


class DynamicWorkload(Workload):
    """Continuous Bernoulli traffic under a seeded fault schedule, with
    periodic checkpoints JSON-encoded by the sink; one timed unit is one
    run to the horizon."""

    run_span = "dynamic.run"

    def __init__(self, params: Dict[str, Any], seed: int, out_dir: str) -> None:
        super().__init__(params, seed, out_dir)
        self.instances = params["runs"]
        self._ready: Optional[Tuple[DynamicEngine, List[str]]] = None
        self._first: Optional[Tuple[str, Dict[str, int], Any]] = None

    def engine(
        self, index: int, sink: Optional[Callable[[Dict[str, Any]], None]] = None
    ) -> DynamicEngine:
        with self.tracer.span("core.engine_build"):
            return DynamicEngine(
                self.mesh,
                make_policy(self.params["policy"]),
                BernoulliTraffic(self.params["rate"]),
                seed=self.instance_seed(index),
                warmup=self.params["warmup"],
                faults=self.schedules[index],
                backend=self.params["backend"],
                checkpoint_every=self.params["checkpoint_every"] if sink else None,
                on_checkpoint=sink,
            )

    def setup(self) -> None:
        with self.tracer.span("mesh.build"):
            self.mesh = Mesh(2, self.params["side"])
        self.schedules = []
        for index in range(self.instances):
            with self.tracer.span("faults.schedule"):
                schedule = random_schedule(
                    self.mesh,
                    seed=self.instance_seed(index),
                    link_faults=self.params["link_faults"],
                    packet_drops=self.params["packet_drops"],
                    horizon=self.params["steps"],
                    max_window=self.params["fault_max_window"],
                )
                schedule.check(self.mesh)
            self.schedules.append(schedule)
        self._ready = self.checkpointing_engine(0)

    def checkpointing_engine(self, index: int) -> Tuple[DynamicEngine, List[str]]:
        """An engine whose checkpoint sink JSON-encodes each snapshot
        and keeps the encodings."""
        encoded: List[str] = []
        tracer = self.tracer

        def sink(snapshot: Dict[str, Any]) -> None:
            with tracer.span("snapshot.encode"):
                blob = json.dumps(snapshot, separators=(",", ":"))
            tracer.count("snapshot.count", 1)
            tracer.count("snapshot.bytes", len(blob))
            encoded.append(blob)

        return self.engine(index, sink), encoded

    def prepare(self, index: int) -> Tuple[DynamicEngine, List[str]]:
        """The engine set-up built for run 0, else a new one."""
        if index == 0 and self._ready is not None:
            prepared, self._ready = self._ready, None
            return prepared
        return self.checkpointing_engine(index)

    def execute(
        self, index: int, prepared: Tuple[DynamicEngine, List[str]]
    ) -> Tuple[DynamicEngine, Any, List[str]]:
        engine, encoded = prepared
        with self.tracer.span(self.run_span):
            stats = engine.run(self.params["steps"])
        return engine, stats, encoded

    def digest(
        self, index: int, raw: Tuple[DynamicEngine, Any, List[str]], tally: Tally
    ) -> Unit:
        engine, stats, encoded = raw
        telemetry = engine.telemetry
        tally.record(
            f"{self.name} run {index}",
            check_dynamic(telemetry, stats, self.params["steps"]),
        )
        drains = [
            self.drain(index, [packet_from_dict(p) for p in json.loads(blob)["packets"]], tally)
            for blob in encoded
        ]
        drains.append(self.drain(index, engine.in_flight, tally))
        if index == 0 and self._first is None:
            self._first = (encoded[-1], telemetry.to_dict(), stats)
        self.count_telemetry(telemetry)
        for field in ("generated", "injected", "delivered"):
            self.tracer.count(f"dynamic.{field}", getattr(telemetry, field))
        self.tracer.count("faults.dropped", telemetry.dropped)
        if self.tracer.enabled:
            self.tracer.counts["dynamic.max_backlog"] = max(
                self.tracer.counts["dynamic.max_backlog"], stats.max_backlog
            )
        return Unit(
            telemetry.packet_steps,
            1,
            {
                "makespan": statistics.fmean(steps for steps, _ in drains),
                "latency_mean": stats.mean_latency,
                "latency_p99": stats.latency_percentile(99),
                "latency_max": max(record.latency for record in stats.deliveries),
                "t20_ratio": max(ratio for _, ratio in drains),
                "telemetry": telemetry.to_dict(),
                "final_in_flight": stats.final_in_flight,
            },
        )

    def drain(self, index: int, packets: List[Any], tally: Tally) -> Tuple[int, float]:
        """Route ``packets`` (a checkpointed or final in-flight set) as a
        batch problem from where they are, fault-free, under the same
        policy; returns its makespan and that over the Theorem 20
        bound.  The drain is a checked operation."""
        pairs = [(packet.location, packet.destination) for packet in packets]
        if not pairs:
            return 0, 0.0
        problem = RoutingProblem.from_pairs(self.mesh, pairs, name="drain")
        policy = make_policy(self.params["policy"])
        result = HotPotatoEngine(
            problem,
            policy,
            seed=self.instance_seed(index),
            validators=validators_for(policy, strict=False),
        ).run()
        tally.record(
            f"{self.name} drain {index}",
            check_batch(result, self.params["policy"] == RESTRICTED),
        )
        return result.total_steps, result.total_steps / theorem20_bound(
            result.side, result.k
        )

    def resume_artifact(self) -> Tuple[str, Dict[str, int], Any]:
        """Run 0's newest JSON checkpoint and its uninterrupted outcome."""
        if self._first is None:
            raise RuntimeError(f"{self.name}: run 0 has not finished")
        return self._first

    def resume(self, artifact: Tuple[str, Dict[str, int], Any]) -> Tuple[DynamicEngine, Any]:
        payload = json.loads(artifact[0])
        engine = self.engine(0)
        engine.resume_from(payload)
        return engine, engine.run(self.params["steps"] - payload["step"])

    def check_resume(
        self,
        resumed: Tuple[DynamicEngine, Any],
        artifact: Tuple[str, Dict[str, int], Any],
        tally: Tally,
    ) -> None:
        engine, stats = resumed
        tally.record(
            f"{self.name} resume",
            check_equal("resumed telemetry", engine.telemetry.to_dict(), artifact[1])
            + check_equal("resumed statistics", stats, artifact[2]),
        )


WORKLOADS = {
    "route_object": RouteWorkload,
    "route_soa": RouteWorkload,
    "campaign_small": CampaignWorkload,
    "dynamic_faulted": DynamicWorkload,
}


def make_workload(name: str, params: Dict[str, Any], seed: int, out_dir: str) -> Workload:
    workload = WORKLOADS[name](params, seed, out_dir)
    workload.name = name
    return workload
