"""Profiled-run differential tests.

There is one object step loop, :meth:`StepKernel.run_lean`; given a
profiler it reads a clock around each phase and must otherwise be
*observably identical* to the same run without one: same
:class:`RunResult` (telemetry included), same RNG consumption, same
delivery order.  These tests pin that contract for all four engines,
on pristine, faulted and watchdog-guarded runs, and check that the
profiler measured every phase while telemetry stayed bit-identical.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    DimensionOrderPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
    RandomRankPolicy,
    RestrictedPriorityPolicy,
)
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.validation import validators_for
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
)
from repro.faults import RunWatchdog, random_schedule
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.obs.profiler import PhaseProfiler
from repro.workloads import random_many_to_many, random_permutation
from tests.integration.test_chaos_differential import _chaos_instances

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = (
    RestrictedPriorityPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
)


def _stats_tuple(stats):
    return (
        stats.samples,
        stats.deliveries,
        stats.horizon,
        stats.final_in_flight,
        stats.final_backlog,
    )


@st.composite
def _batch_problems(draw):
    kind = draw(st.sampled_from(["mesh", "torus"]))
    side = draw(st.integers(min_value=3, max_value=6))
    mesh = (Torus if kind == "torus" else Mesh)(2, side)
    if draw(st.booleans()):
        problem = random_permutation(
            mesh, seed=draw(st.integers(min_value=0, max_value=2**16))
        )
    else:
        problem = random_many_to_many(
            mesh,
            k=draw(st.integers(min_value=1, max_value=mesh.num_nodes)),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
        )
    return problem, draw(st.integers(min_value=0, max_value=2**16))


class TestHotPotatoProfiled:
    @_SETTINGS
    @given(
        instance=_batch_problems(), policy_cls=st.sampled_from(POLICIES)
    )
    def test_profiled_equals_lean(self, instance, policy_cls):
        problem, seed = instance

        def engine(profiler=None):
            policy = policy_cls()
            return HotPotatoEngine(
                problem,
                policy,
                seed=seed,
                validators=validators_for(policy, strict=False),
                profiler=profiler,
            )

        profiler = PhaseProfiler()
        lean_result = engine().run()
        profiled_result = engine(profiler).run()
        assert profiled_result == lean_result
        assert profiler.steps == profiled_result.total_steps


class TestBufferedProfiled:
    @_SETTINGS
    @given(instance=_batch_problems())
    def test_profiled_equals_lean(self, instance):
        problem, seed = instance
        lean = BufferedEngine(problem, DimensionOrderPolicy(), seed=seed)
        profiler = PhaseProfiler()
        profiled = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed, profiler=profiler
        )
        assert profiled.run() == lean.run()
        assert profiled.max_buffer_seen == lean.max_buffer_seen
        assert profiler.steps > 0 or problem.k == 0


class TestDynamicProfiled:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.05, max_value=0.3),
        steps=st.integers(min_value=1, max_value=50),
        policy_cls=st.sampled_from(POLICIES),
    )
    def test_profiled_equals_lean(self, seed, rate, steps, policy_cls):
        mesh = Mesh(2, 4)
        lean = DynamicEngine(
            mesh, policy_cls(), BernoulliTraffic(rate), seed=seed
        )
        profiler = PhaseProfiler()
        profiled = DynamicEngine(
            mesh,
            policy_cls(),
            BernoulliTraffic(rate),
            seed=seed,
            profiler=profiler,
        )
        assert _stats_tuple(profiled.run(steps)) == _stats_tuple(
            lean.run(steps)
        )
        assert profiled.telemetry == lean.telemetry
        assert profiler.steps == steps


class TestBufferedDynamicProfiled:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.05, max_value=0.3),
        steps=st.integers(min_value=1, max_value=50),
    )
    def test_profiled_equals_lean(self, seed, rate, steps):
        mesh = Mesh(2, 4)
        lean = BufferedDynamicEngine(
            mesh, DimensionOrderPolicy(), BernoulliTraffic(rate), seed=seed
        )
        profiler = PhaseProfiler()
        profiled = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            BernoulliTraffic(rate),
            seed=seed,
            profiler=profiler,
        )
        assert _stats_tuple(profiled.run(steps)) == _stats_tuple(
            lean.run(steps)
        )
        assert profiled.telemetry == lean.telemetry
        assert profiled.max_queue_seen == lean.max_queue_seen


def _dropped_ids(engine):
    faults = engine._kernel.faults
    return list(faults.dropped_ids) if faults is not None else None


class TestFaultedProfiled:
    """Faulted and watchdog-guarded runs go through the same loop, so
    profiling them must change nothing: results, telemetry (``dropped``
    included), the abort verdict and the dropped-packet census."""

    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_hot_potato_under_faults(self, instance):
        problem, schedule, seed = instance

        def engine(profiler=None):
            policy = RandomRankPolicy()
            return HotPotatoEngine(
                problem,
                policy,
                seed=seed,
                validators=validators_for(policy, strict=False),
                faults=schedule,
                max_steps=600,
                profiler=profiler,
            )

        lean, profiler = engine(), PhaseProfiler()
        profiled = engine(profiler)
        lean_result, profiled_result = lean.run(), profiled.run()
        assert profiled_result == lean_result
        assert profiled_result.telemetry == lean_result.telemetry
        assert profiled_result.abort == lean_result.abort
        assert _dropped_ids(profiled) == _dropped_ids(lean)
        assert profiler.steps == profiled_result.telemetry.steps

    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_buffered_under_faults(self, instance):
        problem, schedule, seed = instance

        def engine(profiler=None):
            return BufferedEngine(
                problem,
                DimensionOrderPolicy(),
                seed=seed,
                faults=schedule,
                max_steps=600,
                profiler=profiler,
            )

        lean, profiler = engine(), PhaseProfiler()
        profiled = engine(profiler)
        lean_result, profiled_result = lean.run(), profiled.run()
        assert profiled_result == lean_result
        assert profiled_result.telemetry == lean_result.telemetry
        assert profiled_result.abort == lean_result.abort
        assert _dropped_ids(profiled) == _dropped_ids(lean)
        assert profiler.steps == profiled_result.telemetry.steps

    @_SETTINGS
    @given(
        instance=_batch_problems(),
        policy_cls=st.sampled_from(POLICIES),
        limit=st.integers(min_value=1, max_value=6),
    )
    def test_watchdog_without_faults(self, instance, policy_cls, limit):
        # A tight no-progress limit makes some runs abort mid-flight.
        problem, seed = instance

        def engine(profiler=None):
            policy = policy_cls()
            return HotPotatoEngine(
                problem,
                policy,
                seed=seed,
                validators=validators_for(policy, strict=False),
                watchdog=RunWatchdog(no_progress_limit=limit),
                profiler=profiler,
            )

        profiler = PhaseProfiler()
        lean_result = engine().run()
        profiled_result = engine(profiler).run()
        assert profiled_result == lean_result
        assert profiled_result.abort == lean_result.abort
        assert profiler.steps == profiled_result.telemetry.steps

    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        fault_seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.05, max_value=0.3),
        steps=st.integers(min_value=1, max_value=50),
        buffered=st.booleans(),
    )
    def test_dynamic_under_faults(
        self, seed, fault_seed, rate, steps, buffered
    ):
        mesh = Mesh(2, 4)
        schedule = random_schedule(
            mesh,
            seed=fault_seed,
            link_faults=2,
            node_faults=1,
            packet_drops=2,
            horizon=32,
            max_window=16,
        )

        def engine(profiler=None):
            if buffered:
                return BufferedDynamicEngine(
                    mesh,
                    DimensionOrderPolicy(),
                    BernoulliTraffic(rate),
                    seed=seed,
                    faults=schedule,
                    profiler=profiler,
                )
            return DynamicEngine(
                mesh,
                RandomRankPolicy(),
                BernoulliTraffic(rate),
                seed=seed,
                faults=schedule,
                profiler=profiler,
            )

        lean, profiler = engine(), PhaseProfiler()
        profiled = engine(profiler)
        lean_stats, profiled_stats = lean.run(steps), profiled.run(steps)
        assert _stats_tuple(profiled_stats) == _stats_tuple(lean_stats)
        assert profiled.telemetry == lean.telemetry
        assert profiled_stats.abort == lean_stats.abort
        assert _dropped_ids(profiled) == _dropped_ids(lean)
        assert profiler.steps == profiled.telemetry.steps


class TestEveryPhaseIsTimed:
    """A merge that silently folded one phase into another (deliver
    into move, say) would leave that phase at zero."""

    def test_object_batch_run(self):
        problem = random_many_to_many(Mesh(2, 8), k=64, seed=3)
        policy = RestrictedPriorityPolicy()
        profiler = PhaseProfiler()
        HotPotatoEngine(
            problem,
            policy,
            seed=3,
            validators=validators_for(policy, strict=False),
            profiler=profiler,
        ).run()
        totals = profiler.totals()
        assert all(ns > 0 for ns in totals.values()), totals

    def test_dynamic_run(self):
        profiler = PhaseProfiler()
        DynamicEngine(
            Mesh(2, 6),
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.2),
            seed=3,
            profiler=profiler,
        ).run(50)
        totals = profiler.totals()
        assert all(ns > 0 for ns in totals.values()), totals


class TestProfilerRefusals:
    def test_batch_profiling_requires_the_lean_loop(self, mesh4):
        import pytest

        from repro.core.events import RunObserver

        problem = random_many_to_many(mesh4, k=5, seed=1)
        policy = RestrictedPriorityPolicy()
        engine = HotPotatoEngine(
            problem,
            policy,
            seed=1,
            validators=validators_for(policy, strict=False),
            observers=[RunObserver()],
            profiler=PhaseProfiler(),
        )
        with pytest.raises(ValueError, match="profiling times the lean"):
            engine.run()

    def test_dynamic_profiling_requires_the_lean_loop(self, mesh4):
        import pytest

        from repro.core.events import RunObserver

        engine = DynamicEngine(
            mesh4,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.1),
            seed=1,
            observers=[RunObserver()],
            profiler=PhaseProfiler(),
        )
        with pytest.raises(ValueError, match="profiling times the lean"):
            engine.run(10)
