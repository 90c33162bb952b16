"""Object/array differential: ``backend="soa"`` must be bit-identical.

The structure-of-arrays kernel (:mod:`repro.core.soa`) re-implements
:meth:`~repro.core.kernel.StepKernel.run_lean` on flat columns, with a
vectorized numpy path for RNG-free policies and a columnar pure-Python
path for the rest.  Its correctness claim is *bit identity*: for every
supported engine and policy, a soa run must produce exactly the object
kernel's results — ``RunResult``, ``RunTelemetry``, per-packet
outcomes, dynamic step samples, packet-id sequences, and the RNG
stream (pinned indirectly through RNG-consuming policies).

These hypothesis suites are the proof harness; the golden fixtures
(``tests/integration/test_golden_engines.py``) pin the same property
against the pre-kernel legacy captures.  The high-dimension suite
covers what 2-D instances cannot: masks of up to 16 directions and
nodes holding up to 8 packets, where the vectorized path's
contended-node signatures are widest.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    DimensionOrderPolicy,
    MaximalGreedyPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
    RestrictedPriorityPolicy,
)
from repro.algorithms.random_rank import RandomRankPolicy
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.soa import _compat
from repro.core.validation import validators_for
from repro.dynamic import BernoulliTraffic, BufferedDynamicEngine, DynamicEngine
from repro.faults import FaultSchedule
from repro.mesh.hypercube import Hypercube
from repro.mesh.topology import Mesh
from repro.workloads import random_many_to_many
from repro.workloads.random_uniform import max_packets

from .test_engine_differential import (
    _SETTINGS,
    DYNAMIC_POLICIES,
    _batch_problems,
    _dynamic_configs,
    _stats_tuple,
)

#: Every hot-potato policy family the adapter supports, including the
#: RNG-consuming ones (columnar path) and the RNG-free ones
#: (vectorized path).
HOT_POTATO_POLICIES = (
    lambda: RestrictedPriorityPolicy(),
    lambda: RestrictedPriorityPolicy(prefer_type_a=False),
    lambda: RestrictedPriorityPolicy(tie_break="random"),
    lambda: RestrictedPriorityPolicy(deflection="reverse"),
    lambda: RestrictedPriorityPolicy(deflection="random"),
    lambda: PlainGreedyPolicy(),
    lambda: RandomizedGreedyPolicy(),
    lambda: MaximalGreedyPolicy(),
    lambda: MaximalGreedyPolicy(deflection="random"),
    lambda: RandomRankPolicy(),
)

#: The RNG-free policies, which the soa backend runs on its vectorized
#: path.
VECTORIZED_POLICIES = (
    lambda: RestrictedPriorityPolicy(),
    lambda: RestrictedPriorityPolicy(prefer_type_a=False),
    lambda: RestrictedPriorityPolicy(deflection="reverse"),
    lambda: PlainGreedyPolicy(),
    lambda: MaximalGreedyPolicy(),
    lambda: MaximalGreedyPolicy(deflection="reverse"),
)

#: Topologies beyond two dimensions; ``Hypercube(8)`` is last.
HIGH_DIMENSION_MESHES = (
    *(lambda side=side: Mesh(3, side) for side in (3, 4, 5)),
    lambda: Mesh(4, 3),
    *(lambda d=d: Hypercube(d) for d in range(3, 9)),
)


def _hot_potato(problem, policy, seed, backend, **kwargs):
    # Capacity-only validators: the soa backend runs the lean loop,
    # and the object run must use the same (lean) configuration.
    return HotPotatoEngine(
        problem,
        policy,
        seed=seed,
        validators=validators_for(policy, strict=False),
        backend=backend,
        **kwargs,
    )


class TestHotPotatoSoaDifferential:
    @_SETTINGS
    @given(
        instance=_batch_problems(),
        policy_index=st.integers(
            min_value=0, max_value=len(HOT_POTATO_POLICIES) - 1
        ),
    )
    def test_soa_equals_object(self, instance, policy_index):
        problem, seed = instance
        make = HOT_POTATO_POLICIES[policy_index]
        obj = _hot_potato(problem, make(), seed, "object")
        soa = _hot_potato(problem, make(), seed, "soa")
        assert obj.run() == soa.run()
        assert obj.telemetry == soa.telemetry

    @_SETTINGS
    @given(instance=_batch_problems())
    def test_incomplete_run_leaves_identical_packets(self, instance):
        # A tight step budget stops mid-flight, so this pins the soa
        # kernel's writeback of live packet state (location, entry
        # direction, flags, counters), not just delivered outcomes.
        problem, seed = instance
        obj = _hot_potato(
            problem, RestrictedPriorityPolicy(), seed, "object", max_steps=3
        )
        soa = _hot_potato(
            problem, RestrictedPriorityPolicy(), seed, "soa", max_steps=3
        )
        assert obj.run() == soa.run()
        assert len(obj.in_flight) == len(soa.in_flight)
        for left, right in zip(obj.in_flight, soa.in_flight):
            assert left.id == right.id
            assert left.location == right.location
            assert left.entry_direction == right.entry_direction
            assert left.restricted_last_step == right.restricted_last_step
            assert left.advanced_last_step == right.advanced_last_step
            assert left.hops == right.hops
            assert left.advances == right.advances
            assert left.deflections == right.deflections

    @_SETTINGS
    @given(instance=_batch_problems())
    def test_empty_fault_schedule_is_equivalent(self, instance):
        # backend="soa" accepts FaultSchedule.empty() and must behave
        # exactly like a fault-free object run (the empty schedule's
        # auto-watchdog can never fire on the lean path either).
        problem, seed = instance
        obj = _hot_potato(problem, RestrictedPriorityPolicy(), seed, "object")
        soa = HotPotatoEngine(
            problem,
            RestrictedPriorityPolicy(),
            seed=seed,
            validators=validators_for(
                RestrictedPriorityPolicy(), strict=False
            ),
            backend="soa",
            faults=FaultSchedule.empty(),
        )
        assert obj.run() == soa.run()
        assert obj.telemetry == soa.telemetry

    @_SETTINGS
    @given(
        instance=_batch_problems(),
        policy_index=st.integers(
            min_value=0, max_value=len(HOT_POTATO_POLICIES) - 1
        ),
    )
    def test_pure_python_fallback_equals_object(self, instance, policy_index):
        # With numpy unavailable the soa backend must transparently run
        # its columnar pure-Python loop — same bit-identical results.
        problem, seed = instance
        make = HOT_POTATO_POLICIES[policy_index]
        obj = _hot_potato(problem, make(), seed, "object")
        expected = obj.run()
        soa = _hot_potato(problem, make(), seed, "soa")
        saved = _compat.np
        _compat.np = None
        try:
            assert expected == soa.run()
        finally:
            _compat.np = saved
        assert obj.telemetry == soa.telemetry


class TestHighDimensionSoaDifferential:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        mesh_index=st.integers(
            min_value=0, max_value=len(HIGH_DIMENSION_MESHES) - 1
        ),
        policy_index=st.integers(
            min_value=0, max_value=len(VECTORIZED_POLICIES) - 1
        ),
        load_percent=st.integers(min_value=1, max_value=100),
        problem_seed=st.integers(min_value=0, max_value=2**16),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # Fully loaded Hypercube(8): eight packets at a node, 16-direction
    # masks, under both deflection rules that the vectorized path
    # resolves by signature.
    @example(
        mesh_index=len(HIGH_DIMENSION_MESHES) - 1,
        policy_index=0,
        load_percent=100,
        problem_seed=0,
        seed=0,
    )
    @example(
        mesh_index=len(HIGH_DIMENSION_MESHES) - 1,
        policy_index=2,
        load_percent=100,
        problem_seed=0,
        seed=0,
    )
    def test_soa_equals_object(
        self, mesh_index, policy_index, load_percent, problem_seed, seed
    ):
        mesh = HIGH_DIMENSION_MESHES[mesh_index]()
        k = max(1, max_packets(mesh) * load_percent // 100)
        problem = random_many_to_many(mesh, k=k, seed=problem_seed)
        make = VECTORIZED_POLICIES[policy_index]
        obj = _hot_potato(problem, make(), seed, "object")
        soa = _hot_potato(problem, make(), seed, "soa")
        assert soa._soa_adapter.vectorizable
        obj_result = obj.run()
        soa_result = soa.run()
        assert obj_result == soa_result
        assert obj_result.outcomes == soa_result.outcomes
        assert obj.telemetry == soa.telemetry


class TestBufferedSoaDifferential:
    @_SETTINGS
    @given(instance=_batch_problems())
    def test_soa_equals_object(self, instance):
        problem, seed = instance
        obj = BufferedEngine(problem, DimensionOrderPolicy(), seed=seed)
        soa = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed, backend="soa"
        )
        assert obj.run() == soa.run()
        assert obj.telemetry == soa.telemetry
        assert obj.max_buffer_seen == soa.max_buffer_seen


class TestDynamicSoaDifferential:
    @_SETTINGS
    @given(
        instance=_dynamic_configs(),
        policy_cls=st.sampled_from(DYNAMIC_POLICIES),
    )
    def test_soa_equals_object(self, instance, policy_cls):
        mesh, traffic, seed, warmup, steps = instance
        obj = DynamicEngine(
            mesh, policy_cls(), traffic(), seed=seed, warmup=warmup
        )
        soa = DynamicEngine(
            mesh,
            policy_cls(),
            traffic(),
            seed=seed,
            warmup=warmup,
            backend="soa",
        )
        assert _stats_tuple(obj.run(steps)) == _stats_tuple(soa.run(steps))
        assert obj.telemetry == soa.telemetry
        assert obj._next_id == soa._next_id
        assert [p.id for p in obj.in_flight] == [
            p.id for p in soa.in_flight
        ]

    def test_random_rank_long_run_soa_equals_object(self):
        # RandomRankPolicy draws a late-injected packet's rank inside
        # priority_key, on first sight.  The object backend must call
        # priority_key at every node visit, lone packets included, or
        # its RNG stream drifts from soa's.  The hypothesis sweep above
        # (side <= 5, <= 60 steps) is too small to expose that drift.
        mesh = Mesh(2, 8)
        obj = DynamicEngine(
            mesh, RandomRankPolicy(), BernoulliTraffic(0.15), seed=3
        )
        soa = DynamicEngine(
            mesh,
            RandomRankPolicy(),
            BernoulliTraffic(0.15),
            seed=3,
            backend="soa",
        )
        assert _stats_tuple(obj.run(300)) == _stats_tuple(soa.run(300))
        assert obj.telemetry == soa.telemetry
        assert obj._next_id == soa._next_id
        assert [p.id for p in obj.in_flight] == [
            p.id for p in soa.in_flight
        ]


class TestBufferedDynamicSoaDifferential:
    @_SETTINGS
    @given(instance=_dynamic_configs())
    def test_soa_equals_object(self, instance):
        mesh, traffic, seed, warmup, steps = instance
        obj = BufferedDynamicEngine(
            mesh, DimensionOrderPolicy(), traffic(), seed=seed, warmup=warmup
        )
        soa = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            traffic(),
            seed=seed,
            warmup=warmup,
            backend="soa",
        )
        assert _stats_tuple(obj.run(steps)) == _stats_tuple(soa.run(steps))
        assert obj.telemetry == soa.telemetry
        assert obj.max_queue_seen == soa.max_queue_seen
