"""Chaos differential: under arbitrary seeded fault schedules the lean
guarded loop and the instrumented loop must stay bit-identical, and an
empty schedule must be indistinguishable from no fault plumbing at all.

Property-based so the fault phase is exercised across mesh sizes,
workloads, schedule shapes, and abort outcomes (drops, partitions,
no-progress) — not just the handcrafted cases in tests/faults/."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import DimensionOrderPolicy, RandomRankPolicy
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.events import RunObserver
from repro.core.validation import validators_for
from repro.faults import FaultSchedule, random_schedule
from repro.mesh.topology import Mesh
from repro.workloads import random_many_to_many, random_permutation

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _chaos_instances(draw):
    side = draw(st.integers(min_value=3, max_value=5))
    mesh = Mesh(2, side)
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
    schedule = random_schedule(
        mesh,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        link_faults=draw(st.integers(min_value=0, max_value=3)),
        node_faults=draw(st.integers(min_value=0, max_value=1)),
        packet_drops=draw(st.integers(min_value=0, max_value=2)),
        horizon=32,
        max_window=16,
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return problem, schedule, seed


class TestHotPotatoChaos:
    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_lean_equals_instrumented_under_faults(self, instance):
        problem, schedule, seed = instance
        # Capacity-only validators: the policy's default stack would
        # put this side on the instrumented step too.
        policy = RandomRankPolicy()
        lean = HotPotatoEngine(
            problem,
            policy,
            seed=seed,
            validators=validators_for(policy, strict=False),
            faults=schedule,
            max_steps=600,
            fast_path=True,
        ).run()
        instrumented = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=seed,
            faults=schedule,
            max_steps=600,
            observers=[RunObserver()],
        ).run()
        assert lean == instrumented

    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_faulted_runs_are_reproducible(self, instance):
        problem, schedule, seed = instance
        first = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=seed,
            faults=schedule,
            max_steps=600,
        ).run()
        second = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=seed,
            faults=schedule,
            max_steps=600,
        ).run()
        assert first == second

    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_empty_schedule_is_bit_identical_to_no_faults(self, instance):
        problem, _, seed = instance
        plain = HotPotatoEngine(
            problem, RandomRankPolicy(), seed=seed
        ).run()
        empty = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=seed,
            faults=FaultSchedule.empty(),
        ).run()
        assert plain == empty


class TestBufferedChaos:
    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_lean_equals_instrumented_under_faults(self, instance):
        problem, schedule, seed = instance
        lean = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=seed,
            faults=schedule,
            max_steps=600,
        ).run()
        instrumented = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=seed,
            faults=schedule,
            max_steps=600,
            observers=[RunObserver()],
        ).run()
        assert lean == instrumented

    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_empty_schedule_is_bit_identical_to_no_faults(self, instance):
        problem, _, seed = instance
        plain = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed
        ).run()
        empty = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=seed,
            faults=FaultSchedule.empty(),
        ).run()
        assert plain == empty
