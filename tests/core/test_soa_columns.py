"""SoA column round-trips, fallback selection, and rejected configs.

The differential suites prove whole runs bit-identical; these unit
tests pin the seams of the structure-of-arrays backend in isolation —
:class:`~repro.core.soa.columns.PacketColumns` pack/writeback against
mid-run object state, the numpy/pure-Python path auto-selection, the
vectorized path's completeness check, and the ValueErrors for every
configuration ``backend="soa"`` refuses.
"""

import pytest

from repro.algorithms import (
    DimensionOrderPolicy,
    RestrictedPriorityPolicy,
)
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.soa import SoaKernel, _compat, adapter_for
from repro.core.soa.columns import PacketColumns
from repro.core.validation import validators_for
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.exceptions import ArcAssignmentError
from repro.faults import FaultSchedule, PacketDrop, RunWatchdog
from repro.mesh.tables import arc_tables_for
from repro.mesh.topology import Mesh
from repro.workloads import random_permutation


def _problem(seed=3):
    return random_permutation(Mesh(2, 5), seed=seed)


def _engine(backend="object", *, policy=None, **kwargs):
    policy = policy if policy is not None else RestrictedPriorityPolicy()
    return HotPotatoEngine(
        _problem(),
        policy,
        seed=11,
        validators=validators_for(policy, strict=False),
        backend=backend,
        **kwargs,
    )


#: Every Packet attribute PacketColumns carries (id is the row key).
_CARRIED = (
    "location",
    "entry_direction",
    "restricted_last_step",
    "advanced_last_step",
    "hops",
    "advances",
    "deflections",
)


def _snapshot(packet):
    return {name: getattr(packet, name) for name in _CARRIED}


class TestPackUnpackRoundTrip:
    def _mid_run_packets(self):
        # A truncated run leaves packets with non-trivial state:
        # interior locations, entry directions, mixed flags, counters.
        engine = _engine(max_steps=4)
        engine.run()
        packets = list(engine.in_flight)
        assert packets, "workload must leave packets in flight"
        assert any(p.entry_direction is not None for p in packets)
        return packets

    def test_pack_does_not_mutate_packets(self):
        packets = self._mid_run_packets()
        before = [_snapshot(p) for p in packets]
        PacketColumns.pack(packets, arc_tables_for(Mesh(2, 5)))
        assert [_snapshot(p) for p in packets] == before

    def test_unpack_restores_every_carried_attribute(self):
        packets = self._mid_run_packets()
        expected = [_snapshot(p) for p in packets]
        columns = PacketColumns.pack(packets, arc_tables_for(Mesh(2, 5)))
        # Scramble the live objects; unpack must restore them from the
        # columns alone.
        for packet in packets:
            packet.location = (1, 1)
            packet.entry_direction = None
            packet.restricted_last_step = not packet.restricted_last_step
            packet.advanced_last_step = not packet.advanced_last_step
            packet.hops += 100
            packet.advances += 100
            packet.deflections += 100
        restored = columns.unpack()
        assert restored == packets  # same objects, row order = id order
        assert [_snapshot(p) for p in restored] == expected

    def test_rows_follow_in_flight_order(self):
        packets = self._mid_run_packets()
        columns = PacketColumns.pack(packets, arc_tables_for(Mesh(2, 5)))
        assert columns.ids == [p.id for p in packets]
        assert len(columns) == len(packets)
        tables = columns.tables
        assert [tables.index_node[i] for i in columns.pos] == [
            p.location for p in packets
        ]
        assert [tables.index_node[i] for i in columns.dest] == [
            p.destination for p in packets
        ]

    def test_compact_drops_unkept_rows(self):
        packets = self._mid_run_packets()
        columns = PacketColumns.pack(packets, arc_tables_for(Mesh(2, 5)))
        keep = [row % 2 == 0 for row in range(len(columns))]
        kept_ids = [pid for pid, flag in zip(columns.ids, keep) if flag]
        columns.compact(keep)
        assert columns.ids == kept_ids
        assert len(columns.pos) == len(kept_ids)
        assert all(
            len(axis_column) == len(kept_ids)
            for axis_column in columns.dest_coords
        )


class TestPathSelection:
    """``SoaKernel.vectorized`` — decided at construction time."""

    def _kernel_for(self, policy):
        engine = _engine(policy=policy)
        adapter = adapter_for(policy, buffered=False, has_injection=False)
        return engine._kernel, adapter

    def test_rng_free_policy_vectorizes_with_numpy(self):
        pytest.importorskip("numpy")
        kernel, adapter = self._kernel_for(RestrictedPriorityPolicy())
        assert SoaKernel(kernel, adapter).vectorized is True

    def test_rng_consuming_policy_forces_columnar(self):
        policy = RestrictedPriorityPolicy(tie_break="random")
        kernel, adapter = self._kernel_for(policy)
        assert SoaKernel(kernel, adapter).vectorized is False

    def test_force_python_skips_numpy(self):
        kernel, adapter = self._kernel_for(RestrictedPriorityPolicy())
        assert (
            SoaKernel(kernel, adapter, force_python=True).vectorized
            is False
        )

    def test_missing_numpy_auto_selects_pure_python(self):
        kernel, adapter = self._kernel_for(RestrictedPriorityPolicy())
        saved = _compat.np
        _compat.np = None
        try:
            assert SoaKernel(kernel, adapter).vectorized is False
        finally:
            _compat.np = saved

    def test_missing_numpy_engine_still_runs(self):
        expected = _engine().run()
        soa = _engine(backend="soa")
        saved = _compat.np
        _compat.np = None
        try:
            assert soa.run() == expected
        finally:
            _compat.np = saved


class TestCompletenessCheck:
    """A node holding more packets than it has arcs cannot place them
    all.  The vectorized path resolves every contended node at once
    and must still name the first such node in node order."""

    def test_overloaded_nodes_are_named_in_node_order(self):
        pytest.importorskip("numpy")
        engine = _engine()
        engine._start()
        kernel = engine._kernel
        # Three packets on each of two corners (out-degree 2), put
        # there in reverse node order.
        corners = [(5, 5)] * 3 + [(1, 1)] * 3
        movable = [
            packet
            for packet in kernel.in_flight
            if packet.destination not in corners
        ]
        for packet, corner in zip(movable, corners):
            packet.location = corner
        adapter = adapter_for(
            RestrictedPriorityPolicy(), buffered=False, has_injection=False
        )
        soa = SoaKernel(kernel, adapter)
        assert soa.vectorized
        with pytest.raises(
            ArcAssignmentError,
            match=r"step 0: inconsistent assignment at \(1, 1\)",
        ):
            soa.run(1)


class TestRejectedConfigurations:
    def test_unknown_backend_string(self):
        with pytest.raises(ValueError, match="backend must be"):
            _engine(backend="simd")

    def test_record_paths_is_rejected(self):
        with pytest.raises(ValueError, match="record_paths"):
            _engine(backend="soa", record_paths=True)

    def test_watchdog_is_rejected(self):
        with pytest.raises(ValueError, match="watchdog"):
            _engine(backend="soa", watchdog=RunWatchdog())

    def test_nonempty_fault_schedule_is_rejected(self):
        schedule = FaultSchedule(
            events=(PacketDrop(node=(1, 1), step=2),)
        )
        with pytest.raises(ValueError, match="fault"):
            _engine(backend="soa", faults=schedule)

    def test_empty_fault_schedule_is_accepted(self):
        engine = _engine(backend="soa", faults=FaultSchedule.empty())
        assert engine.run().completed

    def test_policy_subclass_is_rejected(self):
        # Adapters match by exact class: a subclass may override the
        # priority logic, so it must fall back to backend="object".
        class Tweaked(RestrictedPriorityPolicy):
            pass

        with pytest.raises(ValueError, match="does not support policy"):
            _engine(backend="soa", policy=Tweaked())

    def test_buffered_policy_on_hot_potato_engine_is_rejected(self):
        with pytest.raises(ValueError, match="buffered"):
            adapter_for(
                DimensionOrderPolicy(), buffered=False, has_injection=False
            )

    def test_hot_potato_policy_on_buffered_engine_is_rejected(self):
        with pytest.raises(ValueError, match="buffered"):
            BufferedEngine(
                _problem(),
                RestrictedPriorityPolicy(),
                seed=0,
                backend="soa",
            )

    def test_strict_validators_fail_at_run_time(self):
        policy = RestrictedPriorityPolicy()
        engine = HotPotatoEngine(
            _problem(), policy, seed=11, backend="soa"
        )  # default validators are strict -> not lean-eligible
        with pytest.raises(ValueError, match="lean loop only"):
            engine.run()

    def test_record_steps_fails_at_run_time(self):
        engine = _engine(backend="soa", record_steps=True)
        with pytest.raises(ValueError, match="lean loop only"):
            engine.run()

    def test_dynamic_step_observers_fail_at_run_time(self):
        class StepConsumer:
            needs_steps = True

            def on_run_start(self, engine):
                pass

        engine = DynamicEngine(
            Mesh(2, 4),
            RestrictedPriorityPolicy(),
            BernoulliTraffic(rate=0.05),
            seed=5,
            backend="soa",
            observers=(StepConsumer(),),
        )
        with pytest.raises(ValueError, match="observers"):
            engine.run(10)
