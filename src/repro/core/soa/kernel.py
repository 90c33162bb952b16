"""The structure-of-arrays step kernel: `run_lean` on flat columns.

:class:`SoaKernel` drives a configured :class:`StepKernel` through the
same synchronous loop as :meth:`StepKernel.run_lean`, but with packet
state held in flat columns (:class:`PacketColumns`) instead of
``Packet`` objects, and per-step work expressed as array operations:

* *rank* becomes one stable argsort over composite ``node * codes +
  priority_code`` keys (the per-node priority orders fall out of the
  segmentation of the sorted order);
* *arc_assign* becomes a batched good-direction selection: good masks
  and distances for every packet arrive from ``d`` gathers into the
  mesh's per-axis packed tables
  (:meth:`~repro.mesh.topology.Mesh.arc_tables`), single-packet nodes
  are resolved wholesale, and contended nodes run the integer matching
  pipeline of :mod:`.conflict` — per node on the columnar path, once
  per distinct node signature on the vectorized path.

Two execution paths share the loop structure:

* the **vectorized** numpy path, used when numpy is importable and the
  policy is RNG-free during stepping (see
  :attr:`~.adapters.PolicyAdapter.vectorizable`);
* the **columnar** pure-Python path — the no-numpy fallback, and the
  mandatory path for RNG-consuming policies, where node visit order is
  part of the seeded contract.  It walks the same integer columns with
  scalar loops, visiting nodes in the object kernel's exact order
  (insertion or sorted) and running the full decision template at
  every node so the sanctioned RNG stream advances identically.

Both paths are bit-identical to the object kernel: same
:class:`StepSummary` stream, same :class:`RunTelemetry` counters, same
packet outcomes, same ``on_deliver`` callback order (ascending packet
id within a step), same final ``in_flight``/distance state.  The proof
harness lives in ``tests/integration/test_soa_differential.py`` and
the golden-fixture suite.

The kernel's clock and delivery counters stay authoritative on the
wrapped :class:`StepKernel` (``time``, ``delivered_total``), so engine
callbacks (``on_deliver`` reading ``engine.time``) and post-run logic
(timeout handling, result building) work unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.kernel import PhaseSink, StepKernel
from repro.core.packet import Packet
from repro.core.soa import _compat
from repro.core.soa.adapters import (
    CODE_RANK,
    CODE_RESTRICTED,
    PolicyAdapter,
)
from repro.core.soa.columns import PacketColumns
from repro.core.soa.conflict import (
    SignatureMemo,
    resolve_node,
    resolve_segments,
)
from repro.exceptions import ArcAssignmentError
from repro.mesh.tables import ArcTables
from repro.types import Node

__all__ = ["SoaKernel"]


def _table_views(tables: ArcTables, np: Any) -> Dict[str, Any]:
    """Numpy views of the flat tables, cached on the tables object."""
    views = tables.backend_views
    if views is None or views.get("kind") != "numpy":
        views = {
            "kind": "numpy",
            "coords": [
                np.asarray(column, dtype=np.int64)
                for column in tables.coords
            ],
            "packed": [
                np.asarray(table, dtype=np.int64)
                for table in tables.packed
            ],
            "nbr": np.asarray(tables.neighbor_flat, dtype=np.int64),
            "out_mask": np.asarray(tables.out_mask, dtype=np.int64),
        }
        tables.backend_views = views
    return views


class SoaKernel:
    """Array twin of :meth:`StepKernel.run_lean` for one configured run.

    Args:
        kernel: the configured object kernel whose state (``time``,
            ``in_flight``, ``delivered_total``, distance table) this
            run advances.  Faults, watchdogs and path recording are
            object-kernel-only features and are rejected.
        adapter: the policy's declarative description
            (:func:`~.adapters.adapter_for`).
        force_python: skip the numpy path even when available (the
            fallback differential tests use this).
    """

    def __init__(
        self,
        kernel: StepKernel,
        adapter: PolicyAdapter,
        *,
        force_python: bool = False,
    ) -> None:
        if kernel.faults is not None or kernel.watchdog is not None:
            raise ValueError(
                "SoaKernel does not support faults or watchdogs; "
                "use the object kernel"
            )
        if kernel.record_paths:
            raise ValueError("SoaKernel does not support record_paths")
        if kernel.buffered != adapter.buffered:
            raise ValueError(
                "adapter/kernel discipline mismatch "
                f"(kernel buffered={kernel.buffered})"
            )
        self.kernel = kernel
        self.adapter = adapter
        self.tables = kernel.mesh.arc_tables()
        np = _compat.np
        self.vectorized = (
            np is not None and not force_python and adapter.vectorizable
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self, until: int, profiler: Optional[PhaseSink] = None
    ) -> None:
        """Run steps until ``kernel.time == until`` (or drained).

        Mirrors :meth:`StepKernel.run_lean`, profiler argument
        included: batch kernels (no injection source) stop early once
        ``in_flight`` drains; injecting kernels run the full horizon.
        Each step closes through the object kernel's
        :meth:`~StepKernel._note_step`, so delivery totals, telemetry
        and emitted summaries share one piece of arithmetic.  On return
        the wrapped kernel's ``in_flight`` and distance table hold the
        surviving packets, bit-identical to the object loop.
        """
        if self.vectorized:
            self._run_vectorized(until, profiler)
        else:
            self._run_columnar(until, profiler)

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------

    def _admit_batch(
        self, loads: Dict[Node, int]
    ) -> Tuple[int, List[Packet], int]:
        """The inject phase against precomputed loads.

        Returns ``(generated, new_packets, backlog)``; the caller
        appends the new packets to its columns.
        """
        source = self.kernel.injection
        if source is None:
            return 0, [], 0
        admit_batch = getattr(source, "admit_batch", None)
        if admit_batch is None:
            raise ValueError(
                f"injection source {type(source).__name__} does not "
                "support the array kernel (no admit_batch)"
            )
        generated, new_packets = admit_batch(self.kernel.time, loads)
        return generated, new_packets, source.backlog_size()

    def _writeback(
        self, columns: PacketColumns
    ) -> None:
        """Restore the object kernel's end-of-run state from columns."""
        kernel = self.kernel
        distance = kernel.mesh.distance
        packets = columns.unpack()
        kernel.in_flight = packets
        kernel._dist = {
            packet.id: distance(packet.location, packet.destination)
            for packet in packets
        }

    # ------------------------------------------------------------------
    # Columnar pure-Python path
    # ------------------------------------------------------------------

    def _run_columnar(
        self, until: int, profiler: Optional[PhaseSink]
    ) -> None:
        """Scalar loops over integer columns.

        Node visit order, per-node decision templates and every RNG
        draw replicate the object kernel exactly — this path carries
        the policies whose stepping consumes the sanctioned stream.
        """
        kernel = self.kernel
        adapter = self.adapter
        tables = self.tables
        dimension = tables.dimension
        side1 = tables.side + 1
        shift = tables.shift
        mask_all = tables.good_mask_all
        packed = tables.packed
        tcoords = tables.coords
        nbr = tables.neighbor_flat
        out_mask_t = tables.out_mask
        index_node = tables.index_node
        two_d = tables.num_directions
        buffered = kernel.buffered
        sorted_order = kernel.sorted_order
        set_entry = kernel.set_entry_direction
        on_deliver = kernel.on_deliver
        stop_when_empty = kernel.injection is None
        first_fit = adapter.first_fit
        deflection = adapter.deflection
        shuffle_ties = adapter.tie_break == "random"
        code_kind = adapter.code_kind
        prefer_type_a = adapter.prefer_type_a
        clock = profiler.clock if profiler is not None else None

        columns = PacketColumns.pack(kernel.in_flight, tables)
        ids = columns.ids
        pos = columns.pos
        dest = columns.dest
        dcs = columns.dest_coords
        entry = columns.entry
        rl = columns.restricted_last
        al = columns.advanced_last
        hops = columns.hops
        adv = columns.advances
        defl = columns.deflections
        by_id = columns.by_id

        while kernel.time < until:
            if stop_when_empty and not pos:
                break
            t0 = clock() if clock is not None else 0
            loads: Dict[Node, int] = {}
            for node_idx in pos:
                node = index_node[node_idx]
                loads[node] = loads.get(node, 0) + 1
            generated, new_packets, backlog = self._admit_batch(loads)
            for packet in new_packets:
                columns.append(packet)
            injected = len(new_packets)
            t1 = clock() if clock is not None else 0

            step_index = kernel.time
            m = len(pos)
            routed = m
            # Good masks + distances: d gathers into the packed tables.
            acc = [0] * m
            for axis in range(dimension):
                coord = tcoords[axis]
                dc = dcs[axis]
                table = packed[axis]
                for row in range(m):
                    acc[row] += table[coord[pos[row]] * side1 + dc[row]]
            gm = [value & mask_all for value in acc]
            total_distance = 0
            for value in acc:
                total_distance += value >> shift
            # Grouping preserves the object kernel's node visit order:
            # dict insertion order is first-seen row order, and sorted
            # node indices coincide with sorted node tuples because
            # the numbering is lexicographic.
            groups: Dict[int, List[int]] = {}
            for row in range(m):
                groups.setdefault(pos[row], []).append(row)
            node_list = sorted(groups) if sorted_order else list(groups)
            t2 = clock() if clock is not None else 0

            pending: Dict[int, int] = {}
            advancing = 0
            max_load = 0
            bad_nodes = 0
            packets_in_bad = 0
            rng = adapter.rng
            for node_idx in node_list:
                rows = groups[node_idx]
                load = len(rows)
                if load > max_load:
                    max_load = load
                if load > dimension:
                    bad_nodes += 1
                    packets_in_bad += load
                if buffered:
                    chosen: Dict[int, int] = {}
                    coords_here = [
                        tcoords[axis][node_idx]
                        for axis in range(dimension)
                    ]
                    for row in rows:
                        direction = -1
                        for axis in range(dimension):
                            here = coords_here[axis]
                            there = dcs[axis][row]
                            if here < there:
                                direction = 2 * axis
                                break
                            if here > there:
                                direction = 2 * axis + 1
                                break
                        if direction < 0:
                            continue
                        if direction not in chosen:
                            chosen[direction] = row
                    for direction, row in chosen.items():
                        pending[row] = direction
                        if gm[row] >> direction & 1:
                            advancing += 1
                    continue
                # Hot-potato: replicate the greedy template, including
                # tie-break shuffles and priority sorts, at every node
                # (the object kernel runs it even for lone packets, so
                # the RNG stream advances there too).
                ordered = list(rows)
                if shuffle_ties:
                    if rng is None:
                        raise ValueError(
                            "policy RNG missing; was prepare() run?"
                        )
                    rng.shuffle(ordered)
                if code_kind == CODE_RESTRICTED:
                    a_code = 0 if prefer_type_a else 1
                    b_code = 1 - a_code

                    def restricted_code(row: int) -> int:
                        mask = gm[row]
                        if mask & (mask - 1):
                            return 2
                        if rl[row] and al[row]:
                            return a_code
                        return b_code

                    ordered.sort(key=restricted_code)
                elif code_kind == CODE_RANK:
                    rank_of = adapter.rank_of

                    def rank_key(row: int) -> Tuple[float, int]:
                        return (rank_of(ids[row]), ids[row])

                    ordered.sort(key=rank_key)
                assignment = resolve_node(
                    ordered,
                    rows,
                    gm,
                    entry,
                    out_mask_t[node_idx],
                    first_fit,
                    deflection,
                    rng,
                )
                if len(assignment) != load:
                    raise ArcAssignmentError(
                        f"step {step_index}: inconsistent assignment "
                        f"at {index_node[node_idx]} (soa kernel check)"
                    )
                for row, direction in assignment.items():
                    pending[row] = direction
                    if gm[row] >> direction & 1:
                        advancing += 1
            t3 = clock() if clock is not None else 0

            # Move, in row (= packet id = in_flight) order.
            kernel.time += 1
            moved = len(pending)
            if buffered:
                for row, direction in pending.items():
                    next_pos = nbr[pos[row] * two_d + direction]
                    if next_pos < 0:
                        raise ArcAssignmentError(
                            f"step {step_index}: inconsistent buffered "
                            f"assignment at {index_node[pos[row]]} "
                            f"(soa kernel check)"
                        )
                    pos[row] = next_pos
                    hops[row] += 1
                    if gm[row] >> direction & 1:
                        adv[row] += 1
                    else:
                        defl[row] += 1
            else:
                for row in range(m):
                    direction = pending[row]
                    mask = gm[row]
                    rl[row] = not mask & (mask - 1)
                    advanced = bool(mask >> direction & 1)
                    al[row] = advanced
                    pos[row] = nbr[pos[row] * two_d + direction]
                    if set_entry:
                        entry[row] = direction
                    hops[row] += 1
                    if advanced:
                        adv[row] += 1
                    else:
                        defl[row] += 1
            t4 = clock() if clock is not None else 0

            # Deliver, ascending row order (= in_flight order).
            now = kernel.time
            delivered_count = 0
            keep: Optional[List[bool]] = None
            for row in range(len(pos)):
                if pos[row] == dest[row]:
                    if keep is None:
                        keep = [True] * len(pos)
                    keep[row] = False
                    delivered_count += 1
                    packet = columns.writeback_row(row)
                    del by_id[packet.id]
                    packet.delivered_at = now
                    if on_deliver is not None:
                        on_deliver(packet)
            if keep is not None:
                columns.compact(keep)
                ids = columns.ids
                pos = columns.pos
                dest = columns.dest
                dcs = columns.dest_coords
                entry = columns.entry
                rl = columns.restricted_last
                al = columns.advanced_last
                hops = columns.hops
                adv = columns.advances
                defl = columns.deflections
            t5 = clock() if clock is not None else 0
            if profiler is not None:
                profiler.record_step(
                    t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4
                )

            kernel._note_step(
                step_index,
                generated,
                injected,
                backlog,
                routed,
                moved,
                advancing,
                delivered_count,
                total_distance,
                max_load,
                bad_nodes,
                packets_in_bad,
            )

        self._writeback(columns)

    # ------------------------------------------------------------------
    # Vectorized numpy path
    # ------------------------------------------------------------------

    def _run_vectorized(
        self, until: int, profiler: Optional[PhaseSink]
    ) -> None:
        """The numpy path: one argsort + gathers per step.

        Only legal for RNG-free policies, where per-node decisions are
        pure functions of each node's rows (visit order immaterial).
        That purity also lets contended nodes be resolved by signature
        (:func:`~.conflict.resolve_segments`), memoised for this call.
        """
        np = _compat.np
        assert np is not None
        kernel = self.kernel
        adapter = self.adapter
        tables = self.tables
        views = _table_views(tables, np)
        coords_v: List[Any] = views["coords"]
        packed_v: List[Any] = views["packed"]
        nbr_v: Any = views["nbr"]
        out_mask_v: Any = views["out_mask"]
        dimension = tables.dimension
        side1 = tables.side + 1
        shift = tables.shift
        mask_all = tables.good_mask_all
        index_node = tables.index_node
        two_d = tables.num_directions
        buffered = kernel.buffered
        set_entry = kernel.set_entry_direction
        on_deliver = kernel.on_deliver
        source = kernel.injection
        stop_when_empty = source is None
        first_fit = adapter.first_fit
        deflection = adapter.deflection
        code_kind = adapter.code_kind
        prefer_type_a = adapter.prefer_type_a
        directions = tables.directions
        clock = profiler.clock if profiler is not None else None

        columns = PacketColumns.pack(kernel.in_flight, tables)
        by_id = columns.by_id
        ids = np.asarray(columns.ids, dtype=np.int64)
        pos = np.asarray(columns.pos, dtype=np.int64)
        dest = np.asarray(columns.dest, dtype=np.int64)
        dcs = [
            np.asarray(column, dtype=np.int64)
            for column in columns.dest_coords
        ]
        entry = np.asarray(columns.entry, dtype=np.int64)
        rl = np.asarray(columns.restricted_last, dtype=bool)
        al = np.asarray(columns.advanced_last, dtype=bool)
        hops = np.asarray(columns.hops, dtype=np.int64)
        adv = np.asarray(columns.advances, dtype=np.int64)
        defl = np.asarray(columns.deflections, dtype=np.int64)
        rank_col: Any = None
        if code_kind == CODE_RANK:
            rank_of = adapter.rank_of
            rank_col = np.asarray(
                [rank_of(packet_id) for packet_id in columns.ids],
                dtype=np.float64,
            )
        # Contended-node decisions by signature, for this call only.
        memo: SignatureMemo = {}

        while kernel.time < until:
            if stop_when_empty and pos.shape[0] == 0:
                break
            t0 = clock() if clock is not None else 0
            generated = injected = backlog = 0
            if source is not None:
                node_ids, node_counts = np.unique(
                    pos, return_counts=True
                )
                loads: Dict[Node, int] = {
                    index_node[node_idx]: count
                    for node_idx, count in zip(
                        node_ids.tolist(), node_counts.tolist()
                    )
                }
                generated, new_packets, backlog = self._admit_batch(
                    loads
                )
                injected = len(new_packets)
                if new_packets:
                    extra = PacketColumns(tables)
                    for packet in new_packets:
                        extra.append(packet)
                    by_id.update(extra.by_id)
                    ids = np.concatenate(
                        [ids, np.asarray(extra.ids, dtype=np.int64)]
                    )
                    pos = np.concatenate(
                        [pos, np.asarray(extra.pos, dtype=np.int64)]
                    )
                    dest = np.concatenate(
                        [dest, np.asarray(extra.dest, dtype=np.int64)]
                    )
                    dcs = [
                        np.concatenate(
                            [
                                dcs[axis],
                                np.asarray(
                                    extra.dest_coords[axis],
                                    dtype=np.int64,
                                ),
                            ]
                        )
                        for axis in range(dimension)
                    ]
                    entry = np.concatenate(
                        [entry, np.asarray(extra.entry, dtype=np.int64)]
                    )
                    rl = np.concatenate(
                        [
                            rl,
                            np.asarray(
                                extra.restricted_last, dtype=bool
                            ),
                        ]
                    )
                    al = np.concatenate(
                        [
                            al,
                            np.asarray(
                                extra.advanced_last, dtype=bool
                            ),
                        ]
                    )
                    hops = np.concatenate(
                        [hops, np.asarray(extra.hops, dtype=np.int64)]
                    )
                    adv = np.concatenate(
                        [
                            adv,
                            np.asarray(extra.advances, dtype=np.int64),
                        ]
                    )
                    defl = np.concatenate(
                        [
                            defl,
                            np.asarray(
                                extra.deflections, dtype=np.int64
                            ),
                        ]
                    )
            t1 = clock() if clock is not None else 0

            step_index = kernel.time
            m = int(pos.shape[0])
            routed = m
            # Good masks + distances: d gathers, one add chain.
            acc = packed_v[0][coords_v[0][pos] * side1 + dcs[0]]
            for axis in range(1, dimension):
                acc = acc + packed_v[axis][
                    coords_v[axis][pos] * side1 + dcs[axis]
                ]
            gm = acc & mask_all
            total_distance = int((acc >> shift).sum())

            if buffered:
                (
                    moved,
                    advancing,
                    max_load,
                    bad_nodes,
                    packets_in_bad,
                    delivered_rows,
                ) = self._step_buffered_vectorized(
                    np, pos, dest, dcs, gm, hops, adv, defl,
                    coords_v, nbr_v, dimension, two_d, step_index,
                )
                # One fused call: the whole step is booked under rank.
                t2 = t3 = clock() if clock is not None else 0
            else:
                # Node load stats + priority order from one stable sort.
                if code_kind == CODE_RESTRICTED:
                    single = (gm & (gm - 1)) == 0
                    a_code = 0 if prefer_type_a else 1
                    restricted_codes = np.where(
                        rl & al, a_code, 1 - a_code
                    )
                    code = np.where(single, restricted_codes, 2)
                    order = np.argsort(pos * 4 + code, kind="stable")
                elif code_kind == CODE_RANK:
                    order = np.lexsort((rank_col, pos))
                else:
                    order = np.argsort(pos, kind="stable")
                spos = pos[order]
                if m:
                    head = np.empty(m, dtype=bool)
                    head[0] = True
                    np.not_equal(spos[1:], spos[:-1], out=head[1:])
                    starts = np.flatnonzero(head)
                    counts = np.diff(np.append(starts, m))
                    max_load = int(counts.max())
                    bad = counts > dimension
                    bad_nodes = int(bad.sum())
                    packets_in_bad = int(counts[bad].sum())
                else:
                    starts = np.empty(0, dtype=np.int64)
                    counts = np.empty(0, dtype=np.int64)
                    max_load = bad_nodes = packets_in_bad = 0

                t2 = clock() if clock is not None else 0

                dirs = np.empty(m, dtype=np.int64)
                singles = counts == 1
                srows = order[starts[singles]]
                if srows.size:
                    low = gm[srows] & -gm[srows]
                    dirs[srows] = np.log2(
                        low.astype(np.float64)
                    ).astype(np.int64)
                multi = ~singles
                if multi.any():
                    multi_starts = starts[multi]
                    nodes = spos[multi_starts]
                    rows, resolved, failed = resolve_segments(
                        np,
                        order,
                        multi_starts,
                        counts[multi],
                        out_mask_v[nodes],
                        gm,
                        entry,
                        first_fit,
                        deflection,
                        memo,
                    )
                    if failed >= 0:
                        raise ArcAssignmentError(
                            f"step {step_index}: inconsistent "
                            f"assignment at "
                            f"{index_node[int(nodes[failed])]} "
                            f"(soa kernel check)"
                        )
                    dirs[rows] = resolved
                t3 = clock() if clock is not None else 0

                adv_now = ((gm >> dirs) & 1).astype(bool)
                advancing = int(adv_now.sum())
                moved = m
                # Move: flags, position, counters — all columns.
                rl = (gm & (gm - 1)) == 0
                al = adv_now
                pos = nbr_v[pos * two_d + dirs]
                if set_entry:
                    entry = dirs
                hops = hops + 1
                adv = adv + adv_now
                defl = defl + ~adv_now
                delivered_rows = np.flatnonzero(pos == dest)
            t4 = clock() if clock is not None else 0

            kernel.time += 1
            now = kernel.time
            delivered_count = int(delivered_rows.size)
            if delivered_count:
                # Ascending row order = in_flight order, so delivery
                # callbacks fire exactly as in the object loop.
                entry_live = set_entry and not buffered
                for row in delivered_rows.tolist():
                    packet = by_id.pop(int(ids[row]))
                    packet.location = index_node[int(pos[row])]
                    if entry_live:
                        packet.entry_direction = directions[
                            int(entry[row])
                        ]
                    packet.restricted_last_step = bool(rl[row])
                    packet.advanced_last_step = bool(al[row])
                    packet.hops = int(hops[row])
                    packet.advances = int(adv[row])
                    packet.deflections = int(defl[row])
                    packet.delivered_at = now
                    if on_deliver is not None:
                        on_deliver(packet)
                keep = np.ones(pos.shape[0], dtype=bool)
                keep[delivered_rows] = False
                ids = ids[keep]
                pos = pos[keep]
                dest = dest[keep]
                dcs = [column[keep] for column in dcs]
                entry = entry[keep]
                rl = rl[keep]
                al = al[keep]
                hops = hops[keep]
                adv = adv[keep]
                defl = defl[keep]
                if rank_col is not None:
                    rank_col = rank_col[keep]
            t5 = clock() if clock is not None else 0
            if profiler is not None:
                # rank: good masks, sort and load stats; arc_assign:
                # lone-packet and contended-node directions; move: the
                # column update.
                profiler.record_step(
                    t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4
                )

            kernel._note_step(
                step_index,
                generated,
                injected,
                backlog,
                routed,
                moved,
                advancing,
                delivered_count,
                total_distance,
                max_load,
                bad_nodes,
                packets_in_bad,
            )

        # Restore object-kernel state from the arrays.
        columns.ids = [int(value) for value in ids.tolist()]
        columns.pos = [int(value) for value in pos.tolist()]
        columns.dest = [int(value) for value in dest.tolist()]
        columns.dest_coords = [
            [int(value) for value in column.tolist()] for column in dcs
        ]
        columns.entry = [int(value) for value in entry.tolist()]
        columns.restricted_last = [bool(value) for value in rl.tolist()]
        columns.advanced_last = [bool(value) for value in al.tolist()]
        columns.hops = [int(value) for value in hops.tolist()]
        columns.advances = [int(value) for value in adv.tolist()]
        columns.deflections = [int(value) for value in defl.tolist()]
        self._writeback(columns)

    def _step_buffered_vectorized(
        self,
        np: Any,
        pos: Any,
        dest: Any,
        dcs: List[Any],
        gm: Any,
        hops: Any,
        adv: Any,
        defl: Any,
        coords_v: List[Any],
        nbr_v: Any,
        dimension: int,
        two_d: int,
        step_index: int,
    ) -> Tuple[int, int, int, int, int, Any]:
        """One buffered (dimension-order) step on arrays, in place.

        Mutates ``pos``/``hops``/``adv``/``defl`` for the winning rows
        and returns ``(moved, advancing, max_load, bad_nodes,
        packets_in_bad, delivered_rows)``.
        """
        m = int(pos.shape[0])
        if m:
            _, counts = np.unique(pos, return_counts=True)
            max_load = int(counts.max())
            bad = counts > dimension
            bad_nodes = int(bad.sum())
            packets_in_bad = int(counts[bad].sum())
        else:
            max_load = bad_nodes = packets_in_bad = 0
        # Dimension-order next hop: first differing axis, plain
        # comparison (deliberately wrap-unaware, like the policy).
        dirv = np.full(m, -1, dtype=np.int64)
        for axis in reversed(range(dimension)):
            here = coords_v[axis][pos]
            there = dcs[axis]
            dirv = np.where(
                here < there,
                2 * axis,
                np.where(here > there, 2 * axis + 1, dirv),
            )
        valid = np.flatnonzero(dirv >= 0)
        # One packet per (node, direction): the lowest row (= lowest
        # id) wins, matching the policy's first-seen rule.
        keys = pos[valid] * two_d + dirv[valid]
        _, first = np.unique(keys, return_index=True)
        winners = valid[first]
        win_dirs = dirv[winners]
        advancing = int(((gm[winners] >> win_dirs) & 1).sum())
        next_pos = nbr_v[pos[winners] * two_d + win_dirs]
        if next_pos.size and int(next_pos.min()) < 0:
            raise ArcAssignmentError(
                f"step {step_index}: inconsistent buffered assignment "
                f"(soa kernel check)"
            )
        advanced = ((gm[winners] >> win_dirs) & 1).astype(bool)
        pos[winners] = next_pos
        hops[winners] += 1
        adv[winners] += advanced
        defl[winners] += ~advanced
        delivered_rows = np.flatnonzero(pos == dest)
        return (
            int(winners.size),
            advancing,
            max_load,
            bad_nodes,
            packets_in_bad,
            delivered_rows,
        )
