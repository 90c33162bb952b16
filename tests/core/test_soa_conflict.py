"""Signature resolution equals per-node resolution, exhaustively in 2-D.

:func:`repro.core.soa.conflict.resolve_segments` resolves every
contended node of a step by signature: equal signatures share one
:func:`~repro.core.soa.conflict.resolve_node` call, and the directions
are gathered back onto rows.  These tests enumerate every signature a
2-D box-mesh node can present — each out-mask, each ordered tuple of
2–4 legal good masks, entry directions under ``reverse``, Kuhn and
first-fit matching — and check the batched function against one
``resolve_node`` call per node.
"""

from itertools import cycle, product

import pytest

from repro.core.soa.conflict import (
    _MEMO_LIMIT,
    _dense_ids,
    resolve_node,
    resolve_segments,
)

np = pytest.importorskip("numpy")

DIMENSION = 2

#: Direction ``2 * axis`` points up the axis, ``2 * axis + 1`` down it.
_AXIS_CHOICES = ((0, 1), (0,), (1,))


def _out_masks():
    """Every out-mask of a box-mesh node: per axis, both directions
    (interior) or one (on a face)."""
    for choice in product(_AXIS_CHOICES, repeat=DIMENSION):
        yield sum(
            1 << (2 * axis + step)
            for axis, steps in enumerate(choice)
            for step in steps
        )


def _good_masks(out_mask):
    """Non-empty good masks a packet can have there: at most one
    direction per axis, each with an outgoing arc."""
    masks = []
    for choice in product((None, 0, 1), repeat=DIMENSION):
        mask = 0
        for axis, step in enumerate(choice):
            if step is not None:
                mask |= 1 << (2 * axis + step)
        if mask and mask & out_mask == mask:
            masks.append(mask)
    return masks


def _entry_tuples(out_mask, load):
    """Entry directions of ``load`` packets: ``-1`` (just injected) or
    a direction whose reverse arc exists, one packet per arc."""
    arrivals = [
        direction
        for direction in range(2 * DIMENSION)
        if out_mask >> (direction ^ 1) & 1
    ]
    for entries in product([-1, *arrivals], repeat=load):
        used = [entry for entry in entries if entry >= 0]
        if len(used) == len(set(used)):
            yield entries


def _signatures(reverse):
    """``(out_mask, good masks, entries)`` per node.

    Without ``reverse`` entries are never read and stay ``-1``.  With
    it, loads 2 and 3 take every entry tuple with every mask tuple;
    load 4 pairs the two lists cyclically, so each mask tuple and each
    entry tuple still appears (the full product is about a million).
    """
    for out_mask in _out_masks():
        masks = _good_masks(out_mask)
        for load in (2, 3, 4):
            goods = list(product(masks, repeat=load))
            if not reverse:
                for good in goods:
                    yield out_mask, good, (-1,) * load
                continue
            entries = list(_entry_tuples(out_mask, load))
            if load < 4:
                for good, entry in product(goods, entries):
                    yield out_mask, good, entry
                continue
            longer, shorter = (
                (goods, entries)
                if len(goods) >= len(entries)
                else (entries, goods)
            )
            for first, second in zip(longer, cycle(shorter)):
                if longer is goods:
                    yield out_mask, first, second
                else:
                    yield out_mask, second, first


def _expected(out_mask, good, entry, first_fit, deflection):
    """One per-node ``resolve_node`` call: directions by position, or
    ``None`` when a row is left unplaced."""
    rows = list(range(len(good)))
    assignment = resolve_node(
        rows, rows, good, entry, out_mask, first_fit, deflection, None
    )
    if len(assignment) != len(rows):
        return None
    return [assignment[row] for row in rows]


def _segments(nodes):
    """Lay ``nodes`` out as consecutive rows, the kernel's arrays."""
    counts = np.asarray([len(good) for _, good, _ in nodes], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    good = np.asarray(
        [mask for _, masks, _ in nodes for mask in masks], dtype=np.int64
    )
    entry = np.asarray(
        [value for _, _, values in nodes for value in values],
        dtype=np.int64,
    )
    out_masks = np.asarray([out for out, _, _ in nodes], dtype=np.int64)
    order = np.arange(good.shape[0], dtype=np.int64)
    return order, starts, counts, out_masks, good, entry


def _resolve(nodes, first_fit, deflection, memo):
    return resolve_segments(
        np, *_segments(nodes), first_fit, deflection, memo
    )


@pytest.mark.parametrize("first_fit", [False, True], ids=["kuhn", "first-fit"])
@pytest.mark.parametrize("deflection", ["ordered", "reverse"])
class TestResolveSegments:
    def test_equals_per_node_resolution(self, first_fit, deflection):
        complete, failing = [], []
        for out_mask, good, entry in _signatures(deflection == "reverse"):
            directions = _expected(
                out_mask, good, entry, first_fit, deflection
            )
            node = (out_mask, good, entry)
            if directions is None:
                failing.append(node)
            else:
                complete.append((node, directions))
        assert complete and failing

        # Reversed and repeated, so most signatures arrive twice and
        # away from their first position: later copies are memo hits.
        nodes = [node for node, _ in complete]
        batch = nodes[::-1] + nodes[::3]
        memo = {}
        rows, directions, failed = _resolve(
            batch, first_fit, deflection, memo
        )
        assert failed == -1
        expected = {node: found for node, found in complete}
        want = [d for node in batch for d in expected[node]]
        assert rows.tolist() == list(range(len(want)))
        assert directions.tolist() == want
        assert len(memo) == len(set(nodes))

        # A batch with unplaceable nodes names the first of them, and
        # every distinct signature in it was resolved exactly once:
        # the unplaceable ones to ``()``.
        mixed = nodes[:5] + failing + nodes[5:]
        memo = {}
        _, _, failed = _resolve(mixed, first_fit, deflection, memo)
        assert failed == 5
        assert len(memo) == len(set(mixed))
        unplaced = [value for value in memo.values() if value == ()]
        assert len(unplaced) == len(set(failing))

def test_wide_signatures_keep_their_identity():
    # Sixteen directions and eight rows per node: far more bits than
    # one int64 holds.  Two nodes that differ only in their first row
    # must still resolve differently.
    out_mask = (1 << 16) - 1
    rest = tuple(1 << (2 * axis) for axis in range(1, 8))
    nodes = [
        (out_mask, (1 << 0,) + rest, (-1,) * 8),
        (out_mask, (1 << 1,) + rest, (-1,) * 8),
    ]
    memo = {}
    _, directions, failed = _resolve(nodes, False, "ordered", memo)
    assert failed == -1
    assert len(memo) == 2
    assert directions.tolist() == [
        d
        for out, good, entry in nodes
        for d in _expected(out, good, entry, False, "ordered")
    ]


def test_dense_ids_rank_columns_too_wide_to_fold():
    # A column spanning most of int64 is ranked before it is folded,
    # so ids stay exact: rows 0 and 3 are equal, the rest differ.
    huge = 2**62
    columns = [
        np.asarray([0, huge, 0, 0, huge], dtype=np.int64),
        np.asarray([1, 1, 2, 1, -huge], dtype=np.int64),
    ]
    first, ids = _dense_ids(np, columns)
    assert ids[0] == ids[3]
    assert len(set(ids.tolist())) == 4
    assert sorted(first.tolist()) == [0, 1, 2, 4]


def test_a_full_memo_is_emptied_before_it_grows_further():
    # High-dimension runs rarely repeat a signature; the memo starts
    # over instead of holding every one it has seen.
    memo = {(2, index): (0, 1) for index in range(_MEMO_LIMIT + 1)}
    node = (0b1111, (0b0001, 0b0100), (-1, -1))
    _, directions, failed = _resolve([node], False, "ordered", memo)
    assert failed == -1
    assert len(memo) == 1
    assert directions.tolist() == _expected(*node, False, "ordered")
