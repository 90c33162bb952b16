"""Integer-encoded per-node conflict resolution for the array kernel.

These helpers replay the object kernel's per-node decision pipeline —
``priority_maximum_matching`` / ``greedy_maximal_matching`` followed by
:func:`repro.algorithms.deflect` — on flat integer state: packets are
row indices, directions are canonical direction indices, and a packet's
good-direction set is a bitmask.  Every ordering contract of the object
pipeline is preserved bit-for-bit:

* adjacency is scanned in ascending bit order, matching the canonical
  direction order that ``NodeView.good_directions`` yields;
* the Kuhn augmentation tracks visited directions per left vertex as a
  *bitmask* (membership tests only — determinism-lint DET102 stays
  clean by construction: there is no set to iterate);
* free directions are enumerated in canonical order before the
  deflection rule permutes or consumes them, and ``random`` deflection
  shuffles through the caller-supplied policy RNG so the sanctioned
  stream advances exactly as in the object kernel.

Two callers run this pipeline.  The columnar pure-Python loop calls
:func:`resolve_node` at every node it visits, in the object kernel's
visit order, because RNG-consuming policies make that order part of
the seeded contract.  The vectorized numpy loop calls
:func:`resolve_segments` once per step for all contended nodes.  In
the paper's model (Section 2) a node decides from local information
only, so on an RNG-free policy a contended node's decision is a pure
function of its *signature*: load, out-mask, and its rows' good masks
(plus entry directions under ``reverse``) in priority order.
:func:`resolve_segments` gives every signature a dense id, resolves
each distinct signature once per run through :func:`resolve_node`
(the memo-miss path) and gathers the directions back onto rows.

The matching routines are thus the inner loop of the columnar path
and of the memo-miss path, so they are written allocation-light:
direction state lives in small lists indexed by direction (at most
``2 * dimension`` slots) and int bitmasks, and the ubiquitous
uncontended case — a row whose lowest good direction is still free —
short-circuits past the augmentation machinery entirely.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "bits_of",
    "kuhn_match",
    "first_fit_match",
    "resolve_node",
    "resolve_segments",
    "SignatureMemo",
]

#: Signature -> per-position directions, or ``()`` when the node
#: cannot place every row (the caller's completeness check fails).
SignatureMemo = Dict[Tuple[int, ...], Tuple[int, ...]]

#: Entries a memo may hold before :func:`resolve_segments` empties it.
#: A 2-D run meets a few thousand distinct signatures; on
#: high-dimension meshes they rarely repeat and would otherwise pile up.
_MEMO_LIMIT = 1 << 15

#: Largest ``size * span`` a fold may reach: keeps ``key * span +
#: offset`` inside int64 whatever the mask width.
_FOLD_LIMIT = 2**62


def bits_of(mask: int) -> List[int]:
    """Set bit indices of ``mask`` in ascending (canonical) order."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def kuhn_match(
    order: Sequence[int], good: Sequence[int], out_mask: int
) -> Dict[int, int]:
    """Maximum matching with priority order, on bitmask adjacency.

    ``order`` lists row indices highest-priority first; ``good[row]``
    is the row's good-direction bitmask (a subset of ``out_mask``).
    Mirrors
    :func:`repro.core.matching.priority_maximum_matching`:
    earlier rows keep their matches, later rows may only augment.

    The augmentation explores directions in ascending bit order, so a
    row whose lowest good direction is untaken receives exactly that
    direction — that case is assigned directly, and only genuinely
    contended rows run the recursive augmentation.
    """
    match_of_dir: List[int] = [-1] * out_mask.bit_length()
    match: Dict[int, int] = {}
    taken = 0
    visited = 0

    def try_augment(row: int) -> bool:
        nonlocal taken, visited
        mask = good[row]
        while mask:
            low = mask & -mask
            mask ^= low
            if visited & low:
                continue
            visited |= low
            direction = low.bit_length() - 1
            holder = match_of_dir[direction]
            if holder < 0 or try_augment(holder):
                if holder < 0:
                    taken |= low
                match_of_dir[direction] = row
                match[row] = direction
                return True
        return False

    for row in order:
        good_mask = good[row]
        low = good_mask & -good_mask
        if not taken & low:
            # Lowest good direction still free (or no good direction
            # at all): identical to what the augmentation would do.
            if good_mask:
                direction = low.bit_length() - 1
                match_of_dir[direction] = row
                match[row] = direction
                taken |= low
            continue
        visited = 0
        try_augment(row)
    return match


def first_fit_match(
    order: Sequence[int], good: Sequence[int]
) -> Dict[int, int]:
    """First-fit maximal matching on bitmask adjacency.

    Mirrors :func:`repro.core.matching.greedy_maximal_matching`:
    each row in ``order`` takes its first (canonical-order) good
    direction not already taken.
    """
    taken = 0
    match: Dict[int, int] = {}
    for row in order:
        mask = good[row]
        while mask:
            low = mask & -mask
            mask ^= low
            if not taken & low:
                taken |= low
                match[row] = low.bit_length() - 1
                break
    return match


def resolve_node(
    ordered: Sequence[int],
    id_ordered: Sequence[int],
    good: Sequence[int],
    entry: Sequence[int],
    out_mask: int,
    first_fit: bool,
    deflection: str,
    rng: Optional[random.Random],
) -> Dict[int, int]:
    """One node's full assignment: matching plus deflection.

    Args:
        ordered: the node's rows in priority order (post tie-break and
            priority sort) — the matching order for the Kuhn pipeline.
        id_ordered: the same rows in packet-id order — the matching
            order for the first-fit pipeline (``MaximalGreedyPolicy``
            matches in id order regardless of deflection ordering).
        good: row -> good-direction bitmask (global, indexed by row).
        entry: row -> entry-direction index, ``-1`` for none (used by
            the ``reverse`` rule; the canonical encoding makes the
            opposite direction ``entry ^ 1``).
        out_mask: bitmask of directions with an outgoing arc.
        first_fit: select the first-fit pipeline instead of Kuhn.
        deflection: ``"ordered"`` | ``"random"`` | ``"reverse"``.
        rng: the policy's sanctioned RNG; required for ``random``.

    Returns row -> direction index.  The caller is responsible for the
    completeness check (every row assigned) exactly like the object
    kernel's staging loop.
    """
    if first_fit:
        assignment = first_fit_match(id_ordered, good)
        source = id_ordered
    else:
        assignment = kuhn_match(ordered, good, out_mask)
        source = ordered
    if len(assignment) == len(source) and deflection != "random":
        # Fully matched and no RNG to advance ("random" shuffles the
        # free list even when nobody needs deflecting, so it cannot
        # take this shortcut).
        return assignment
    unmatched = [row for row in source if row not in assignment]
    used = 0
    for direction in assignment.values():
        used |= 1 << direction
    free = bits_of(out_mask & ~used)
    if deflection == "random":
        if rng is None:
            raise ValueError("random deflection requires the policy RNG")
        rng.shuffle(free)
    elif deflection == "reverse":
        remaining: List[int] = []
        for row in unmatched:
            arrived = entry[row]
            if arrived >= 0:
                back = arrived ^ 1
                if back in free:
                    assignment[row] = back
                    free.remove(back)
                    continue
            remaining.append(row)
        unmatched = remaining
    for row, direction in zip(unmatched, free):
        assignment[row] = direction
    return assignment


def _dense_ids(np: Any, columns: Sequence[Any]) -> Tuple[Any, Any]:
    """Dense ids of the rows of a column table.

    Folds one column at a time into a running key and re-ranks it with
    :func:`numpy.unique`, so the key stays below the row count and the
    fold ``key * span + offset`` never overflows: equal rows get equal
    ids and different rows different ids at any mask width.  A column
    whose value span alone would overflow the fold is ranked first.

    Returns ``(first, ids)``: ``ids[i]`` is row ``i``'s id and
    ``first[u]`` the first row with id ``u``.
    """
    size = columns[0].shape[0]
    key = np.zeros(size, dtype=np.int64)
    last = len(columns) - 1
    for position, column in enumerate(columns):
        low = int(column.min())
        span = int(column.max()) - low + 1
        if span > _FOLD_LIMIT // size:
            _, column = np.unique(column, return_inverse=True)
            low = 0
            span = int(column.max()) + 1
        key = key * span + (column - low)
        if position < last:
            # Only the last re-rank needs first rows, which costs a
            # stable sort; the others use numpy's faster default.
            _, key = np.unique(key, return_inverse=True)
    _, first, ids = np.unique(key, return_index=True, return_inverse=True)
    return first, ids


def _resolve_signature(
    signature: Tuple[int, ...], first_fit: bool, deflection: str
) -> Tuple[int, ...]:
    """:func:`resolve_node` on a signature's positions as rows:
    directions by position, or ``()`` if a row is left unplaced."""
    load, out_mask = signature[0], signature[1]
    if deflection == "reverse":
        good = signature[2::2]
        entry: Sequence[int] = signature[3::2]
    else:
        good = signature[2:]
        entry = (-1,) * load
    rows = range(load)
    assignment = resolve_node(
        rows, rows, good, entry, out_mask, first_fit, deflection, rng=None
    )
    if len(assignment) != load:
        return ()
    return tuple(map(assignment.__getitem__, rows))


def resolve_segments(
    np: Any,
    order: Any,
    starts: Any,
    counts: Any,
    out_masks: Any,
    good: Any,
    entry: Any,
    first_fit: bool,
    deflection: str,
    memo: SignatureMemo,
) -> Tuple[Any, Any, int]:
    """Directions for the rows of many nodes, one resolution per
    distinct signature.

    Segment ``s`` is a node whose rows, in priority order, are
    ``order[starts[s] : starts[s] + counts[s]]``; ``out_masks[s]`` is
    its out-mask.  Equivalent to calling :func:`resolve_node` on each
    segment, passing the segment as both of its row orders and no RNG,
    so ``deflection`` must not be ``"random"``.

    Each segment's signature is its load, out-mask, and per position
    the row's good mask, followed by its entry direction when
    ``deflection == "reverse"`` (the only rule that reads it).
    Signatures get dense ids (:func:`_dense_ids`); each id is looked up
    in ``memo`` by its exact tuple and resolved on a miss, then the
    directions are gathered back onto the rows.  A memo holding more
    than ``_MEMO_LIMIT`` entries is emptied first.

    Returns ``(rows, directions, failed)``: every segment row with its
    direction, and the index of the first segment whose rows cannot
    all be placed (``-1`` if none).  On failure ``rows`` and
    ``directions`` are empty.
    """
    reverse = deflection == "reverse"
    width = int(counts.max())
    slots = np.arange(width)
    filled = slots < counts[:, None]
    # Slots past a segment's load read a clipped row and are masked.
    index = np.minimum(starts[:, None] + slots, order.shape[0] - 1)
    rows = order[index]
    good_at = np.where(filled, good[rows], -1)
    columns = [counts, out_masks]
    if reverse:
        entry_at = np.where(filled, entry[rows], -1)
        for slot in range(width):
            columns.append(good_at[:, slot])
            columns.append(entry_at[:, slot])
    else:
        columns.extend(good_at[:, slot] for slot in range(width))
    first, ids = _dense_ids(np, columns)

    per_slot = 2 if reverse else 1
    pad = (0,) * width
    table: List[Tuple[int, ...]] = []
    placed: List[bool] = []
    if len(memo) > _MEMO_LIMIT:
        memo.clear()
    for values in zip(*[column[first].tolist() for column in columns]):
        load = values[0]
        signature = values[: 2 + per_slot * load]
        resolved = memo.get(signature)
        if resolved is None:
            resolved = memo[signature] = _resolve_signature(
                signature, first_fit, deflection
            )
        placed.append(bool(resolved))
        table.append(resolved + pad[len(resolved) :])
    if not all(placed):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, int(np.argmin(np.asarray(placed)[ids]))
    directions = np.asarray(table, dtype=np.int64)[ids]
    return rows[filled], directions[filled], -1
