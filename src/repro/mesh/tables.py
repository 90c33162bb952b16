"""Flat arc-index tables: the mesh exported as dense integer arrays.

The object kernel resolves adjacency through per-node
:class:`~repro.mesh.topology.NodeArcs` tables — one Python object per
node, one dict lookup per query.  Array kernels
(:mod:`repro.core.soa`) want the same information as flat integer
columns indexed by a *node index* so that neighbor resolution, good
directions and distances become table gathers.  :class:`ArcTables`
is that export:

* nodes are numbered ``0 .. N-1`` in :meth:`Mesh.nodes` order
  (lexicographic), so sorting node indices numerically reproduces the
  object kernel's sorted node-tuple visit order;
* directions are numbered ``0 .. 2d-1`` in the canonical axis-major,
  ``+`` before ``-`` order (direction ``k`` is ``directions[k]``, its
  opposite is ``k ^ 1``);
* per-axis *packed tables* fold each axis' contribution to a packet's
  distance and good-direction set into one integer,
  ``(distance << 2d) | good_mask``, so summing ``d`` gathers yields
  both at once.  This packing is valid because on every mesh family in
  the library (box mesh, torus, hypercube) goodness and distance
  factor per axis.

Every table is built from one *probe* per direction and coordinate:
:meth:`~repro.mesh.topology.Mesh.neighbor` is called on the first node
with its own-axis coordinate set to each of ``1 .. n``, ``2d * n``
calls in all, so subclass overrides (torus wraparound) are honored by
construction.  The probe relies on the same product structure as the
packing: a step changes only its own axis coordinate, and where it
lands depends only on that coordinate.  Neighbor indices then follow
by index arithmetic; an axis distance is the shortest path over the
probed steps along that axis, and a direction is good exactly when its
step exists and lands strictly closer (Definition 5).  The probe never
calls :meth:`~repro.mesh.topology.Mesh.distance` or
:meth:`~repro.mesh.topology.Mesh.good_directions_tuple`, so it leaves
the mesh's memo caches empty.

This module is deliberately numpy-free: the mesh layer has no optional
dependencies.  Array backends convert the plain lists to their own
array types and may cache those views on the instance (see
:attr:`ArcTables.backend_views`).

Tables depend only on the topology *shape*, so they are shared
process-wide through :func:`arc_tables_for`, keyed by
``(type, dimension, side)`` — benchmark code that builds a fresh mesh
per run still hits warm tables.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.mesh.directions import Direction
from repro.types import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mesh.topology import Mesh

__all__ = [
    "ArcTables",
    "TABLE_CACHE_LIMIT",
    "arc_tables_for",
    "direction_index",
]


_T = TypeVar("_T")


def direction_index(direction: Direction) -> int:
    """The canonical integer index of a direction (``opposite == k ^ 1``)."""
    return 2 * direction.axis + (0 if direction.sign > 0 else 1)


def _spread(per_coordinate: Iterable[_T], stride: int, length: int) -> List[_T]:
    """A node-index column of one axis: entry ``i`` is the value for
    coordinate ``(i // stride) % side + 1``, ``per_coordinate`` listing
    the values for coordinates ``1 .. side``."""
    block: List[_T] = []
    for value in per_coordinate:
        block += [value] * stride
    return block * (length // len(block))


class ArcTables:
    """Dense integer tables describing one mesh shape.

    Attributes:
        dimension, side, num_nodes: the shape.
        num_directions: ``2 * dimension``.
        shift: bit position of the distance field in packed entries.
        good_mask_all: mask selecting the good-direction bits.
        directions: the mesh's canonical direction tuple (index ``k``
            is the direction with :func:`direction_index` ``k``).
        index_node: node tuple per node index (lexicographic order).
        node_index: node tuple -> node index.
        neighbor_flat: length ``N * 2d``; entry ``n * 2d + k`` is the
            node index of the neighbor of node ``n`` in direction ``k``,
            or ``-1`` when that arc leaves the mesh.
        out_mask: per node, bitmask of directions with an outgoing arc.
        degrees: per node, the number of outgoing arcs.
        coords: per axis, the (1-based) coordinate of each node index.
        packed: per axis, a ``(side+1) ** 2`` table indexed by
            ``here * (side+1) + dest`` holding
            ``(axis_distance << shift) | axis_good_mask``; summing the
            ``d`` per-axis entries of a (node, destination) pair gives
            the packet's full distance and good-direction mask.
    """

    def __init__(self, mesh: "Mesh") -> None:
        dimension = mesh.dimension
        side = mesh.side
        self.dimension = dimension
        self.side = side
        self.num_directions = 2 * dimension
        self.shift = 2 * dimension
        self.good_mask_all = (1 << self.shift) - 1
        self.directions: Tuple[Direction, ...] = mesh.directions

        nodes: List[Node] = list(mesh.nodes())
        self.num_nodes = len(nodes)
        self.index_node: List[Node] = nodes
        self.node_index: Dict[Node, int] = {
            node: index for index, node in enumerate(nodes)
        }

        # Probe the mesh itself along one axis line per direction, so
        # torus wraparound (or any per-axis-factoring override) lands in
        # the tables by construction rather than by reimplementation.
        # steps[k][c] is the own-axis coordinate reached by stepping in
        # direction k from coordinate c, or None when the arc leaves
        # the mesh (index 0 is unused: coordinates are 1-based).
        base = nodes[0]
        steps: List[List[Optional[int]]] = []
        for direction in self.directions:
            axis = direction.axis
            lead, trail = base[:axis], base[axis + 1 :]
            reached: List[Optional[int]] = [None] * (side + 1)
            for c in range(1, side + 1):
                other = mesh.neighbor(lead + (c,) + trail, direction)
                if other is not None:
                    if other[:axis] != lead or other[axis + 1 :] != trail:
                        raise ValueError(
                            f"{type(mesh).__name__}.neighbor moves a "
                            f"{direction} step off axis {axis}; arc "
                            "tables need per-axis steps"
                        )
                    reached[c] = other[axis]
            steps.append(reached)

        # Nodes are numbered lexicographically, so axis a has stride
        # side ** (d - 1 - a) and a step from coordinate c to r moves
        # the node index by (r - c) * stride.
        num_nodes = self.num_nodes
        two_d = self.num_directions
        strides = [side ** (dimension - 1 - axis) for axis in range(dimension)]
        self.coords: List[List[int]] = [
            _spread(range(1, side + 1), stride, num_nodes)
            for stride in strides
        ]
        neighbor_flat = [-1] * (num_nodes * two_d)
        axis_bits = [[0] * side for _ in range(dimension)]
        for k, direction in enumerate(self.directions):
            axis = direction.axis
            stride = strides[axis]
            offsets: List[Optional[int]] = []
            for c in range(1, side + 1):
                r = steps[k][c]
                if r is None:
                    offsets.append(None)
                else:
                    offsets.append((r - c) * stride)
                    axis_bits[axis][c - 1] |= 1 << k
            neighbor_flat[k::two_d] = [
                -1 if offset is None else index + offset
                for index, offset in enumerate(
                    _spread(offsets, stride, num_nodes)
                )
            ]
        self.neighbor_flat = neighbor_flat
        mask_columns = [
            _spread(bits, stride, num_nodes)
            for bits, stride in zip(axis_bits, strides)
        ]
        # Axes own disjoint direction bits, so summing is or-ing.
        self.out_mask = [sum(masks) for masks in zip(*mask_columns)]
        self.degrees = [mask.bit_count() for mask in self.out_mask]

        shift = self.shift
        side1 = side + 1
        packed: List[List[int]] = []
        for axis in range(dimension):
            axis_steps = [
                (1 << k, steps[k])
                for k, direction in enumerate(self.directions)
                if direction.axis == axis
            ]
            # hops[a][b]: shortest path from a to b over the probed
            # steps, one breadth-first search per start coordinate.
            hops = [[-1] * side1 for _ in range(side1)]
            for here in range(1, side1):
                row = hops[here]
                row[here] = 0
                frontier = [here]
                while frontier:
                    following = []
                    for c in frontier:
                        for _, reached in axis_steps:
                            r = reached[c]
                            if r is not None and row[r] < 0:
                                row[r] = row[c] + 1
                                following.append(r)
                    frontier = following
            table = [0] * (side1 * side1)
            for here in range(1, side1):
                row = hops[here]
                moves = [
                    (bit, hops[r])
                    for bit, reached in axis_steps
                    if (r := reached[here]) is not None
                ]
                offset = here * side1
                for there in range(1, side1):
                    distance = row[there]
                    mask = 0
                    for bit, after in moves:
                        if after[there] < distance:
                            mask |= bit
                    table[offset + there] = (distance << shift) | mask
            packed.append(table)
        self.packed = packed

        #: Opaque cache slot for array backends (e.g. numpy views of
        #: the lists above).  The mesh layer never touches it.
        self.backend_views: Optional[Dict[str, Any]] = None


#: Upper bound on the number of shapes the process-wide table cache
#: retains.  A campaign sweeping many topologies touches one
#: :class:`ArcTables` per distinct ``(type, dimension, side)`` shape;
#: each table holds ``O(N * d)`` integers, which for large meshes is
#: megabytes.  32 shapes is far beyond what any single sweep interleaves
#: (campaign workers sort cases so same-shape cases run consecutively)
#: while keeping worst-case retention bounded.  Read at call time so
#: tests can shrink it via monkeypatch.
TABLE_CACHE_LIMIT = 32

#: Process-wide table cache.  Tables are pure derived data keyed by the
#: topology shape, so sharing them across mesh instances is safe and
#: keeps repeated engine construction (benchmark loops, sweeps) from
#: rebuilding ``O(N * d)`` tables every run.  Ordered for LRU eviction:
#: least-recently-used shape is dropped once more than
#: :data:`TABLE_CACHE_LIMIT` shapes are live.
_TABLE_CACHE: "OrderedDict[Tuple[type, int, int], ArcTables]" = OrderedDict()


def arc_tables_for(mesh: "Mesh") -> ArcTables:
    """The shared :class:`ArcTables` for a mesh's shape (LRU-cached)."""
    key = (type(mesh), mesh.dimension, mesh.side)
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        tables = ArcTables(mesh)
        _TABLE_CACHE[key] = tables
    else:
        _TABLE_CACHE.move_to_end(key)
    while len(_TABLE_CACHE) > TABLE_CACHE_LIMIT:
        _TABLE_CACHE.popitem(last=False)
    return tables
