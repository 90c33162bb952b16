"""The flat arc-index tables must agree with the mesh's own queries.

:class:`~repro.mesh.tables.ArcTables` is the array kernels' only view
of the topology, so every column is checked against the object-layer
methods it replaces: node numbering against :meth:`Mesh.nodes`,
``neighbor_flat`` against :meth:`Mesh.neighbor` (including off-mesh
arcs on the box mesh and wraparound on the torus), and the per-axis
packed tables against :meth:`Mesh.distance` and
:meth:`Mesh.good_directions_tuple` for arbitrary node/destination
pairs.  A brute-force reference (a node-by-node probe of those same
methods) pins every attribute exactly, and a call-counting mesh pins
that the tables come from one per-axis probe.
"""

import itertools
import random

import pytest

from repro.mesh.directions import Direction
from repro.mesh.hypercube import Hypercube
from repro.mesh.tables import ArcTables, arc_tables_for, direction_index
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus

# Odd and even torus sides behave differently at the wrap seam, so
# both appear; Mesh(3, 3) exercises the packing beyond two axes, the
# 1-D shapes a single axis, and the 4-D+ shapes long strides.
MESHES = [
    Mesh(1, 7),
    Mesh(2, 5),
    Mesh(3, 3),
    Mesh(4, 3),
    Mesh(5, 3),
    Torus(1, 5),
    Torus(2, 4),
    Torus(2, 5),
    Hypercube(1),
    Hypercube(3),
    Hypercube(6),
]


def _ids(meshes):
    return [f"{type(m).__name__}-{m.dimension}d-{m.side}" for m in meshes]


IDS = _ids(MESHES)

# Every family at d = 1 and beyond, both torus parities.
REFERENCE_MESHES = [
    Mesh(1, 7),
    Mesh(2, 5),
    Mesh(3, 4),
    Mesh(4, 3),
    Mesh(5, 3),
    Torus(1, 5),
    Torus(2, 4),
    Torus(2, 7),
    Torus(3, 4),
    Torus(3, 5),
    Hypercube(1),
    Hypercube(6),
]
REFERENCE_IDS = _ids(REFERENCE_MESHES)

ATTRIBUTES = [
    "dimension",
    "side",
    "num_nodes",
    "num_directions",
    "shift",
    "good_mask_all",
    "directions",
    "index_node",
    "node_index",
    "neighbor_flat",
    "out_mask",
    "degrees",
    "coords",
    "packed",
    "backend_views",
]


def _reference_tables(mesh):
    """Every table attribute, probed node by node through the mesh's
    own methods: ``neighbor`` for every node and direction, ``distance``
    and ``good_directions_tuple`` for every pair of nodes that differ
    in one coordinate."""
    dimension, side = mesh.dimension, mesh.side
    shift = 2 * dimension
    directions = mesh.directions
    nodes = list(mesh.nodes())
    node_index = {node: index for index, node in enumerate(nodes)}
    neighbor_flat, out_mask, degrees = [], [], []
    for node in nodes:
        mask = 0
        for k, direction in enumerate(directions):
            other = mesh.neighbor(node, direction)
            if other is None:
                neighbor_flat.append(-1)
            else:
                neighbor_flat.append(node_index[other])
                mask |= 1 << k
        out_mask.append(mask)
        degrees.append(mask.bit_count())
    base = nodes[0]
    packed = []
    for axis in range(dimension):
        table = [0] * ((side + 1) ** 2)
        for here in range(1, side + 1):
            probe = base[:axis] + (here,) + base[axis + 1 :]
            for there in range(1, side + 1):
                target = base[:axis] + (there,) + base[axis + 1 :]
                mask = 0
                for direction in mesh.good_directions_tuple(probe, target):
                    mask |= 1 << direction_index(direction)
                table[here * (side + 1) + there] = (
                    mesh.distance(probe, target) << shift
                ) | mask
        packed.append(table)
    return {
        "dimension": dimension,
        "side": side,
        "num_nodes": len(nodes),
        "num_directions": 2 * dimension,
        "shift": shift,
        "good_mask_all": (1 << shift) - 1,
        "directions": directions,
        "index_node": nodes,
        "node_index": node_index,
        "neighbor_flat": neighbor_flat,
        "out_mask": out_mask,
        "degrees": degrees,
        "coords": [[node[axis] for node in nodes] for axis in range(dimension)],
        "packed": packed,
        "backend_views": None,
    }


def _fresh(mesh):
    """A new mesh of the same shape, with empty memo caches."""
    if isinstance(mesh, Hypercube):
        return Hypercube(mesh.dimension)
    return type(mesh)(mesh.dimension, mesh.side)


class _CountingMesh:
    """Counts a mesh's ``neighbor``, ``distance`` and
    ``good_directions_tuple`` calls by shadowing them on the instance."""

    def __init__(self, mesh):
        self.calls = {"neighbor": 0, "distance": 0, "good_directions_tuple": 0}
        for name in self.calls:
            setattr(mesh, name, self._counted(name, getattr(mesh, name)))

    def _counted(self, name, method):
        def wrapper(*args):
            self.calls[name] += 1
            return method(*args)

        return wrapper


def _pairs(mesh, count=60, seed=7):
    rng = random.Random(seed)
    nodes = list(mesh.nodes())
    exhaustive = len(nodes) ** 2 <= count
    if exhaustive:
        return list(itertools.product(nodes, nodes))
    return [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(count)
    ]


class TestReferenceEquivalence:
    @pytest.mark.parametrize("mesh", REFERENCE_MESHES, ids=REFERENCE_IDS)
    def test_every_attribute_equals_the_reference(self, mesh):
        tables = ArcTables(mesh)
        reference = _reference_tables(_fresh(mesh))
        assert sorted(vars(tables)) == sorted(ATTRIBUTES)
        for name in ATTRIBUTES:
            assert getattr(tables, name) == reference[name], name


class TestPerAxisProbe:
    @pytest.mark.parametrize("mesh", REFERENCE_MESHES, ids=REFERENCE_IDS)
    def test_probes_one_axis_line_and_leaves_memos_empty(self, mesh):
        probed = _fresh(mesh)
        counter = _CountingMesh(probed)
        ArcTables(probed)
        assert counter.calls["neighbor"] <= 2 * mesh.dimension * mesh.side
        assert counter.calls["distance"] == 0
        assert counter.calls["good_directions_tuple"] == 0
        assert probed._good_cache == {}
        assert probed._arc_cache == {}

    def test_off_axis_step_is_rejected(self):
        class Skewed(Mesh):
            def neighbor(self, node, direction):
                moved = super().neighbor(node, direction)
                if moved is None or direction.axis != 0:
                    return moved
                return (moved[0], 1 + moved[1] % self.side)

        with pytest.raises(ValueError, match="per-axis steps"):
            ArcTables(Skewed(2, 4))


class TestDirectionIndex:
    def test_axis_major_plus_before_minus(self):
        assert direction_index(Direction(0, 1)) == 0
        assert direction_index(Direction(0, -1)) == 1
        assert direction_index(Direction(2, 1)) == 4
        assert direction_index(Direction(2, -1)) == 5

    @pytest.mark.parametrize("mesh", MESHES, ids=IDS)
    def test_opposite_is_xor_one(self, mesh):
        tables = ArcTables(mesh)
        for k, direction in enumerate(tables.directions):
            assert direction_index(direction) == k
            assert direction_index(direction.opposite) == k ^ 1


class TestNodeNumbering:
    @pytest.mark.parametrize("mesh", MESHES, ids=IDS)
    def test_index_node_is_nodes_order(self, mesh):
        tables = ArcTables(mesh)
        assert tables.index_node == list(mesh.nodes())
        assert tables.num_nodes == mesh.num_nodes
        for index, node in enumerate(tables.index_node):
            assert tables.node_index[node] == index

    @pytest.mark.parametrize("mesh", MESHES, ids=IDS)
    def test_coords_column_matches_node_tuples(self, mesh):
        tables = ArcTables(mesh)
        for axis in range(mesh.dimension):
            assert tables.coords[axis] == [
                node[axis] for node in tables.index_node
            ]


class TestAdjacencyColumns:
    @pytest.mark.parametrize("mesh", MESHES, ids=IDS)
    def test_neighbor_flat_matches_mesh_neighbor(self, mesh):
        tables = ArcTables(mesh)
        two_d = tables.num_directions
        for index, node in enumerate(tables.index_node):
            for k, direction in enumerate(tables.directions):
                other = mesh.neighbor(node, direction)
                entry = tables.neighbor_flat[index * two_d + k]
                if other is None:
                    assert entry == -1
                else:
                    assert tables.index_node[entry] == other

    @pytest.mark.parametrize("mesh", MESHES, ids=IDS)
    def test_out_mask_and_degrees_match_mesh_degree(self, mesh):
        tables = ArcTables(mesh)
        for index, node in enumerate(tables.index_node):
            mask = tables.out_mask[index]
            assert tables.degrees[index] == mesh.degree(node)
            assert mask.bit_count() == mesh.degree(node)
            for k, direction in enumerate(tables.directions):
                present = mesh.neighbor(node, direction) is not None
                assert bool(mask & (1 << k)) == present

    def test_box_mesh_boundary_arcs_are_off_mesh(self):
        tables = ArcTables(Mesh(2, 5))
        corner = tables.node_index[(1, 1)]
        two_d = tables.num_directions
        # (1, 1) has no -x / -y neighbors (indices 1 and 3).
        assert tables.neighbor_flat[corner * two_d + 1] == -1
        assert tables.neighbor_flat[corner * two_d + 3] == -1
        assert tables.degrees[corner] == 2

    def test_torus_wraps_where_box_mesh_ends(self):
        tables = ArcTables(Torus(2, 4))
        corner = tables.node_index[(1, 1)]
        two_d = tables.num_directions
        assert (
            tables.index_node[tables.neighbor_flat[corner * two_d + 1]]
            == (4, 1)
        )
        assert all(degree == 4 for degree in tables.degrees)


class TestPackedTables:
    @pytest.mark.parametrize("mesh", MESHES, ids=IDS)
    def test_packed_sum_reproduces_distance_and_goodness(self, mesh):
        tables = ArcTables(mesh)
        side1 = mesh.side + 1
        for node, dest in _pairs(mesh):
            acc = 0
            for axis in range(mesh.dimension):
                acc += tables.packed[axis][
                    node[axis] * side1 + dest[axis]
                ]
            good_mask = acc & tables.good_mask_all
            distance = acc >> tables.shift
            assert distance == mesh.distance(node, dest)
            expected_mask = 0
            for direction in mesh.good_directions_tuple(node, dest):
                expected_mask |= 1 << direction_index(direction)
            assert good_mask == expected_mask

    def test_torus_odd_side_has_unique_good_direction(self):
        # Odd side: the shorter way around is never a tie, so each
        # off-axis coordinate contributes exactly one good direction.
        mesh = Torus(2, 5)
        tables = ArcTables(mesh)
        for here in range(1, 6):
            for there in range(1, 6):
                if here == there:
                    continue
                entry = tables.packed[0][here * 6 + there]
                assert (entry & tables.good_mask_all).bit_count() == 1

    def test_torus_even_side_ties_give_two_good_directions(self):
        # Even side: opposite coordinates are equidistant both ways
        # around, so both directions on that axis are good.
        mesh = Torus(2, 4)
        tables = ArcTables(mesh)
        entry = tables.packed[0][1 * 5 + 3]  # 1 -> 3 on side 4
        assert (entry & tables.good_mask_all).bit_count() == 2
        assert entry >> tables.shift == 2


class TestCache:
    def test_same_shape_shares_tables(self):
        assert arc_tables_for(Mesh(2, 6)) is arc_tables_for(Mesh(2, 6))

    def test_distinct_shapes_get_distinct_tables(self):
        assert arc_tables_for(Mesh(2, 6)) is not arc_tables_for(Mesh(2, 7))
        # A torus is not a box mesh even at the same (dimension, side).
        assert arc_tables_for(Torus(2, 6)) is not arc_tables_for(Mesh(2, 6))

    def test_cached_tables_match_fresh_tables(self):
        mesh = Torus(2, 5)
        cached = arc_tables_for(mesh)
        fresh = ArcTables(mesh)
        assert cached.neighbor_flat == fresh.neighbor_flat
        assert cached.packed == fresh.packed
        assert cached.out_mask == fresh.out_mask

    def test_cache_evicts_least_recently_used_shape(self, monkeypatch):
        import repro.mesh.tables as tables_mod

        monkeypatch.setattr(tables_mod, "TABLE_CACHE_LIMIT", 2)
        tables_mod._TABLE_CACHE.clear()

        first = arc_tables_for(Mesh(2, 3))
        second = arc_tables_for(Mesh(2, 4))
        # Touch the first entry so the second becomes least recent.
        assert arc_tables_for(Mesh(2, 3)) is first
        # A third shape overflows the limit and evicts Mesh(2, 4).
        third = arc_tables_for(Mesh(2, 5))
        assert arc_tables_for(Mesh(2, 3)) is first
        assert arc_tables_for(Mesh(2, 5)) is third
        assert arc_tables_for(Mesh(2, 4)) is not second
        assert len(tables_mod._TABLE_CACHE) == tables_mod.TABLE_CACHE_LIMIT

    def test_cache_stays_within_documented_limit(self, monkeypatch):
        import repro.mesh.tables as tables_mod

        monkeypatch.setattr(tables_mod, "TABLE_CACHE_LIMIT", 3)
        tables_mod._TABLE_CACHE.clear()
        for side in range(3, 10):
            arc_tables_for(Mesh(2, side))
        assert len(tables_mod._TABLE_CACHE) == 3
