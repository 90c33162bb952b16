"""Unit tests for the greedy matching template and deflection rules."""

import copy
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    ClosestFirstPolicy,
    DestinationOrderPolicy,
    FewestGoodDirectionsPolicy,
    FixedPriorityPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
    RandomRankPolicy,
    RestrictedPriorityPolicy,
)
from repro.algorithms.base import (
    DEFLECTION_RULES,
    TIE_BREAKS,
    GreedyMatchingPolicy,
    deflect,
)
from repro.core.engine import route
from repro.core.matching import priority_maximum_matching
from repro.core.node_view import NodeView
from repro.core.packet import Packet
from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.workloads import random_many_to_many

#: GreedyMatchingPolicy and every subclass the library ships.
MATCHING_POLICIES = (
    GreedyMatchingPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
    RestrictedPriorityPolicy,
    DestinationOrderPolicy,
    ClosestFirstPolicy,
    FewestGoodDirectionsPolicy,
    FixedPriorityPolicy,
    RandomRankPolicy,
)


class TestConstruction:
    def test_rejects_unknown_tie_break(self):
        with pytest.raises(ValueError):
            GreedyMatchingPolicy(tie_break="alphabetical")

    def test_rejects_unknown_deflection(self):
        with pytest.raises(ValueError):
            GreedyMatchingPolicy(deflection="bounce")

    def test_repr(self):
        policy = GreedyMatchingPolicy(tie_break="random", deflection="reverse")
        assert "random" in repr(policy)
        assert "reverse" in repr(policy)

    def test_declarations(self):
        policy = GreedyMatchingPolicy()
        assert policy.declares_greedy
        assert policy.declares_max_advance


class TestAssign:
    def _view(self, entries, node=None):
        mesh = Mesh(2, 6)
        node = node or entries[0][0]
        packets = [
            Packet(id=i, source=s, destination=d)
            for i, (s, d) in enumerate(entries)
        ]
        return NodeView(mesh, node, 0, packets), packets

    def test_lone_packet_advances(self):
        view, packets = self._view([((2, 2), (2, 5))])
        policy = GreedyMatchingPolicy()
        policy.prepare(view.mesh, None, random.Random(0))
        assignment = policy.assign(view)
        assert assignment[0] == Direction(1, 1)

    def test_maximum_matching_advances_both(self):
        # One flexible + one restricted wanting the same arc: the
        # flexible one is rerouted so both advance.
        view, _ = self._view([((3, 3), (5, 5)), ((3, 3), (3, 6))])
        policy = GreedyMatchingPolicy()
        policy.prepare(view.mesh, None, random.Random(0))
        assignment = policy.assign(view)
        assert assignment[1] == Direction(1, 1)  # restricted keeps east
        assert assignment[0] == Direction(0, 1)  # flexible rerouted south

    def test_full_node_all_assigned_distinct(self):
        entries = [
            ((3, 3), (1, 1)),
            ((3, 3), (6, 6)),
            ((3, 3), (3, 6)),
            ((3, 3), (6, 3)),
        ]
        view, _ = self._view(entries)
        policy = GreedyMatchingPolicy()
        policy.prepare(view.mesh, None, random.Random(0))
        assignment = policy.assign(view)
        assert len(assignment) == 4
        assert len(set(assignment.values())) == 4


class TestDeflectRules:
    def _setup(self):
        mesh = Mesh(2, 6)
        packet = Packet(id=0, source=(3, 3), destination=(3, 6))
        packet.entry_direction = Direction(0, 1)  # entered moving south
        view = NodeView(mesh, (3, 3), 1, [packet])
        free = [Direction(0, 1), Direction(0, -1), Direction(1, -1)]
        return view, packet, free

    def test_ordered_takes_first_free(self):
        view, packet, free = self._setup()
        result = deflect("ordered", view, [packet], free, random.Random(0))
        assert result[0] == free[0]

    def test_reverse_prefers_back_arc(self):
        view, packet, free = self._setup()
        result = deflect("reverse", view, [packet], free, random.Random(0))
        assert result[0] == Direction(0, -1)  # back where it came from

    def test_reverse_falls_back_when_back_taken(self):
        view, packet, free = self._setup()
        free = [Direction(0, 1), Direction(1, -1)]  # no north
        result = deflect("reverse", view, [packet], free, random.Random(0))
        assert result[0] in free

    def test_random_is_seed_dependent_but_valid(self):
        view, packet, free = self._setup()
        outcomes = {
            deflect("random", view, [packet], free, random.Random(s))[0]
            for s in range(20)
        }
        assert outcomes <= set(free)
        assert len(outcomes) > 1  # actually random

    def test_unknown_rule_rejected(self):
        view, packet, free = self._setup()
        with pytest.raises(ValueError):
            deflect("zigzag", view, [packet], free, random.Random(0))

    def test_all_rules_route_a_real_batch(self, mesh8):
        for rule in DEFLECTION_RULES:
            problem = random_many_to_many(mesh8, k=60, seed=60)
            policy = GreedyMatchingPolicy(deflection=rule)
            result = route(problem, policy, seed=60)
            assert result.completed, f"deflection rule {rule} failed"

    def test_both_tie_breaks_route_a_real_batch(self, mesh8):
        for tie in ("id", "random"):
            problem = random_many_to_many(mesh8, k=60, seed=61)
            policy = GreedyMatchingPolicy(tie_break=tie)
            result = route(problem, policy, seed=61)
            assert result.completed


def _library_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _library_subclasses(sub)


def _state_without_rng(policy):
    return {k: v for k, v in vars(policy).items() if k != "_rng"}


def _make_policy(cls, tie_break, deflection):
    # Pass only the options a constructor takes: RandomRankPolicy fixes
    # its tie-break and RandomizedGreedyPolicy fixes both.
    accepted = inspect.signature(cls).parameters
    options = {"tie_break": tie_break, "deflection": deflection}
    return cls(**{k: v for k, v in options.items() if k in accepted})


def _full_template(policy, view):
    """The matching template without any lone-packet shortcut: priority
    order, maximum matching, then the deflection rule."""
    ordered = policy._ordered_packets(view)
    adjacency = {
        packet.id: list(view.good_directions(packet))
        for packet in view.packets
    }
    matching = priority_maximum_matching(
        adjacency, [packet.id for packet in ordered]
    )
    used = set(matching.values())
    free = [d for d in view.out_directions if d not in used]
    unmatched = [p for p in ordered if p.id not in matching]
    expected = dict(matching)
    expected.update(deflect(policy.deflection, view, unmatched, free, policy._rng))
    return expected


@st.composite
def _lone_packet_views(draw):
    mesh = draw(
        st.sampled_from([Mesh(2, 2), Mesh(2, 5), Torus(2, 4), Mesh(3, 3)])
    )
    nodes = list(mesh.nodes())
    node = draw(st.sampled_from(nodes))
    k = draw(st.integers(min_value=1, max_value=6))
    problem = random_many_to_many(
        mesh, k=k, seed=draw(st.integers(min_value=0, max_value=2**16))
    )
    # Ids past the batch are "late" packets: RandomRankPolicy draws
    # their rank from its RNG on first sight, inside priority_key.
    packet = Packet(
        id=draw(st.integers(min_value=0, max_value=2 * k)),
        source=node,
        destination=draw(st.sampled_from(nodes)),
    )
    packet.entry_direction = draw(
        st.sampled_from((None,) + mesh.node_arcs(node).out_directions)
    )
    packet.restricted_last_step = draw(st.booleans())
    packet.advanced_last_step = draw(st.booleans())
    view = NodeView(mesh, node, draw(st.integers(0, 50)), [packet])
    return problem, view


class TestLonePacket:
    def test_policy_list_covers_every_library_subclass(self):
        assert set(_library_subclasses(GreedyMatchingPolicy)) <= set(
            MATCHING_POLICIES
        )

    @settings(max_examples=200, deadline=None)
    @given(
        instance=_lone_packet_views(),
        cls=st.sampled_from(MATCHING_POLICIES),
        tie_break=st.sampled_from(TIE_BREAKS),
        deflection=st.sampled_from(DEFLECTION_RULES),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_assign_equals_full_template(
        self, instance, cls, tie_break, deflection, seed
    ):
        problem, view = instance
        policy = _make_policy(cls, tie_break, deflection)
        policy.prepare(view.mesh, problem, random.Random(seed))
        reference = copy.deepcopy(policy)
        assert policy.assign(view) == _full_template(reference, view)
        assert policy._rng.getstate() == reference._rng.getstate()
        # Any other state a subclass keeps (RandomRankPolicy's ranks).
        assert _state_without_rng(policy) == _state_without_rng(reference)
