import copy
import pickle
import random

import pytest

from dompack import (
    Graph,
    GraphError,
    VertexRangeError,
    VertexSet,
    exact_domination,
    exact_packing,
    gen_named,
    greedy_maximal_independent_set,
    is_dominating,
    is_packing,
)
from dompack.generators import GenSpec, derive_seed, gen_gnp


def vs(g, *members):
    return VertexSet(g.n, members)


def mask_members(g, mask):
    return sorted(VertexSet.from_mask(g.n, mask))


def test_closed_neighborhood_examples():
    c4 = gen_named("C4")
    assert mask_members(c4, c4.closed_masks[0]) == [0, 1, 3]
    k1 = Graph(1)
    assert mask_members(k1, k1.closed_masks[0]) == [0]
    star = gen_named("star5")
    assert mask_members(star, star.closed_masks[0]) == [0, 1, 2, 3, 4, 5]


def test_second_closed_neighborhood_examples():
    c6 = gen_named("C6")
    assert mask_members(c6, c6.second_masks[0]) == [0, 1, 2, 4, 5]
    c4 = gen_named("C4")
    assert mask_members(c4, c4.second_masks[0]) == [0, 1, 2, 3]
    p5 = gen_named("P5")
    assert mask_members(p5, p5.second_masks[0]) == [0, 1, 2]


def test_is_dominating_examples():
    c4 = gen_named("C4")
    assert is_dominating(c4, vs(c4, 0, 2))
    assert not is_dominating(c4, vs(c4, 0))
    assert is_dominating(c4, vs(c4), VertexSet(4, range(4)))


def test_is_packing_examples():
    p5 = gen_named("P5")
    assert is_packing(p5, vs(p5, 0, 3))
    c4 = gen_named("C4")
    assert not is_packing(c4, vs(c4, 0, 2))
    assert not is_packing(c4, vs(c4, 0), vs(c4, 0))


def test_edit_errors():
    c4 = gen_named("C4")
    for query in (c4.degree, c4.adjacency_mask, c4.component_mask):
        with pytest.raises(VertexRangeError):
            query(4)
        with pytest.raises(VertexRangeError):
            query(-1)
    with pytest.raises(GraphError):
        c4.induced_subgraph(VertexSet(4))


def test_graph_construction_rejects_non_simple():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(0)
    with pytest.raises(GraphError):
        Graph(513)


def test_neighborhood_containment_invariant():
    for i in range(50):
        g = gen_gnp(GenSpec("gnp", 3 + i % 10, derive_seed(900, i), {"edge_prob": 0.4}))
        for v in range(g.n):
            nv, n2v = g.closed_masks[v], g.second_masks[v]
            assert (nv >> v) & (n2v >> v) & 1
            assert nv & ~n2v == 0


def test_packing_matches_pairwise_distance():
    # networkx's shortest paths are the independent oracle; a vertex another
    # cannot reach is missing from its distance map.
    import networkx as nx

    rng = random.Random(7)
    for i in range(80):
        g = gen_gnp(GenSpec("gnp", 4 + i % 9, derive_seed(901, i), {"edge_prob": 0.35}))
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        dist = dict(nx.all_pairs_shortest_path_length(h))
        chosen = [v for v in range(g.n) if rng.random() < 0.4]
        p = VertexSet(g.n, chosen)
        by_distance = all(
            dist[u].get(v, g.n) >= 3 for u in chosen for v in chosen if u < v
        )
        assert is_packing(g, p) == by_distance


def test_vertex_set_operations():
    a = VertexSet(8, [0, 2, 4])
    b = VertexSet(8, [2, 3])
    assert sorted(a | b) == [0, 2, 3, 4]
    assert sorted(a & b) == [2]
    assert sorted(a - b) == [0, 4]
    assert not (a & b) - a
    assert len(a) == 3 and 2 in a and 5 not in a
    assert sorted(a.complement()) == [1, 3, 5, 6, 7]
    with pytest.raises(GraphError):
        a | VertexSet(9, [1])
    with pytest.raises(VertexRangeError):
        VertexSet(4, [4])
    with pytest.raises(AttributeError):
        a.mask = 0


def test_vertex_set_is_a_frozen_value():
    a = VertexSet(8, [0, 2, 4])
    with pytest.raises(AttributeError):
        del a.mask
    assert a.mask == 0b10101
    assert hash(a) == hash((8, 0b10101))
    assert a != VertexSet(9, [0, 2, 4]) and a != 0b10101
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert copied == a and hash(copied) == hash(a)
        assert sorted(copied) == [0, 2, 4] and copied.capacity == 8
    # Results that hold a VertexSet copy and pickle too.
    result = exact_domination(gen_named("C5"))
    assert copy.deepcopy(result) == pickle.loads(pickle.dumps(result)) == result


@pytest.mark.parametrize("capacity", [6, 2])  # n + 2 and n - 2 on P4
def test_vertex_set_capacity_must_match_the_graph(capacity):
    # A set over another vertex range is a GraphError: not an IndexError, not
    # a check against the wrong graph, and not a greedy cover that never ends.
    p4 = gen_named("P4")
    other = VertexSet(capacity, [capacity - 1])
    own = VertexSet(4, [1])
    calls = [
        lambda: is_dominating(p4, other),
        lambda: is_dominating(p4, own, other),
        lambda: is_packing(p4, other),
        lambda: is_packing(p4, own, other),
        lambda: exact_packing(p4, other),
        lambda: greedy_maximal_independent_set(p4, other),
        lambda: exact_domination(p4, other),
    ]
    for call in calls:
        with pytest.raises(GraphError, match="capacity"):
            call()


def test_components():
    g = Graph(5, [(0, 1), (2, 3)])
    assert [g.component_mask(v) for v in range(5)] == [0b11, 0b11, 0b1100, 0b1100, 0b10000]
    assert not g.is_connected()
    assert gen_named("C5").is_connected()
