import copy
import hashlib
import json
import pickle
import random

import pytest

from dompack import (
    Graph,
    GraphError,
    VertexRangeError,
    VertexSet,
    all_graphs,
    all_trees,
    bipartition,
    emit_graph6,
    exact_domination,
    exact_packing,
    gen_chordal_bipartite,
    gen_distance_hereditary,
    gen_named,
    greedy_maximal_independent_set,
    is_dominating,
    is_packing,
    parse_graph6,
    random_min_degree4_planar,
    split_clique,
)
from dompack.generators import GenSpec, derive_seed, gen_gnp
from dompack.graph import _components


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
    assert len(a) == 3 and 2 in a and 5 not in a
    assert sorted(a.complement()) == [1, 3, 5, 6, 7]
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


@pytest.mark.parametrize("capacity", [0, -1, 513])
def test_vertex_set_capacity_is_in_range(capacity):
    # from_mask is the trusted constructor, but not for the capacity.
    for make in (VertexSet, lambda c: VertexSet.from_mask(c, 0)):
        with pytest.raises(GraphError, match=f"capacity must be in 1..512, got {capacity}"):
            make(capacity)


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
        lambda: p4.induced_subgraph(other),
    ]
    for call in calls:
        with pytest.raises(GraphError, match="capacity"):
            call()


def test_components():
    g = Graph(5, [(0, 1), (2, 3)])
    assert [g.component_mask(v) for v in range(5)] == [0b11, 0b11, 0b1100, 0b1100, 0b10000]
    assert not g.is_connected()
    assert gen_named("C5").is_connected()


def test_component_walk_starts_at_root_then_takes_the_lowest_vertex_left():
    # Four components, 2 isolated, root 5 in the second by lowest vertex:
    # {5} {1, 8} {6}, then {0} {4}, then {2}, then {3} {7} {9}.
    g = Graph(10, [(0, 4), (1, 5), (5, 8), (1, 6), (3, 7), (7, 9)])
    walk = [[mask_members(g, layer) for layer in layers] for layers in _components(g._adj, 5)]
    assert walk == [[[5], [1, 8], [6]], [[0], [4]], [[2]], [[3], [7], [9]]]


def test_component_walk_layers_are_bfs_distances():
    # networkx's shortest paths are the oracle: layer i of a component holds
    # exactly the vertices at distance i from that component's first vertex.
    import networkx as nx

    for i in range(40):
        seed = derive_seed(2705, i)
        g = gen_gnp(GenSpec("gnp", 2 + i, seed, {"edge_prob": 1.5 / (2 + i)}))
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        root = random.Random(seed).randrange(g.n)
        seen = []
        for layers in _components(g._adj, root):
            first = mask_members(g, layers[0])
            assert first == [root if not seen else min(set(range(g.n)) - set(seen))]
            dist = nx.single_source_shortest_path_length(h, first[0])
            assert [mask_members(g, layer) for layer in layers] == [
                sorted(v for v, d in dist.items() if d == depth) for depth in range(len(layers))
            ]
            seen += dist
        assert sorted(seen) == list(range(g.n))


def builder_pin_rows():
    """(name, thunk) for every path from masks to a Graph: graph6 parsing of
    every graph on <= 7 and every tree on <= 12 vertices, `all_graphs`,
    distance-hereditary growth (n <= 40), `split_clique` on both sides of each
    bipartite graph on <= 7 vertices and of chordal-bipartite draws (n <= 16)
    and on one seeded side of every graph on <= 7 (most are errors), seeded
    induced subgraphs of G(n, p) draws (n <= 40) and min-degree-4 planar cores."""
    corpus = [g for n in range(1, 8) for g in all_graphs(n)]
    for g in corpus + [t for n in range(1, 13) for t in all_trees(n)]:
        yield "graph6", lambda text=emit_graph6(g): parse_graph6(text)
    for g in corpus:
        yield "all_graphs", lambda g=g: g
    for i in range(40):
        spec = GenSpec("distance-hereditary", 1 + i, derive_seed(2700, i))
        yield "dh", lambda spec=spec: gen_distance_hereditary(spec)
    draws = [
        gen_chordal_bipartite(GenSpec("chordal-bipartite", 2 + i % 15, derive_seed(2701, i)))
        for i in range(30)
    ]
    for i, g in enumerate(corpus + draws):
        try:
            sides = bipartition(g)
        except GraphError:
            sides = ()
        for side in sides:
            yield "split", lambda g=g, side=side: split_clique(g, side)
        rng = random.Random(derive_seed(2702, i))
        side = VertexSet(g.n, [v for v in range(g.n) if rng.random() < 0.5])
        yield "split", lambda g=g, side=side: split_clique(g, side)
    for i in range(60):
        seed = derive_seed(2703, i)
        g = gen_gnp(GenSpec("gnp", 1 + i * 39 // 59, seed, {"edge_prob": 0.3}))
        rng = random.Random(seed)
        keep = VertexSet(g.n, rng.sample(range(g.n), rng.randint(1, g.n)))
        yield "induced", lambda g=g, keep=keep: g.induced_subgraph(keep)
    for i in range(6):
        yield "md4", lambda i=i: random_min_degree4_planar(derive_seed(2704, i), 8 + 4 * i)


# sha256 of builder_pin_rows' (n, m, edges) or GraphError text: building a
# graph straight from masks must give the very same graphs and errors.
PINNED_BUILDER_SHA256 = "3a5c5ffcded006555e959d27c375a0fc1bfa4ca60525c4440779f1f4730cda19"


def test_graph_builders_are_pinned():
    digest = hashlib.sha256()
    for name, build in builder_pin_rows():
        try:
            g = build()
            out = [g.n, g.m, g.edges()]
            rebuilt = Graph(g.n, g.edges())
            assert g == rebuilt and g.closed_masks == rebuilt.closed_masks
        except GraphError as exc:
            out = str(exc)
        digest.update(json.dumps([name, out]).encode())
    assert digest.hexdigest() == PINNED_BUILDER_SHA256
