import hashlib
import json
import random
from itertools import combinations

import elimination_reference
import networkx as nx
import pytest
from homogeneous_reference import (
    h_extremal_witness,
    homogeneous_ordering,
    is_homogeneous,
    is_homogeneous_ordering,
)

from dompack import (
    Graph,
    GraphError,
    VertexSet,
    bipartition,
    emit_graph6,
    exact_domination,
    exact_packing,
    find_h_extremal_witness,
    find_homogeneous_ordering,
    find_simple_elimination_ordering,
    gen_named,
    is_chordal_bipartite,
    is_tree,
    split_clique,
    validate_simple_elimination_ordering,
)
from dompack import recognition
from dompack.generators import (
    GenSpec,
    all_graphs,
    derive_seed,
    gen_chordal_bipartite,
    gen_distance_hereditary,
    gen_gnp,
    gen_interval,
    gen_tree,
)
from dompack.planar import random_planar
from dompack.recognition import _h_extremal, _passes_characterisation, _square_cliques


def has_long_chordless_cycle(g):
    """Oracle: some induced subgraph on >= 6 vertices is a full cycle."""
    for k in range(6, g.n + 1):
        for combo in combinations(range(g.n), k):
            sub = g.induced_subgraph(VertexSet(g.n, combo))
            if sub.is_connected() and all(sub.degree(v) == 2 for v in range(sub.n)):
                return True
    return False


def is_bipartite(g):
    try:
        bipartition(g)
        return True
    except GraphError:
        return False


def test_is_tree():
    assert is_tree(gen_named("P5"))
    assert not is_tree(gen_named("C4"))
    assert not is_tree(Graph(4, [(0, 1), (2, 3)]))


def test_is_homogeneous():
    c4 = gen_named("C4")
    assert is_homogeneous(c4, VertexSet(4, [0, 2]))
    assert not is_homogeneous(c4, VertexSet(4, [0, 1]))
    assert is_homogeneous(c4, VertexSet(4, [3]))
    with pytest.raises(GraphError):
        is_homogeneous(c4, VertexSet(4, []))


def test_h_extremal_witness_examples():
    c4 = gen_named("C4")
    assert sorted(find_h_extremal_witness(c4, 0)) == [1, 3]

    k1 = gen_named("K1")
    assert sorted(find_h_extremal_witness(k1, 0)) == [0]

    p5 = gen_named("P5")
    assert find_h_extremal_witness(p5, 2) is None


def test_h_extremal_witness_validates():
    for i in range(40):
        g = gen_gnp(GenSpec("gnp", 4 + i % 8, derive_seed(1300, i), {"edge_prob": 0.35}))
        for v in range(g.n):
            d = find_h_extremal_witness(g, v)
            if d is None:
                continue
            assert d.mask & ~g.closed_masks[v] == 0
            assert is_homogeneous(g, d)
            covered = d.mask
            for u in d:
                covered |= g.closed_masks[u]
            assert g.second_masks[v] & ~covered == 0


def test_h_extremal_degree_cap():
    # No degree cap: the centre of a star with 25 leaves is h-extremal.
    star = gen_named("star25")
    witness = find_h_extremal_witness(star, 0)
    assert witness is not None and witness.mask & ~star.closed_masks[0] == 0


def test_h_extremal_module_test_matches_subset_search():
    # Every (graph, vertex) pair on <= 6 vertices: the module test finds a
    # witness exactly where the exhaustive subset search does.
    pairs = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            full = (1 << n) - 1
            for v in range(n):
                expected = h_extremal_witness(g._adj, full, v) is not None
                assert (find_h_extremal_witness(g, v) is not None) == expected
                pairs += 1
    assert pairs == 1 + 2 * 2 + 3 * 4 + 4 * 11 + 5 * 34 + 6 * 156


def test_homogeneous_ordering_matches_backtracking():
    # Every graph on <= 7 vertices: the greedy accepts exactly the graphs the
    # exhaustive backtracking orders, and each ordering it returns passes the
    # reference h-extremal check.
    accepted = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            ordering = find_homogeneous_ordering(g)
            assert (ordering is None) == (homogeneous_ordering(g._adj, n) is None)
            if ordering is not None:
                assert is_homogeneous_ordering(g._adj, ordering)
                accepted += 1
    assert accepted == 814


def test_homogeneous_ordering_examples():
    c4 = gen_named("C4")
    ordering = find_homogeneous_ordering(c4)
    assert ordering is not None
    assert is_homogeneous_ordering(c4._adj, ordering)

    k1 = gen_named("K1")
    assert find_homogeneous_ordering(k1) == (0,)

    for i in range(20):
        t = gen_tree(GenSpec("tree", 2 + i % 9, derive_seed(1301, i)))
        ordering = find_homogeneous_ordering(t)
        assert ordering is not None
        assert is_homogeneous_ordering(t._adj, ordering)


def test_simple_elimination_examples():
    p4 = gen_named("P4")
    ordering = find_simple_elimination_ordering(p4)
    assert ordering is not None
    assert ordering[0] == 0  # leaf first
    assert validate_simple_elimination_ordering(p4, ordering)

    assert find_simple_elimination_ordering(gen_named("C6")) is None

    for i in range(25):
        g = gen_interval(GenSpec("interval", 3 + i % 18, derive_seed(1302, i)))
        ordering = find_simple_elimination_ordering(g)
        assert ordering is not None
        assert validate_simple_elimination_ordering(g, ordering)


def test_simple_elimination_matches_farber_characterisation():
    # Farber (Discrete Math. 43, 1983): strongly chordal iff chordal with no
    # induced k-sun.  On <= 7 vertices only the 3-sun (a triangle, each edge
    # with a private common neighbour) fits, so networkx decides every graph.
    sun = nx.Graph([(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])
    accepted = checked = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(n))
            farber = nx.is_chordal(h) and not any(
                nx.is_isomorphic(h.subgraph(six), sun) for six in combinations(range(n), 6)
            )
            assert (find_simple_elimination_ordering(g) is not None) == farber, g
            accepted += farber
            checked += 1
    assert (checked, accepted) == (1252, 520)


def test_validate_rejects_bad_orderings():
    c6 = gen_named("C6")
    assert not validate_simple_elimination_ordering(c6, tuple(range(6)))
    assert not validate_simple_elimination_ordering(gen_named("P4"), (0, 0, 1, 2))
    # P5's center is not h-extremal, so center-first fails
    assert not is_homogeneous_ordering(gen_named("P5")._adj, (2, 0, 1, 3, 4))


def test_split_clique_examples():
    c4 = gen_named("C4")
    a, b = bipartition(c4)
    diamond = split_clique(c4, a)
    assert diamond.m == 5

    star3 = gen_named("star3")
    leaves = VertexSet(4, [1, 2, 3])
    g = split_clique(star3, leaves)
    assert g.m == 6  # center joined to a triangle

    c6 = gen_named("C6")
    side, _ = bipartition(c6)
    assert split_clique(c6, side).m == 9  # three added edges

    # The error names the first edge of g.edges() inside either side.
    for members in ([0, 1], [2, 3]):
        with pytest.raises(GraphError, match=r"^\(0,1\) joins one side"):
            split_clique(c4, VertexSet(4, members))
    with pytest.raises(GraphError, match=r"^\(1,2\) joins one side"):
        split_clique(gen_named("K3"), VertexSet(3, [0]))


def test_split_clique_rejects_a_side_of_another_capacity():
    with pytest.raises(GraphError, match="capacity"):
        split_clique(gen_named("C4"), VertexSet(3, [0, 2]))


def test_chordal_bipartite_examples():
    assert is_chordal_bipartite(gen_named("C4"))
    assert not is_chordal_bipartite(gen_named("C6"))
    assert is_chordal_bipartite(gen_named("K3,3"))
    assert has_long_chordless_cycle(gen_named("C6"))  # oracle agrees
    assert not has_long_chordless_cycle(gen_named("K3,3"))


def test_chordal_bipartite_against_direct_definition():
    # Exhaustive over all bipartite graphs on <= 6 vertices, plus random
    # bipartite instances: the split-based recognizer must agree with the
    # chordless-long-cycle definition, from either side of the bipartition.
    checked = 0
    for n in range(2, 7):
        for g in all_graphs(n):
            if not is_bipartite(g):
                continue
            a, b = bipartition(g)
            via_a = find_simple_elimination_ordering(split_clique(g, a)) is not None
            via_b = find_simple_elimination_ordering(split_clique(g, b)) is not None
            direct = not has_long_chordless_cycle(g)
            assert via_a == via_b == direct
            checked += 1
    assert checked > 50

    import random

    for i in range(60):
        rng = random.Random(derive_seed(1303, i))
        na = rng.randrange(2, 6)
        nb = rng.randrange(2, 7)
        edges = [
            (u, na + v) for u in range(na) for v in range(nb) if rng.random() < 0.4
        ]
        g = Graph(na + nb, edges)
        a, b = bipartition(g)
        via_a = find_simple_elimination_ordering(split_clique(g, a)) is not None
        via_b = find_simple_elimination_ordering(split_clique(g, b)) is not None
        assert via_a == via_b == (not has_long_chordless_cycle(g))


def test_bipartition_sides_on_a_disconnected_graph():
    # Side A is each component's lowest vertex plus everything at even
    # distance from it: the path 0-1-2, the isolated 3, the path 4-6-5.
    g = Graph(7, [(0, 1), (1, 2), (4, 6), (6, 5)])
    a, b = bipartition(g)
    assert a == VertexSet(7, [0, 2, 3, 4, 5])
    assert b == VertexSet(7, [1, 6])


def test_bipartition_rejects_odd_cycles():
    with pytest.raises(GraphError):
        bipartition(gen_named("C5"))
    # the recognizer is a predicate: an odd cycle anywhere means False
    assert not is_chordal_bipartite(gen_named("K4"))
    assert not is_chordal_bipartite(gen_named("C5"))
    assert not is_chordal_bipartite(Graph(5, [(0, 1), (2, 3), (3, 4), (4, 2)]))


def test_eliminations_match_rescan_reference():
    # Kept local tests must not change a single choice: every graph on <= 6
    # vertices, the orderable graphs on 7 that h-extremality alone strands
    # (so find_homogeneous_ordering retries with the lookahead), then random
    # gnp, interval and distance-hereditary graphs up to n = 60, get the
    # rescan loop's orderings (None included).
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    stranded = [
        g for g in all_graphs(7)
        if _passes_characterisation(g._adj, (1 << 7) - 1)
        and elimination_reference.rescan_ordering(
            g._adj, lambda active, v, adj=g._adj: _h_extremal(adj, active, v)[0]
        ) is None
    ]
    assert len(stranded) == 33
    graphs += stranded
    for i in range(8):
        n = 8 + i * 52 // 7
        seed = derive_seed(1300, i)
        graphs.append(gen_gnp(GenSpec("gnp", n, seed, {"edge_prob": 0.2})))
        graphs.append(gen_interval(GenSpec("interval", n, seed, {"span": 0.15})))
        graphs.append(gen_distance_hereditary(GenSpec("distance-hereditary", n, seed)))
    orderable = 0
    for g in graphs:
        simple = find_simple_elimination_ordering(g)
        assert simple == elimination_reference.simple_elimination_ordering(g)
        ordering = find_homogeneous_ordering(g)
        assert ordering == elimination_reference.homogeneous_ordering(g)
        orderable += ordering is not None and g.n > 6
    assert orderable >= 16


def kernel_pin_corpus():
    """Every graph on <= 6 vertices, then seeded tree (n <= 50), interval
    (<= 40), chordal-bipartite split (<= 16), distance-hereditary (<= 14)
    and planar (<= 30) draws."""
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    for i in range(12):
        seed = derive_seed(2400, i)
        graphs.append(gen_tree(GenSpec("tree", 2 + i * 48 // 11, seed)))
        graphs.append(gen_interval(GenSpec("interval", 2 + i * 38 // 11, seed)))
        cb = gen_chordal_bipartite(GenSpec("chordal-bipartite", 4 + i * 12 // 11, seed))
        graphs.append(split_clique(cb, bipartition(cb)[0]))
        graphs.append(gen_distance_hereditary(GenSpec("distance-hereditary", 2 + i, seed)))
        n = 4 + i * 26 // 11
        graphs.append(random_planar(seed, n, 2 * n - 2))
    return graphs


# sha256 of kernel_pin_corpus' simple elimination and homogeneous orderings,
# `_square_cliques` output (or its GraphError text), and both solvers'
# (value, sorted witness, nodes_explored) with no X and with one seeded X:
# a faster kernel must make every choice and tie-break the same.
PINNED_KERNEL_SHA256 = "0579ac83bae59d530acca3163ed338ea38ac1e4bf34be3c492be44d6a62928a1"


def test_kernel_outputs_are_pinned():
    digest = hashlib.sha256()
    for i, g in enumerate(kernel_pin_corpus()):
        try:
            cliques = _square_cliques(g._adj, (1 << g.n) - 1)
        except GraphError as exc:
            cliques = str(exc)
        rng = random.Random(derive_seed(2401, i))
        x = VertexSet(g.n, rng.sample(range(g.n), g.n // 4))
        solves = [
            (r.value, sorted(r.witness.members()), r.nodes_explored)
            for r in (exact_domination(g), exact_packing(g),
                      exact_domination(g, x), exact_packing(g, x))
        ]
        row = [
            emit_graph6(g), find_simple_elimination_ordering(g),
            find_homogeneous_ordering(g), cliques, solves,
        ]
        digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == PINNED_KERNEL_SHA256


def test_local_tests_are_kept(monkeypatch):
    # How often _eliminate runs each local test, and the homogeneous
    # lookahead, over kernel_pin_corpus: exact on any machine.  Re-testing
    # every vertex within distance 2 of each removed one, running the
    # lookahead on a run that completes without it, or retrying a stranded
    # non-member, raises these totals.
    corpus = kernel_pin_corpus()
    calls = dict.fromkeys(("_simple_vertex", "_h_extremal", "_passes_characterisation"), 0)
    for name in calls:

        def counted(*args, name=name, test=getattr(recognition, name)):
            calls[name] += 1
            return test(*args)

        monkeypatch.setattr(recognition, name, counted)
    for g in corpus:
        find_simple_elimination_ordering(g)
        find_homogeneous_ordering(g)
    assert calls == {
        "_simple_vertex": 3259, "_h_extremal": 3644, "_passes_characterisation": 56,
    }
