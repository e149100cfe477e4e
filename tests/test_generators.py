import dataclasses
import hashlib
import itertools
import json
import pickle
import random
import subprocess
import sys

import pytest

from dompack import (
    GenerationBudgetError,
    GraphError,
    emit_graph6,
    exact_packing,
    find_homogeneous_ordering,
    find_simple_elimination_ordering,
    is_chordal_bipartite,
    is_tree,
)
from dompack import generators
from dompack.codec import _adjacency
from dompack.generators import (
    GenSpec,
    _automorphisms,
    _canonical_mask,
    all_graphs,
    all_trees,
    derive_seed,
    gen_chordal_bipartite,
    gen_chordal_bipartite_with_stats,
    gen_distance_hereditary,
    gen_interval,
    gen_named,
    gen_rook,
    gen_tree,
    generate,
)

# Non-isomorphic tree counts (n = 1..12) and graph counts (n = 1..7).
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
GRAPH_COUNTS = [1, 2, 4, 11, 34, 156, 1044]


def test_gen_tree_examples():
    assert gen_tree(GenSpec("tree", 1, 0)).n == 1
    g2 = gen_tree(GenSpec("tree", 2, 0))
    assert g2.m == 1
    g9 = gen_tree(GenSpec("tree", 9, 4242))
    assert g9.m == 8 and is_tree(g9)


def test_gen_tree_deterministic():
    spec = GenSpec("tree", 25, 987)
    assert gen_tree(spec).edges() == gen_tree(spec).edges()
    other = gen_tree(GenSpec("tree", 25, 988))
    assert other.edges() != gen_tree(spec).edges()


def test_gen_interval():
    g = gen_interval(GenSpec("interval", 20, 5))
    assert find_simple_elimination_ordering(g) is not None
    # tiny span: disjoint intervals, so (almost surely) no edges at all
    sparse = gen_interval(GenSpec("interval", 12, 5, {"span": 1e-9}))
    assert sparse.m == 0
    # huge span: heavily overlapping intervals
    dense = gen_interval(GenSpec("interval", 12, 5, {"span": 40.0}))
    assert dense.m > 50


def test_gen_chordal_bipartite(monkeypatch):
    g, attempts = gen_chordal_bipartite_with_stats(
        GenSpec("chordal-bipartite", 12, 31, {"edge_prob": 0.3})
    )
    assert attempts >= 1
    assert is_chordal_bipartite(g)
    assert gen_chordal_bipartite(GenSpec("chordal-bipartite", 12, 31, {"edge_prob": 0.3})).edges() == g.edges()
    with pytest.raises(GraphError):
        gen_chordal_bipartite(GenSpec("chordal-bipartite", 17, 0))
    # mid-density bipartite graphs on 16 vertices almost always contain a
    # chordless 6-cycle, so a 2-attempt budget runs out
    monkeypatch.setattr(generators, "_CB_ATTEMPTS", 2)
    with pytest.raises(GenerationBudgetError) as info:
        gen_chordal_bipartite(GenSpec("chordal-bipartite", 16, 0, {"edge_prob": 0.5}))
    assert info.value.attempts == 2
    copy = pickle.loads(pickle.dumps(info.value))
    assert (str(copy), copy.attempts) == (str(info.value), 2)


def test_gen_distance_hereditary():
    for i in range(15):
        g = gen_distance_hereditary(GenSpec("distance-hereditary", 3 + i % 12, derive_seed(1600, i)))
        assert find_homogeneous_ordering(g) is not None


def test_distance_hereditary_growth_keeps_the_vertex_cap():
    # Growth builds its graph straight from masks; that entry must still
    # refuse more than MAX_VERTICES vertices.
    with pytest.raises(GraphError, match="vertex count"):
        generate(GenSpec("distance-hereditary", 513, 0))


def test_gen_rook_examples():
    assert gen_rook(1, 1).n == 1
    c4ish = gen_rook(2, 2)
    assert c4ish.m == 4 and all(c4ish.degree(v) == 2 for v in range(4))
    r33 = gen_rook(3, 3)
    assert r33.n == 9 and all(r33.degree(v) == 4 for v in range(9))
    assert exact_packing(r33).value == 1  # diameter 2
    assert r33.second_masks == ((1 << 9) - 1,) * 9  # diameter 2, not 1: degree 4


def test_rook_specs_state_their_vertex_count():
    assert generate(GenSpec("rook", 6, 0, {"k": 2, "l": 3})).n == 6
    assert generate(GenSpec("rook", 1, 0)).n == 1
    for spec in (GenSpec("rook", 9, 1), GenSpec("rook", 9, 0, {"k": 3, "l": 4})):
        with pytest.raises(GraphError, match="rook"):
            generate(spec)


def test_named_specs_state_their_vertex_count():
    assert generate(GenSpec("named", 4, 0, {"name": "C4"})).n == 4
    assert generate(GenSpec("named", 12, 0, {"name": "icosahedron"})).n == 12
    for spec in (
        GenSpec("named", 5, 0, {"name": "C6"}),
        GenSpec("named", 6, 0, {"name": "K3,4"}),
        GenSpec("named", 5, 0, {"name": "star5"}),
    ):
        with pytest.raises(GraphError, match="named spec"):
            generate(spec)


def test_random_draws_are_pinned():
    # Replay of every GenSpec rests on these methods of random.Random, which
    # generators.py, planar.py and cli.py call (getrandbits is the primitive
    # under randrange, choice and sample).  CPython keeps only random()'s
    # sequence across versions, so a change in any other fails here by name
    # before it fails as a digest mismatch in some replay pin.
    seed = 2**63 + 2024
    rng = random.Random(seed)
    assert [rng.randrange(10) for _ in range(6)] == [1, 9, 2, 5, 2, 9]
    rng = random.Random(seed)
    assert [rng.randrange(4, 41) for _ in range(6)] == [11, 40, 12, 27, 13, 40]
    rng = random.Random(seed)
    ops = [rng.choice(("pendant", "true-twin", "false-twin")) for _ in range(4)]
    assert ops == ["pendant", "false-twin", "pendant", "false-twin"]
    rng = random.Random(seed)
    assert rng.sample(range(60), 6) == [7, 36, 8, 56, 47, 23]
    rng = random.Random(seed)
    assert [rng.random() for _ in range(3)] == [
        0.9610874959893644, 0.575857565746951, 0.876784740015538,
    ]
    rng = random.Random(seed)
    assert (rng.getrandbits(64), rng.getrandbits(7)) == (2230241031902319745, 73)


def test_gen_named():
    assert gen_named("C4").m == 4
    ico = gen_named("icosahedron")
    assert ico.n == 12 and ico.m == 30 and all(ico.degree(v) == 5 for v in range(12))
    octa = gen_named("octahedron")
    assert octa.n == 6 and all(octa.degree(v) == 4 for v in range(6))
    k33 = gen_named("K3,3")
    assert k33.m == 9
    assert gen_named("K_{3,3}").edges() == k33.edges()
    assert gen_named("star5").n == 6
    k03 = gen_named("K0,3")
    assert (k03.n, k03.m) == (3, 0)
    for name in ("zorb", "Cx", "K3,4,5"):
        with pytest.raises(GraphError, match="unknown named graph"):
            gen_named(name)
    # A negative side of K_{a,b} is no graph, not a smaller edgeless one.  A
    # name that parses but whose size is refused says why, not "unknown".
    for name, reason in (
        ("K3,-1", "sides need a, b >= 0"),
        ("K-1,4", "sides need a, b >= 0"),
        ("C2", "cycles need n >= 3"),
        ("P0", "vertex count must be in 1..512, got 0"),
    ):
        with pytest.raises(GraphError, match=reason):
            gen_named(name)
    with pytest.raises(GraphError):
        generate(GenSpec("named", 2, 0, {"name": "K3,-1"}))


def test_generate_dispatch_replay():
    specs = [
        GenSpec("tree", 12, 5),
        GenSpec("interval", 10, 6),
        GenSpec("chordal-bipartite", 10, 7),
        GenSpec("distance-hereditary", 9, 8),
        GenSpec("rook", 9, 0, {"k": 3, "l": 3}),
        GenSpec("gnp", 10, 9, {"edge_prob": 0.4}),
        GenSpec("named", 4, 0, {"name": "C4"}),
        GenSpec("planar", 12, 10, {"m": 20}),
        GenSpec("planar", 9, 11, {"m": 21}),
        GenSpec("min-degree-4-planar", 20, 12),
    ]
    for spec in specs:
        # a record stores dataclasses.asdict(spec) as JSON and replays GenSpec(**genspec)
        round_tripped = GenSpec(**json.loads(json.dumps(dataclasses.asdict(spec))))
        assert round_tripped == spec
        assert generate(round_tripped).edges() == generate(spec).edges()
    with pytest.raises(GraphError):
        generate(GenSpec("martian", 5, 0))


def test_derive_seed():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seen = {derive_seed(123, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(123, 0) != derive_seed(124, 0)


def test_all_trees_counts():
    for n in range(1, 11):
        assert len(all_trees(n)) == TREE_COUNTS[n - 1], n
    for t in all_trees(8):
        assert is_tree(t)


def test_all_graphs_counts():
    for n in range(1, 7):
        assert len(all_graphs(n)) == GRAPH_COUNTS[n - 1], n


@pytest.mark.parametrize("enumerate_level, n", [(all_graphs, 6), (all_trees, 9)])
def test_enumeration_returns_a_fresh_list_each_call(enumerate_level, n):
    # Each level is built once per process; callers still own what they get.
    first = enumerate_level(n)
    expected = list(first)
    first.clear()
    second = enumerate_level(n)
    assert second == expected and second is not enumerate_level(n)


def test_all_graphs_pairwise_nonisomorphic_n5():
    import networkx as nx

    graphs = [nx.Graph(g.edges()) for g in all_graphs(5)]
    for g in graphs:
        g.add_nodes_from(range(5))
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not nx.is_isomorphic(graphs[i], graphs[j])


def _brute_canonical(mask, n):
    """Minimum pair-mask over every relabeling in itertools.permutations."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]  # pair k is bit k
    bit = {pair: k for k, pair in enumerate(pairs)}
    return min(
        sum(
            1 << k
            for k, (i, j) in enumerate(pairs)
            if mask >> bit[tuple(sorted((perm[i], perm[j])))] & 1
        )
        for perm in itertools.permutations(range(n))
    )


def _edges_mask(edges):
    return sum(1 << (max(e) * (max(e) - 1) // 2 + min(e)) for e in edges)


def test_canonical_mask_matches_brute_force():
    cases = [(mask, n) for n in range(1, 6) for mask in range(1 << (n * (n - 1) // 2))]
    rng = random.Random(2014)
    cases += [(rng.getrandbits(15), 6) for _ in range(200)]
    cycle7 = _edges_mask([(i, (i + 1) % 7) for i in range(7)])  # many ties
    cases += [(0, 7), ((1 << 21) - 1, 7), (cycle7, 7)]
    # Twin-heavy cases, where the search tries one vertex per twin class.
    star6 = _edges_mask([(0, i) for i in range(1, 7)])
    k34 = _edges_mask([(i, j) for i in range(3) for j in range(3, 7)])
    k25_clique_side = _edges_mask([(i, j) for i in range(2) for j in range(2, 7)] + [(0, 1)])
    two_triangles = _edges_mask([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cases += [(star6, 7), (k34, 7), (k25_clique_side, 7), (two_triangles, 7)]
    for mask, n in cases:
        assert _canonical_mask(mask, n) == _brute_canonical(mask, n), (mask, n)


def test_all_graphs_representatives_pinned():
    # Any change to a representative, or to their order, changes the digest.
    graphs = [all_graphs(n) for n in range(1, 8)]
    assert [len(level) for level in graphs] == GRAPH_COUNTS
    text = "\n".join(emit_graph6(g) for level in graphs for g in level)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3f38f4458e7a0b07d4d97cb801e787b14451ec82260b28b8d6959ffa97fc99b6"
    )


def test_all_trees_representatives_pinned():
    # Any change to a tree representative, or to their order, changes the digest.
    trees = [all_trees(n) for n in range(1, 13)]
    assert [len(level) for level in trees] == TREE_COUNTS
    text = "\n".join(emit_graph6(t) for level in trees for t in level)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f2ab5261e60a0747c51c422d653ef796ea9215ca42798248a0bcd1983c2c6389"
    )


def _brute_automorphisms(mask, n):
    """Every relabeling in itertools.permutations that keeps each pair's bit."""

    def edge(i, j):
        i, j = min(i, j), max(i, j)
        return mask >> (j * (j - 1) // 2 + i) & 1

    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return sorted(
        perm
        for perm in itertools.permutations(range(n))
        if all(edge(i, j) == edge(perm[i], perm[j]) for i, j in pairs)
    )


def test_automorphisms_match_brute_force():
    cases = [(mask, n) for n in range(1, 6) for mask in range(1 << (n * (n - 1) // 2))]
    rng = random.Random(1998)
    cases += [(rng.getrandbits(15), 6) for _ in range(50)]
    for mask, n in cases:
        found = sorted(_automorphisms(_adjacency(mask, n)))
        assert found == _brute_automorphisms(mask, n), (mask, n)


def test_runtime_needs_no_numpy(src_env):
    script = """
import io, sys
import dompack, dompack.cli
from dompack.generators import all_graphs
assert len(all_graphs(6)) == 156
sys.stdin = io.StringIO("C~\\nEhEG\\n")
assert dompack.cli.main(["compute", "-", "--fractional"]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
assert "multiprocessing" not in sys.modules, "multiprocessing was imported"
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env
    )
    assert result.returncode == 0, result.stderr
