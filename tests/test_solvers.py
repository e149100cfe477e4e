import random
from fractions import Fraction
from itertools import combinations

import pytest

from dompack import (
    VertexSet,
    brute_force_domination,
    brute_force_packing,
    exact_domination,
    exact_packing,
    gen_named,
    gen_rook,
    greedy_domination,
    is_dominating,
    is_packing,
    max_ratio,
    maximal_packing_keyed,
)
from dompack.errors import GraphError
from dompack.generators import GenSpec, all_graphs, derive_seed, gen_gnp, gen_tree


def all_maximal_packings(g):
    """Oracle: filter all subsets for maximal packings."""
    out = []
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            p = VertexSet(g.n, combo)
            if not is_packing(g, p):
                continue
            extendable = any(
                v not in p and is_packing(g, p.add(v)) for v in range(g.n)
            )
            if not extendable:
                out.append(p)
    return out


def test_domination_examples():
    c4 = gen_named("C4")
    assert brute_force_domination(c4).value == 2  # oracle
    assert exact_domination(c4).value == 2
    assert exact_domination(c4, VertexSet.full(4)).value == 0
    assert len(exact_domination(c4, VertexSet.full(4)).witness) == 0

    rook = gen_rook(3, 3)
    assert brute_force_domination(rook).value == 3  # oracle: subsets of size <= 3
    assert exact_domination(rook).value == 3


def test_packing_examples():
    c4 = gen_named("C4")
    assert brute_force_packing(c4).value == 1
    assert exact_packing(c4).value == 1

    p7 = gen_named("P7")
    assert brute_force_packing(p7).value == 3  # oracle
    assert exact_packing(p7).value == 3
    assert is_packing(p7, VertexSet(7, [0, 3, 6]))

    assert brute_force_packing(c4, VertexSet(4, [0])).value == 1  # oracle
    assert exact_packing(c4, VertexSet(4, [0])).value == 1


def test_witnesses_validate():
    for i in range(60):
        g = gen_gnp(GenSpec("gnp", 3 + i % 10, derive_seed(1100, i), {"edge_prob": 0.35}))
        dom = exact_domination(g)
        pack = exact_packing(g)
        assert is_dominating(g, dom.witness) and len(dom.witness) == dom.value
        assert is_packing(g, pack.witness) and len(pack.witness) == pack.value
        assert dom.optimal and pack.optimal


def test_x_relativized_witnesses():
    rng = random.Random(5)
    for i in range(40):
        g = gen_gnp(GenSpec("gnp", 4 + i % 8, derive_seed(1101, i), {"edge_prob": 0.3}))
        x = VertexSet(g.n, [v for v in range(g.n) if rng.random() < 0.3])
        dom = exact_domination(g, x)
        pack = exact_packing(g, x)
        assert is_dominating(g, dom.witness, x)
        assert is_packing(g, pack.witness, x)
        assert dom.value == brute_force_domination(g, x).value
        assert pack.value == brute_force_packing(g, x).value


def test_x_monotonicity():
    # Enlarging X makes domination easier and packing harder.
    rng = random.Random(11)
    for i in range(40):
        g = gen_gnp(GenSpec("gnp", 4 + i % 8, derive_seed(1102, i), {"edge_prob": 0.3}))
        small = [v for v in range(g.n) if rng.random() < 0.25]
        extra = [v for v in range(g.n) if rng.random() < 0.25]
        x_small = VertexSet(g.n, small)
        x_big = VertexSet(g.n, set(small) | set(extra))
        assert exact_domination(g, x_big).value <= exact_domination(g, x_small).value
        assert exact_packing(g, x_big).value <= exact_packing(g, x_small).value


def test_degree_bound():
    # gamma <= max_degree * rho whenever there are no isolated vertices.
    for i in range(60):
        g = gen_gnp(GenSpec("gnp", 4 + i % 9, derive_seed(1103, i), {"edge_prob": 0.4}))
        if g.min_degree() == 0:
            continue
        assert exact_domination(g).value <= g.max_degree() * exact_packing(g).value


def test_greedy_examples():
    assert greedy_domination(gen_named("star5")).value == 1
    assert greedy_domination(gen_named("C4")).value == 2
    assert greedy_domination(gen_named("K7")).value == 1
    res = greedy_domination(gen_named("P7"))
    assert not res.optimal and is_dominating(gen_named("P7"), res.witness)


def test_max_ratio():
    assert max_ratio(gen_named("C4")) == Fraction(2)
    assert max_ratio(gen_tree(GenSpec("tree", 15, 3))) == Fraction(1)
    assert max_ratio(gen_rook(3, 3)) == Fraction(3)


def test_planar_ratio_three_exhibit():
    # Found by the extremal search command: a planar graph of diameter 2
    # (hence rho = 1) with gamma = 3, witnessing that the planar
    # domination/packing ratio reaches 3.
    import networkx as nx

    from dompack import parse_graph6

    g = parse_graph6("HEnBdHc")
    assert g.n == 9
    assert exact_packing(g).value == brute_force_packing(g).value == 1
    assert exact_domination(g).value == brute_force_domination(g).value == 3
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    assert nx.check_planarity(h)[0]


def test_solver_determinism():
    g = gen_gnp(GenSpec("gnp", 12, 99, {"edge_prob": 0.3}))
    first = exact_domination(g)
    second = exact_domination(g)
    assert first.witness == second.witness and first.value == second.value
    assert exact_packing(g).witness == exact_packing(g).witness


def test_small_graph_oracle_agreement():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert exact_domination(g).value == brute_force_domination(g).value
            assert exact_packing(g).value == brute_force_packing(g).value


def test_keyed_packing_index_sum():
    c6 = gen_named("C6")
    result = maximal_packing_keyed(c6, tuple(range(6)))
    assert sorted(result.packing) == [0, 3]
    # oracle: {0,3} is the unique index-sum minimizer among maximal packings
    sums = sorted(
        (sum(p), tuple(sorted(p))) for p in all_maximal_packings(c6)
    )
    assert sums[0] == (3, (0, 3))

    k1 = gen_named("K1")
    assert sorted(maximal_packing_keyed(k1, (0,)).packing) == [0]


def test_keyed_packing_argument_validation():
    g = gen_named("C4")
    with pytest.raises(TypeError):
        maximal_packing_keyed(g)
    for bad in ((0, 1, 2), (0, 1, 2, 2), (1, 2, 3, 4)):
        with pytest.raises(GraphError):
            maximal_packing_keyed(g, bad)
