import random
from fractions import Fraction

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
    parse_graph6,
    tree_dompack,
)
from dompack.generators import GenSpec, all_graphs, derive_seed, gen_gnp, gen_tree
from dompack.planar import random_planar


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


def milp_values(g, x):
    """Oracle: gamma_X and rho_X as 0/1 programs solved by scipy's HiGHS."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = g.n
    closed = np.array([[(g.closed_masks[v] >> u) & 1 for u in range(n)] for v in range(n)])
    in_x = np.array([(x.mask >> v) & 1 for v in range(n)])
    ones = np.ones(n)
    # Every vertex outside X has a dominator in its closed neighbourhood.
    dom = milp(ones, constraints=LinearConstraint(closed[in_x == 0], 1, np.inf),
               integrality=ones, bounds=Bounds(0, 1))
    # No closed neighbourhood holds two packing members; X holds none.
    pack = milp(-ones, constraints=LinearConstraint(closed, -np.inf, 1),
                integrality=ones, bounds=Bounds(0, 1 - in_x))
    assert dom.success and pack.success
    return round(dom.fun), round(-pack.fun)


def test_milp_oracle_past_brute_force():
    rng = random.Random(13)
    graphs = []
    for i in range(24):
        n = 20 + (i * 7) % 21
        graphs.append(gen_gnp(GenSpec(
            "gnp", n, derive_seed(1104, i), {"edge_prob": (0.08, 0.15, 0.3)[i % 3]}
        )))
        graphs.append(random_planar(derive_seed(1105, i), n, rng.randrange(n, 2 * n)))
    for g in graphs:
        for x in (None, VertexSet(g.n, [v for v in range(g.n) if rng.random() < 0.2])):
            dom = exact_domination(g, x)
            pack = exact_packing(g, x)
            assert is_dominating(g, dom.witness, x) and len(dom.witness) == dom.value
            assert is_packing(g, pack.witness, x) and len(pack.witness) == pack.value
            assert (dom.value, pack.value) == milp_values(g, x or VertexSet(g.n, [])), g.n


def test_tree_oracle_to_n200():
    # Meir-Moon: gamma = rho on trees, and tree_dompack finds |D| = |P|.
    for i in range(40):
        t = gen_tree(GenSpec("tree", 200 - (i * 37) % 181, derive_seed(1106, i)))
        cert = tree_dompack(t, 0)
        dom = exact_domination(t)
        pack = exact_packing(t)
        assert cert.valid and is_dominating(t, cert.d) and is_packing(t, cert.p)
        assert is_dominating(t, dom.witness) and is_packing(t, pack.witness)
        assert dom.value == pack.value == len(cert.d) == len(cert.p)
        assert len(dom.witness) == dom.value and len(pack.witness) == pack.value


def test_verify_tree_node_counts(capsys, monkeypatch):
    # The trees of `verify --class tree --seed 0`.  Node counts do not depend
    # on the machine, so growth here is a search regression, not noise.
    import dompack.cli

    nodes = {"exact_domination": [], "exact_packing": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            nodes[name].append(result.nodes_explored)
            return result

        return wrapper

    for name in nodes:
        monkeypatch.setattr(dompack.cli, name, counted(name, getattr(dompack.cli, name)))
    argv = ["verify", "--class", "tree", "--count", "150", "--seed", "0", "--format", "json"]
    assert dompack.cli.main(argv) == 0
    capsys.readouterr()
    for name, counts in nodes.items():
        assert len(counts) == 150
        assert sum(counts) <= 10_000 and max(counts) <= 100, (name, sum(counts), max(counts))


def test_readme_quickstart_witness():
    assert repr(exact_packing(parse_graph6("C~")).witness) == "VertexSet(4, {0})"
