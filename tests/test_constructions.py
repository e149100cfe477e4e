import json

import pytest

from dompack import (
    Graph,
    GraphError,
    chordal_bipartite_dompack,
    exact_domination,
    exact_packing,
    find_homogeneous_ordering,
    find_simple_elimination_ordering,
    gen_named,
    homogeneously_orderable_dompack,
    is_dominating,
    is_packing,
    strongly_chordal_dompack,
    tree_dompack,
)
from dompack.generators import (
    GenSpec,
    all_graphs,
    all_trees,
    derive_seed,
    gen_chordal_bipartite,
    gen_distance_hereditary,
    gen_interval,
    gen_tree,
)
from dompack.recognition import Ordering


def check_certificate(g, cert):
    assert cert.valid
    assert is_dominating(g, cert.d)
    assert is_packing(g, cert.p)
    assert len(cert.d) <= cert.bound_constant * len(cert.p)


def test_tree_dompack_examples():
    p7 = gen_named("P7")
    cert = tree_dompack(p7, 0)
    check_certificate(p7, cert)
    assert len(cert.d) == len(cert.p) == 3 == exact_domination(p7).value

    k1 = gen_named("K1")
    cert = tree_dompack(k1, 0)
    assert sorted(cert.d) == [0] and sorted(cert.p) == [0]

    star = gen_named("star5")
    cert = tree_dompack(star, 0)
    assert len(cert.d) == len(cert.p) == 1


def test_tree_dompack_random_trees():
    for i in range(60):
        t = gen_tree(GenSpec("tree", 2 + i % 29, derive_seed(1400, i)))
        cert = tree_dompack(t, 0)
        check_certificate(t, cert)
        gamma = exact_domination(t).value
        assert len(cert.d) == len(cert.p) == gamma == exact_packing(t).value


def test_tree_dompack_any_root():
    t = gen_tree(GenSpec("tree", 17, 12345))
    gamma = exact_domination(t).value
    for root in range(t.n):
        cert = tree_dompack(t, root)
        check_certificate(t, cert)
        assert len(cert.d) == gamma


def test_tree_dompack_rejects_non_trees():
    with pytest.raises(GraphError):
        tree_dompack(gen_named("C4"), 0)
    with pytest.raises(GraphError):
        tree_dompack(Graph(4, [(0, 1), (2, 3)]), 0)


def test_strongly_chordal_examples():
    p4 = gen_named("P4")
    cert = strongly_chordal_dompack(p4, find_simple_elimination_ordering(p4))
    check_certificate(p4, cert)
    assert len(cert.d) == len(cert.p) == 2 == exact_domination(p4).value

    k5 = gen_named("K5")
    cert = strongly_chordal_dompack(k5, find_simple_elimination_ordering(k5))
    assert len(cert.d) == len(cert.p) == 1


def test_strongly_chordal_interval_instances():
    for i in range(80):
        g = gen_interval(
            GenSpec("interval", 2 + i % 39, derive_seed(1401, i), {"span": [0.15, 0.3, 0.5][i % 3]})
        )
        ordering = find_simple_elimination_ordering(g)
        cert = strongly_chordal_dompack(g, ordering)
        check_certificate(g, cert)
        assert len(cert.d) == len(cert.p) == exact_domination(g).value == exact_packing(g).value


def test_strongly_chordal_rejects_bad_ordering():
    p4 = gen_named("P4")
    with pytest.raises(GraphError):
        strongly_chordal_dompack(p4, Ordering((3, 2, 1, 0), "homogeneous"))
    with pytest.raises(GraphError):
        strongly_chordal_dompack(gen_named("C6"), Ordering((0, 1, 2, 3, 4, 5), "simple-elimination"))


def test_chordal_bipartite_examples():
    c4 = gen_named("C4")
    cert = chordal_bipartite_dompack(c4)
    check_certificate(c4, cert)
    assert len(cert.p) == 1 and len(cert.d) == 2  # the tight case: gamma = 2 rho

    star = gen_named("star6")
    cert = chordal_bipartite_dompack(star)
    check_certificate(star, cert)
    assert len(cert.p) == 1 and len(cert.d) <= 2


def test_chordal_bipartite_random_instances():
    for i in range(40):
        g = gen_chordal_bipartite(
            GenSpec("chordal-bipartite", 4 + i % 13, derive_seed(1402, i), {"edge_prob": 0.3})
        )
        cert = chordal_bipartite_dompack(g)
        check_certificate(g, cert)
        assert exact_domination(g).value <= len(cert.d)
        assert len(cert.p) <= exact_packing(g).value


def test_chordal_bipartite_rejects():
    with pytest.raises(GraphError):
        chordal_bipartite_dompack(gen_named("C6"))
    with pytest.raises(GraphError):
        chordal_bipartite_dompack(gen_named("K4"))


def test_homogeneously_orderable_examples():
    c4 = gen_named("C4")
    cert = homogeneously_orderable_dompack(c4)
    check_certificate(c4, cert)
    assert len(cert.p) == 1 and len(cert.d) == 2

    k1 = gen_named("K1")
    cert = homogeneously_orderable_dompack(k1)
    assert sorted(cert.d) == [0] and sorted(cert.p) == [0]


def test_homogeneously_orderable_dh_instances():
    for i in range(60):
        g = gen_distance_hereditary(
            GenSpec("distance-hereditary", 3 + i % 12, derive_seed(1403, i))
        )
        cert = homogeneously_orderable_dompack(g)
        check_certificate(g, cert)
        assert len(cert.p) == exact_packing(g).value
        assert len(cert.d) >= exact_domination(g).value


def test_homogeneously_orderable_exhaustive_small():
    # The construction accepts exactly the graphs the backtracking search
    # orders, and on each its packing is maximum.
    accepted = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            if find_homogeneous_ordering(g) is None:
                with pytest.raises(GraphError):
                    homogeneously_orderable_dompack(g)
                continue
            cert = homogeneously_orderable_dompack(g)
            check_certificate(g, cert)
            assert len(cert.p) == exact_packing(g).value
            accepted += 1
    assert accepted == 814


def test_homogeneously_orderable_rejects():
    # C5: G^2 = K5 is chordal, but its one maximal two-set is not join-split.
    with pytest.raises(GraphError, match="join-split"):
        homogeneously_orderable_dompack(gen_named("C5"))
    # C6: G^2 is the octahedron, with the chordless 4-cycle 0-1-3-4.
    with pytest.raises(GraphError, match="not chordal"):
        homogeneously_orderable_dompack(gen_named("C6"))


def test_certificate_determinism():
    g = gen_interval(GenSpec("interval", 20, 777))
    ordering = find_simple_elimination_ordering(g)
    a = strongly_chordal_dompack(g, ordering)
    b = strongly_chordal_dompack(g, ordering)
    assert a.d == b.d and a.p == b.p

    t = gen_tree(GenSpec("tree", 20, 778))
    assert tree_dompack(t, 3).d == tree_dompack(t, 3).d

    h = gen_distance_hereditary(GenSpec("distance-hereditary", 20, 779))
    a = homogeneously_orderable_dompack(h)
    b = homogeneously_orderable_dompack(h)
    assert a.d == b.d and a.p == b.p


def test_certificate_json_schema():
    cert = tree_dompack(gen_named("P7"), 0)
    obj = json.loads(cert.to_json())
    assert set(obj) == {"class", "D", "P", "bound", "valid"}
    assert obj["class"] == "tree"
    assert obj["bound"] == "1/1"
    assert obj["valid"] is True
    assert obj["D"] == sorted(cert.d)


def test_exhaustive_small_trees():
    for n in range(1, 9):
        for t in all_trees(n):
            cert = tree_dompack(t, 0)
            check_certificate(t, cert)
            assert len(cert.d) == len(cert.p) == exact_domination(t).value
