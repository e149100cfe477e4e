import hashlib
import json
import random

import pytest
from homogeneous_reference import homogeneous_ordering

from dompack import (
    ConstructionError,
    Graph,
    GraphError,
    VertexSet,
    chordal_bipartite_dompack,
    emit_graph6,
    exact_domination,
    exact_packing,
    find_simple_elimination_ordering,
    gen_named,
    homogeneously_orderable_dompack,
    is_dominating,
    is_packing,
    strongly_chordal_dompack,
    tree_dompack,
)
from dompack.constructions import _finalize, _pass_pair
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
    for n in range(1, 10):
        for t in all_trees(n):
            gamma = exact_domination(t).value
            for root in range(n):
                cert = tree_dompack(t, root)
                check_certificate(t, cert)
                assert len(cert.d) == len(cert.p) == gamma
                again = tree_dompack(t, root)
                assert (again.d, again.p) == (cert.d, cert.p)


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
    # Not a simple elimination ordering, not a permutation, out of range.
    for name, ordering in [
        ("C6", (0, 1, 2, 3, 4, 5)),
        ("P4", (0, 0, 1, 2)),
        ("P4", (0, 1, 2, 9)),
    ]:
        with pytest.raises(GraphError):
            strongly_chordal_dompack(gen_named(name), ordering)


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
    # The construction accepts exactly the graphs the exhaustive reference
    # search orders, and on each its packing is maximum.
    accepted = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            if homogeneous_ordering(g._adj, n) is None:
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


def test_finalize_refuses_invalid_certificates():
    # Every construction's D and P pass through _finalize; it raises rather
    # than return a certificate that does not hold.
    p4 = gen_named("P4")
    with pytest.raises(ConstructionError, match="D is not dominating"):
        _finalize(p4, 0b0010, 0b0001, "tree", 1)
    with pytest.raises(ConstructionError, match="P is not a packing"):
        _finalize(p4, 0b0110, 0b0011, "tree", 1)
    with pytest.raises(ConstructionError, match=r"\|D\|=2 exceeds 1 \* \|P\|=1"):
        _finalize(p4, 0b0110, 0b0001, "tree", 1)
    cert = _finalize(p4, 0b0110, 0b0001, "chordal-bipartite", 2)
    assert cert.valid and sorted(cert.d) == [1, 2] and sorted(cert.p) == [0]


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
    obj = cert.to_dict()
    assert json.loads(json.dumps(obj)) == obj  # JSON-ready as it stands
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


def test_pass_pair_is_exact_where_it_settles():
    # Every graph on <= 7 vertices, with no X and with one seeded X.  Off
    # forests the pass's P is often no packing, and a pair returned then
    # would be wrong; where the pair checks out, D dominates with X, P is a
    # packing outside X, and gamma_X = rho_X = |D| = |P|.
    runs = settled = 0
    for n in range(1, 8):
        for i, g in enumerate(all_graphs(n)):
            rng = random.Random(derive_seed(2600 + n, i))
            for x in (None, VertexSet(n, [v for v in range(n) if rng.random() < 0.25])):
                gamma = exact_domination(g, x).value
                rho = exact_packing(g, x).value
                pair = _pass_pair(g, x)
                runs += 1
                if pair is not None:
                    settled += 1
                    d, p = pair
                    assert is_dominating(g, d, x) and is_packing(g, p, x), (emit_graph6(g), x)
                    assert len(d) == len(p) == gamma == rho, (emit_graph6(g), x)
    assert (runs, settled) == (2504, 1585)


def construction_pin_rows():
    """(name, graph, thunk) over every tree on <= 12 vertices at root 0, every
    graph on <= 7 vertices (strongly chordal only where it has an ordering),
    then seeded interval (n <= 40), chordal-bipartite (n <= 16) and
    distance-hereditary (n <= 14) draws."""
    for n in range(1, 13):
        for t in all_trees(n):
            yield "tree", t, lambda t=t: tree_dompack(t, 0)
    for n in range(1, 8):
        for g in all_graphs(n):
            ordering = find_simple_elimination_ordering(g)
            if ordering is not None:
                yield "sc", g, lambda g=g, o=ordering: strongly_chordal_dompack(g, o)
            yield "cb", g, lambda g=g: chordal_bipartite_dompack(g)
            yield "ho", g, lambda g=g: homogeneously_orderable_dompack(g)
    for i in range(12):
        seed = derive_seed(2500, i)
        g = gen_interval(GenSpec("interval", 2 + i * 38 // 11, seed))
        yield "sc", g, lambda g=g: strongly_chordal_dompack(g, find_simple_elimination_ordering(g))
        g = gen_chordal_bipartite(GenSpec("chordal-bipartite", 4 + i * 12 // 11, seed))
        yield "cb", g, lambda g=g: chordal_bipartite_dompack(g)
        g = gen_distance_hereditary(GenSpec("distance-hereditary", 2 + i, seed))
        yield "ho", g, lambda g=g: homogeneously_orderable_dompack(g)


# sha256 of construction_pin_rows' (graph6, D, P) or GraphError text: a
# simpler construction must return the very same certificates.
PINNED_CONSTRUCTION_SHA256 = "8ff353341bc8b75a9423f26dc14616ec5d5e282699fa9e4d66c80d5e210ca1cd"


def test_construction_outputs_are_pinned():
    digest = hashlib.sha256()
    for name, g, build in construction_pin_rows():
        try:
            cert = build()
            out = [list(cert.d), list(cert.p)]
        except GraphError as exc:
            out = str(exc)
        digest.update(json.dumps([name, emit_graph6(g), out]).encode())
    assert digest.hexdigest() == PINNED_CONSTRUCTION_SHA256
