import json
import random
from fractions import Fraction

import pytest

from dompack import (
    EmbeddingError,
    GraphError,
    PlanarEmbedding,
    PreconditionError,
    VertexSet,
    charge_audit,
    embed_maximal_planar,
    find_low_degree_edge,
    gen_named,
    greedy_maximal_independent_set,
    random_min_degree4_planar,
    random_planar,
    random_planar_embedding,
    triangulate_preserving_independent,
)
from dompack.generators import all_graphs, derive_seed
from dompack.planar import TriangulationBlocked, icosahedron_embedding


def c4_embedding():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    rotation = [[0, 7], [2, 1], [4, 3], [6, 5]]
    return PlanarEmbedding(4, edges, rotation)


def test_embed_maximal_planar_examples():
    tri = embed_maximal_planar(1, 3)
    assert tri.graph().m == 3 and len(tri.faces) == 2

    e10 = embed_maximal_planar(7, 10)
    g = e10.graph()
    assert g.m == 24  # 3n - 6
    assert e10.is_triangulated() and len(e10.faces) == 16  # 2n - 4

    k4 = embed_maximal_planar(3, 4).graph()
    assert k4.m == 6 and all(k4.degree(v) == 3 for v in range(4))

    with pytest.raises(GraphError):
        embed_maximal_planar(1, 2)


def test_embed_maximal_planar_deterministic():
    a = embed_maximal_planar(42, 15)
    b = embed_maximal_planar(42, 15)
    assert a.edges == b.edges and a.rotation == b.rotation
    c = embed_maximal_planar(43, 15)
    assert c.edges != a.edges or c.rotation != a.rotation


def test_face_walk_consistency():
    for seed in range(10):
        emb = random_planar_embedding(seed, 12, 14 + seed)
        total = sum(len(f) for f in emb.faces)
        assert total == 2 * len(emb.edges)  # every dart on exactly one face


def test_random_planar_examples():
    g = random_planar(5, 10, 24)
    assert g.m == 24
    assert random_planar(5, 10, 0).m == 0
    assert random_planar(5, 30, 50).m == 50
    with pytest.raises(GraphError):
        random_planar(5, 10, 25)
    with pytest.raises(GraphError):
        random_planar(5, 10, -1)


def test_triangulate_c4_parallel_edges():
    # Two opposite independent vertices force a doubled edge between the
    # other two: the classic non-simple triangulation.
    tri = triangulate_preserving_independent(c4_embedding(), VertexSet(4, [0, 2]))
    mg = tri.multigraph()
    assert tri.is_triangulated()
    assert mg.multiplicity(1, 3) == 2
    assert not mg.is_simple


def test_triangulate_triangle_unchanged():
    emb = embed_maximal_planar(1, 3)
    tri = triangulate_preserving_independent(emb, VertexSet(3, []))
    assert tri.multigraph().edges == emb.multigraph().edges


def test_triangulate_c5():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    rotation = [[0, 9], [2, 1], [4, 3], [6, 5], [8, 7]]
    emb = PlanarEmbedding(5, edges, rotation)
    tri = triangulate_preserving_independent(emb, VertexSet(5, []))
    assert tri.is_triangulated()
    assert len(tri.edges) == 9  # 3n - 6
    assert sum(len(f) for f in tri.faces) == 18


def test_triangulate_preserves_independence_and_degrees():
    done = 0
    attempt = 0
    while done < 40:
        attempt += 1
        rng = random.Random(derive_seed(1500, attempt))
        n = rng.randrange(5, 25)
        m = rng.randrange(int(1.4 * n), 3 * n - 5)
        emb = random_planar_embedding(derive_seed(1501, attempt), n, m)
        g = emb.graph()
        if not g.is_connected() or g.min_degree() < 2:
            continue
        ind = greedy_maximal_independent_set(g)
        tri = triangulate_preserving_independent(emb, ind)
        assert tri.is_triangulated()
        mg = tri.multigraph()
        assert not any(u in ind and v in ind for u, v in mg.edges)
        assert all(mg.degree(v) >= g.degree(v) for v in range(n))
        done += 1


def test_triangulate_preconditions():
    emb = c4_embedding()
    with pytest.raises(PreconditionError):
        triangulate_preserving_independent(emb, VertexSet(4, [0, 1]))  # not independent
    disconnected = PlanarEmbedding(3, [(0, 1)], [[0], [1], []])
    with pytest.raises(PreconditionError):
        triangulate_preserving_independent(disconnected, VertexSet(3, []))


def test_triangulate_never_blocks_exhaustive_small():
    # Every connected planar graph on <= 7 vertices with minimum degree >= 2
    # (one networkx embedding each), with every nonempty independent set.
    import networkx as nx

    pairs = 0
    for n in range(3, 8):
        for g in all_graphs(n):
            if not g.is_connected() or g.min_degree() < 2:
                continue
            planar, emb_nx = nx.check_planarity(nx.Graph(g.edges()))
            if not planar:
                continue
            rotation = [list(emb_nx.neighbors_cw_order(v)) for v in range(n)]
            emb = PlanarEmbedding.from_json(json.dumps({"n": n, "rotation": rotation}))
            closed = g.closed_masks
            for mask in range(1, 1 << n):
                if any((mask >> v) & 1 and closed[v] & mask != 1 << v for v in range(n)):
                    continue
                tri = triangulate_preserving_independent(emb, VertexSet.from_mask(n, mask))
                assert tri.is_triangulated()
                assert not any((mask >> u) & 1 and (mask >> v) & 1 for u, v in tri.edges)
                pairs += 1
    assert pairs == 7291


def test_triangulate_blocked_on_pathological_input():
    # A path on three vertices with both endpoints designated independent has
    # no triangulation at all (parity), so the operation must refuse.
    emb = PlanarEmbedding(3, [(0, 1), (1, 2)], [[0], [2, 1], [3]])
    with pytest.raises(TriangulationBlocked):
        triangulate_preserving_independent(emb, VertexSet(3, [0, 2]))


def test_find_low_degree_edge_examples():
    ico = gen_named("icosahedron")
    edge = find_low_degree_edge(ico)
    assert edge is not None  # 5-regular: any edge qualifies

    octa = gen_named("octahedron")
    assert find_low_degree_edge(octa) is not None

    with pytest.raises(PreconditionError):
        find_low_degree_edge(gen_named("C4"))  # min degree 2


def test_charge_audit_icosahedron():
    emb = icosahedron_embedding()
    ledger = charge_audit(emb, VertexSet(12, []))
    assert all(c == Fraction(-1) for c in ledger.final)
    assert ledger.total == Fraction(-12)
    assert not ledger.transfers


def test_charge_audit_k4():
    emb = embed_maximal_planar(0, 4)
    ledger = charge_audit(emb, VertexSet(4, []))
    assert all(c == Fraction(-3) for c in ledger.final)
    assert ledger.total == Fraction(-12)


def test_charge_audit_with_transfers():
    for seed in (2, 9, 31):
        emb = embed_maximal_planar(seed, 30)
        g = emb.graph()
        low = VertexSet(g.n, [v for v in range(g.n) if emb.degree(v) <= 7])
        ind = greedy_maximal_independent_set(g, low)
        ledger = charge_audit(emb, ind)
        assert ledger.total == Fraction(-12)
        assert sum(ledger.initial) == Fraction(-12)  # transfers conserve
        assert ledger.negative_vertices  # total is negative, so some vertex is
        for donor, recipient, amount in ledger.transfers:
            assert emb.degree(donor) >= 8 and recipient in ind
            assert amount == Fraction(1, 2)


def test_charge_audit_preconditions():
    emb = c4_embedding()  # not triangulated
    with pytest.raises(PreconditionError):
        charge_audit(emb, VertexSet(4, []))
    tri = embed_maximal_planar(0, 12)
    g = tri.graph()
    u, v = g.edges()[0]
    if g.degree(u) <= 7 and g.degree(v) <= 7:
        with pytest.raises(PreconditionError):
            charge_audit(tri, VertexSet(g.n, [u, v]))


def test_min_degree4_generator():
    for seed in range(6):
        g = random_min_degree4_planar(seed, 25)
        assert g.min_degree() >= 4
        assert g.n >= 6
        assert g.m == 3 * g.n - 6  # stripping keeps the graph maximal planar
        assert find_low_degree_edge(g) is not None


def test_embedding_json_round_trip_simple():
    for seed in range(30):
        n = 5 + seed % 12
        emb = random_planar_embedding(derive_seed(1502, seed), n, n + seed % 6)
        back = PlanarEmbedding.from_json(emb.to_json())
        assert back.to_json() == emb.to_json()
        assert back.face_sizes() == emb.face_sizes()


def test_embedding_json_round_trip_multigraph():
    tri = triangulate_preserving_independent(c4_embedding(), VertexSet(4, [0, 2]))
    back = PlanarEmbedding.from_json(tri.to_json())
    assert back.is_triangulated()
    assert back.multigraph().edges == tri.multigraph().edges


def test_embedding_validation_rejects_nonplanar():
    # Swapping two darts in one K_4 rotation yields a toroidal map, which the
    # Euler check must reject.
    edges = [(0, 1), (1, 2), (2, 0), (1, 3), (0, 3), (2, 3)]
    rot_planar = [[0, 8, 5], [2, 6, 1], [4, 10, 3], [9, 7, 11]]
    rot_twisted = [[8, 0, 5], [2, 6, 1], [4, 10, 3], [9, 7, 11]]
    PlanarEmbedding(4, edges, rot_planar)
    with pytest.raises(EmbeddingError):
        PlanarEmbedding(4, edges, rot_twisted)


def test_embedding_rejects_malformed():
    with pytest.raises(EmbeddingError):
        PlanarEmbedding(2, [(0, 1)], [[0], []])  # dart 1 missing
    with pytest.raises(EmbeddingError):
        PlanarEmbedding(2, [(0, 0)], [[0, 1], []])  # self-loop
    with pytest.raises(EmbeddingError):
        PlanarEmbedding(2, [(0, 1)], [[1], [0]])  # darts at wrong vertices
