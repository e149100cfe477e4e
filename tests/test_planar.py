import gc
import hashlib
import platform
import random
import sys
from fractions import Fraction

import charge_reference
import flip_reference
import pytest

from dompack import (
    ChargeLedger,
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
from dompack.codec import emit_graph6
from dompack.generators import GenSpec, all_graphs, derive_seed, generate
from dompack.planar import (
    TriangulationBlocked,
    _embed_maximal_planar,
    _flip_random_edges,
)

ICOSAHEDRON_ROTATION = [
    [5, 1, 2, 3, 4],
    [6, 7, 2, 0, 5],
    [1, 7, 8, 3, 0],
    [0, 2, 8, 9, 4],
    [5, 0, 3, 9, 10],
    [6, 1, 0, 4, 10],
    [7, 1, 5, 10, 11],
    [2, 1, 6, 11, 8],
    [2, 7, 11, 9, 3],
    [8, 11, 10, 4, 3],
    [11, 6, 5, 4, 9],
    [7, 6, 10, 9, 8],
]


def rotation_embedding(neighbor_rotation):
    """The simple embedding whose rotation at u lists u's neighbors in order.
    Edge e is the e-th vertex pair in sorted order."""
    pairs = [[(min(u, v), max(u, v)) for v in nbrs] for u, nbrs in enumerate(neighbor_rotation)]
    edges = sorted({pair for row in pairs for pair in row})
    index = {pair: e for e, pair in enumerate(edges)}
    rotation = [[2 * index[p] + (u > p[0]) for p in row] for u, row in enumerate(pairs)]
    return PlanarEmbedding(len(pairs), edges, rotation)


@pytest.fixture
def icosahedron():
    """The icosahedron as a triangulated embedding (5-regular, 20 faces)."""
    return rotation_embedding(ICOSAHEDRON_ROTATION)


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


@pytest.mark.parametrize(
    "make, args, message",
    [
        (random_planar, (1, 2, 0), "random planar graphs need n >= 3"),
        (random_min_degree4_planar, (1, 5), "min-degree-4 planar graphs need n >= 6"),
    ],
)
def test_planar_generators_refuse_too_few_vertices(make, args, message):
    with pytest.raises(GraphError) as info:
        make(*args)
    assert str(info.value) == message


def test_random_planar_is_the_graph_of_its_embedding():
    # One draw per (seed, n, m): the embedding keeps the edges random_planar
    # keeps, and the full draw is the maximal planar growth itself.
    import dompack.planar

    assert not hasattr(dompack.planar, "random_planar_edges")
    for seed in range(3):
        for n in (3, 4, 5, 7, 10, 16, 25):
            for m in range(3 * n - 5):
                assert random_planar_embedding(seed, n, m).graph() == random_planar(seed, n, m)
            assert random_planar(seed, n, 3 * n - 6) == embed_maximal_planar(seed, n).graph()
    with pytest.raises(GraphError, match="unknown generator family"):
        generate(GenSpec("max-planar", 9, 11))


def test_triangulate_c4_parallel_edges():
    # Two opposite independent vertices force a doubled edge between the
    # other two: the classic non-simple triangulation.
    tri = triangulate_preserving_independent(c4_embedding(), VertexSet(4, [0, 2]))
    assert tri.is_triangulated()
    assert sorted(tri.edges).count((1, 3)) == 2
    assert not tri.is_simple()
    assert [tri.degree(v) for v in range(4)] == [2, 4, 2, 4]
    with pytest.raises(GraphError):
        tri.graph()


def test_triangulate_triangle_unchanged():
    emb = embed_maximal_planar(1, 3)
    tri = triangulate_preserving_independent(emb, VertexSet(3, []))
    assert tri.edges == emb.edges


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
        assert not any(u in ind and v in ind for u, v in tri.edges)
        assert all(tri.degree(v) >= g.degree(v) for v in range(n))
        done += 1


def test_triangulate_preconditions():
    emb = c4_embedding()
    with pytest.raises(PreconditionError, match="the designated set is not independent"):
        triangulate_preserving_independent(emb, VertexSet(4, [0, 1]))
    disconnected = PlanarEmbedding(3, [(0, 1)], [[0], [1], []])
    with pytest.raises(PreconditionError, match="triangulation input must be connected"):
        triangulate_preserving_independent(disconnected, VertexSet(3, []))
    # Two triangles on one doubled edge.
    doubled = PlanarEmbedding(3, [(0, 1), (1, 2), (2, 0), (0, 1)], [[0, 5, 6], [2, 1, 7], [4, 3]])
    with pytest.raises(PreconditionError, match="triangulation input must be simple"):
        triangulate_preserving_independent(doubled, VertexSet(3, []))
    # A simple embedding past Graph's vertex cap is no precondition failure.
    # No VertexSet holds 513 vertices either, and none is read before the cap.
    isolated = PlanarEmbedding(513, [], [[] for _ in range(513)])
    with pytest.raises(GraphError, match=r"vertex count must be in 1\.\.512, got 513") as exc:
        triangulate_preserving_independent(isolated, VertexSet(1))
    assert not isinstance(exc.value, PreconditionError)


def test_planar_calls_check_vertex_set_capacity():
    # A vertex set passed with an embedding must have capacity emb.n, as one
    # passed with a graph must have capacity g.n.
    with pytest.raises(GraphError, match="vertex set of capacity 10 used with a graph on n = 4"):
        charge_audit(embed_maximal_planar(0, 4), VertexSet(10, [7]))
    with pytest.raises(GraphError, match="vertex set of capacity 12 used with a graph on n = 8"):
        triangulate_preserving_independent(embed_maximal_planar(0, 8), VertexSet(12, [10]))


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
            emb = rotation_embedding(rotation)
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


# The triangulate campaign's instance 100 at seed 0 when its draws kept the
# sampled edges in insertion order: an earlier lowest-pair chord rule left a
# residual face of its 7-face whose only chord joined 0 and 1, both in I.
BLOCKED_ONCE_EDGES = [
    (1, 2), (2, 0), (1, 3), (2, 3), (2, 4), (0, 4), (2, 5), (4, 5), (1, 6), (2, 6), (3, 6),
    (1, 7), (2, 7), (6, 7), (4, 8), (5, 8), (6, 9), (1, 9), (7, 9), (3, 10), (1, 10), (6, 10),
]
BLOCKED_ONCE_ROTATION = [
    [3, 10], [0, 4, 40, 16, 34, 22], [2, 1, 24, 18, 6, 12, 8], [5, 7, 20, 38], [11, 9, 28, 14],
    [13, 15, 30], [19, 26, 32, 17, 42, 21], [25, 23, 36, 27], [29, 31], [35, 33, 37],
    [41, 39, 43],
]


def test_triangulate_input_that_once_blocked():
    emb = PlanarEmbedding(11, BLOCKED_ONCE_EDGES, BLOCKED_ONCE_ROTATION)
    g = emb.graph()
    assert emit_graph6(g) == "JZgjbCKOqc?"
    ind = greedy_maximal_independent_set(g)
    assert sorted(ind) == [0, 1, 5]
    tri = triangulate_preserving_independent(emb, ind)
    assert tri.is_triangulated()
    assert not any((ind.mask >> u) & (ind.mask >> v) & 1 for u, v in tri.edges)


def test_find_low_degree_edge_examples():
    ico = gen_named("icosahedron")
    edge = find_low_degree_edge(ico)
    assert edge is not None  # 5-regular: any edge qualifies

    octa = gen_named("octahedron")
    assert find_low_degree_edge(octa) is not None

    with pytest.raises(PreconditionError):
        find_low_degree_edge(gen_named("C4"))  # min degree 2


def test_charge_audit_icosahedron(icosahedron):
    ledger = charge_audit(icosahedron, VertexSet(12, []))
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
    with pytest.raises(PreconditionError, match="charge audit requires a triangulated embedding"):
        charge_audit(c4_embedding(), VertexSet(4, []))
    tri = embed_maximal_planar(0, 12)
    hub = max(range(12), key=tri.degree)
    assert tri.degree(hub) > 7
    with pytest.raises(PreconditionError, match=f"vertex {hub} in the low set has degree > 7"):
        charge_audit(tri, VertexSet(12, [hub]))
    u, v = next((u, v) for u, v in tri.edges if tri.degree(u) <= 7 and tri.degree(v) <= 7)
    with pytest.raises(PreconditionError, match="designated low-degree set is not independent"):
        charge_audit(tri, VertexSet(12, [u, v]))


def test_min_degree4_generator():
    for seed in range(6):
        g = random_min_degree4_planar(seed, 25)
        assert g.min_degree() >= 4
        assert g.n >= 6
        assert g.m == 3 * g.n - 6  # stripping keeps the graph maximal planar
        assert find_low_degree_edge(g) is not None


def test_embedding_validation_rejects_nonplanar():
    # Swapping two darts in one K_4 rotation yields a toroidal map, which the
    # Euler check must reject.
    edges = [(0, 1), (1, 2), (2, 0), (1, 3), (0, 3), (2, 3)]
    rot_planar = [[0, 8, 5], [2, 6, 1], [4, 10, 3], [9, 7, 11]]
    rot_twisted = [[8, 0, 5], [2, 6, 1], [4, 10, 3], [9, 7, 11]]
    PlanarEmbedding(4, edges, rot_planar)
    with pytest.raises(EmbeddingError):
        PlanarEmbedding(4, edges, rot_twisted)


def test_embedding_euler_check_counts_components():
    # Two triangles, an isolated vertex and a doubled edge: four components,
    # so n - m + f + isolated = 9 - 8 + 6 + 1 = 2 * 4.
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (7, 8), (7, 8)]
    rotation = [[0, 5], [1, 2], [3, 4], [6, 11], [7, 8], [9, 10], [], [12, 14], [13, 15]]
    emb = PlanarEmbedding(9, edges, rotation)
    assert len(emb.faces) == 6


MALFORMED_EMBEDDINGS = [
    (2, [(0, 1)], [[0, 1]], "rotation must list every vertex"),
    (2, [(0, 0)], [[0, 1], []], "self-loops are not allowed"),
    (2, [(0, 2)], [[0], [1]], r"edge \(0,2\) outside 0\.\.1"),
    (2, [(0, 1)], [[0], [2]], "dart 2 missing or repeated"),
    (2, [(0, 1)], [[-1], [1]], "dart -1 missing or repeated"),
    (2, [(0, 1)], [[0, 0], [1]], "dart 0 missing or repeated"),
    (2, [(0, 1)], [[1], [0]], "dart 1 listed at the wrong vertex"),
    (2, [(0, 1)], [[0], []], "some darts are absent from the rotation"),
    (
        4,
        [(0, 1), (1, 2), (2, 0), (1, 3), (0, 3), (2, 3)],
        [[8, 0, 5], [2, 6, 1], [4, 10, 3], [9, 7, 11]],
        r"rotation system is not planar \(Euler check failed\)",
    ),
]


def test_embedding_rejects_malformed():
    # Each malformed input raises its own message.
    for n, edges, rotation, message in MALFORMED_EMBEDDINGS:
        with pytest.raises(EmbeddingError, match=message):
            PlanarEmbedding(n, edges, rotation)


def reference_faces(emb):
    """Faces by the definition: from each unused dart in increasing order,
    step from d to the dart after d ^ 1 in the rotation at its tail."""
    used = set()
    faces = []
    for d0 in range(2 * len(emb.edges)):
        if d0 in used:
            continue
        walk, d = [], d0
        while not walk or d != d0:
            walk.append(d)
            used.add(d)
            darts = emb.rotation[emb.edges[(d ^ 1) >> 1][(d ^ 1) & 1]]
            d = darts[(darts.index(d ^ 1) + 1) % len(darts)]
        faces.append(tuple(walk))
    return tuple(faces)


def test_faces_match_reference_walk():
    # Cut-down draws, their triangulations (parallel edges among them) and
    # maximal planar embeddings, with Euler's formula on each connected one.
    checked = parallel = 0
    for attempt in range(120):
        rng = random.Random(derive_seed(1503, attempt))
        n = rng.randrange(4, 30)
        m = rng.randrange(n - 3, 3 * n - 5)
        emb = random_planar_embedding(derive_seed(1504, attempt), n, m)
        corpus = [emb, embed_maximal_planar(attempt, n)]
        g = emb.graph()
        if g.is_connected() and g.min_degree() >= 2:
            tri = triangulate_preserving_independent(emb, greedy_maximal_independent_set(g))
            corpus.append(tri)
            parallel += not tri.is_simple()
        for e in corpus:
            assert e.faces == reference_faces(e)
            checked += 1
    assert checked >= 250 and parallel >= 10


def test_graph_of_an_embedding_with_a_parallel_edge_is_refused():
    # Two triangles on one doubled edge: a valid embedding, not a simple graph.
    emb = PlanarEmbedding(3, [(0, 1), (1, 2), (2, 0), (0, 1)], [[0, 5, 6], [2, 1, 7], [4, 3]])
    assert not emb.is_simple()
    with pytest.raises(GraphError):
        emb.graph()


def ledger_with_types(ledger):
    """Every field of a ChargeLedger as (type, value) leaves."""

    def leaves(x):
        if isinstance(x, tuple):
            return (tuple, tuple([leaves(item) for item in x]))
        return (type(x), x)

    return [leaves(getattr(ledger, f)) for f in ChargeLedger.__dataclass_fields__]


def test_charge_audit_matches_fraction_reference(icosahedron):
    cases = [(icosahedron, VertexSet(12, [0, 6])), (embed_maximal_planar(0, 4), VertexSet(4, [1]))]
    for seed in range(220):
        n = 4 + seed % 57
        emb = embed_maximal_planar(derive_seed(1505, seed), n)
        low = VertexSet(n, [v for v in range(n) if emb.degree(v) <= 7])
        cases.append((emb, greedy_maximal_independent_set(emb.graph(), low)))
    with_transfers = 0
    for emb, low in cases:
        ledger = charge_audit(emb, low)
        assert ledger_with_types(ledger) == ledger_with_types(charge_reference.charge_audit(emb, low))
        with_transfers += bool(ledger.transfers)
    assert with_transfers > 20


def test_incremental_flip_matches_rebuild_reference():
    # Every (seed, n) pair: from one growth, the reference flips its own
    # workspace and the incremental flip its flat tables.  Both must reach
    # the same adjacency and generator state, the workspace must freeze into
    # a simple triangulated embedding (`PlanarEmbedding` checks the rotation
    # system and Euler's formula), which `random_min_degree4_planar` leaves
    # unchecked, and the growth must be left as it was.
    pairs = 0
    for seed in range(18):
        for n in range(4, 61):
            rng = random.Random(derive_seed(seed, n))
            work = _embed_maximal_planar(rng, n)
            grown = repr((work.edges, work.faces, work.first))
            ref = flip_reference.Workspace(
                list(work.edges), work.rotation(), [list(f) for f in work.faces]
            )
            ref_rng = random.Random()
            ref_rng.setstate(rng.getstate())
            flip_reference.flip_random_edges(ref, ref_rng, len(ref.edges) // 4)
            emb = PlanarEmbedding(n, ref.edges, ref.rot)
            assert emb.is_triangulated() and emb.is_simple()
            adj = _flip_random_edges(work, rng, len(work.edges) // 4)
            assert adj == [emb.graph().adjacency_mask(v) for v in range(n)], (seed, n)
            assert rng.random() == ref_rng.random(), (seed, n)
            assert repr((work.edges, work.faces, work.first)) == grown
            pairs += 1
    assert pairs >= 1000


def test_min_degree4_specs_replay():
    # The graphs every recorded min-degree-4-planar GenSpec names; the digest
    # was taken with the rebuild-per-flip generator.
    text = "\n".join(
        emit_graph6(generate(GenSpec("min-degree-4-planar", n, seed)))
        for seed in range(12)
        for n in (6, 7, 9, 12, 16, 24, 33, 48, 60)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "65d2fb474828a54889e88bce4a9d1188e8cf4c0a9e92431fce585d5b876fed83"
    )


def test_planar_specs_replay():
    # The graphs of 384 recorded planar GenSpecs, m from 0 to 3n - 6; the
    # digest was taken with the version that sampled the sorted edge list
    # itself rather than positions in it.
    text = "\n".join(
        emit_graph6(generate(GenSpec("planar", n, seed, {"m": m})))
        for seed in range(12)
        for n in (3, 4, 5, 8, 13, 30, 61)
        for m in sorted({0, n - 1, 2 * n - 3, 3 * n - 7, 3 * n - 6})
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "53af7366d4cfa3b0d712aba0577280b63c71f8fddcdb611b0064a6c47a5bd4ec"
    )


@pytest.mark.skipif(
    platform.python_implementation() != "CPython", reason="counts CPython's allocated blocks"
)
def test_embedding_and_audit_leave_tuple_free_lists_alone():
    # tuple(<generator>) takes a 10-slot tuple and shrinks it, so every call
    # moves a block from the length-10 free list to another length's, and the
    # allocated-block count creeps up round after round.  No tuple here has
    # exactly 20 items (n <= 11): CPython 3.11 free-lists length-20 tuples
    # but never reuses them, whatever built them.
    def audit_round():
        for i in range(400):
            n = 4 + i % 8
            emb = random_planar_embedding(i, n, 3 * n - 6)
            low = VertexSet(n, [v for v in range(n) if emb.degree(v) <= 7])
            charge_audit(emb, greedy_maximal_independent_set(emb.graph(), low))

    # A full collection empties the free lists, which would hide the creep.
    enabled = gc.isenabled()
    gc.disable()
    try:
        audit_round()
        before = sys.getallocatedblocks()
        for _ in range(5):
            audit_round()
        grown = sys.getallocatedblocks() - before
    finally:
        if enabled:
            gc.enable()
    assert grown < 200


def embeddings_digest(embeddings) -> str:
    digest = hashlib.sha256()
    for emb in embeddings:
        digest.update(repr((emb.edges, emb.rotation, emb.faces)).encode())
    return digest.hexdigest()


def test_builder_embeddings_pinned():
    # Edges, rotation and faces from each builder, one digest per builder:
    # the growth for n = 3..60, its cuts to every m, and the chord pass on
    # the two inputs with no face to triangulate, one vertex (with no dart at
    # all) and one edge.  The growth and chord-pass digests were taken with
    # the builders that spliced each rotation in place, the cuts digest when
    # the cuts began keeping random_planar's edges.
    growth = [embed_maximal_planar(seed, n) for seed in range(4) for n in range(3, 61)]
    cuts = [
        random_planar_embedding(seed, n, m)
        for seed in range(3)
        for n in (3, 4, 5, 7, 10, 16, 25)
        for m in range(3 * n - 5)
    ]
    one_vertex = PlanarEmbedding(1, [], [[]])
    one_edge = PlanarEmbedding(2, [(0, 1)], [[0], [1]])
    chord_pass = [
        triangulate_preserving_independent(one_vertex, VertexSet(1, [0])),
        triangulate_preserving_independent(one_edge, VertexSet(2, [1])),
    ]
    assert embeddings_digest(growth) == (
        "53a5aea55f15a71aa5e293b16dff5293bcf75e960c30b158458331669e0a2aca"
    )
    assert embeddings_digest(cuts) == (
        "101d5084be86ee61932301b91754eb60d22bfc6f849354cacdc7b978bbefd90b"
    )
    assert embeddings_digest(chord_pass) == (
        "713f4f854d07cf1985b78fa6943046477bdfb789315568e8f40e5e374e94e462"
    )


def test_triangulation_chords_pinned():
    # Edges, rotation and faces of 171 triangulations of
    # random_planar_embedding's draws.
    digest = hashlib.sha256()
    for attempt in range(400):
        rng = random.Random(derive_seed(5, attempt))
        n = rng.randrange(4, 41)
        m = rng.randrange(int(1.4 * n), 3 * n - 5)
        emb = random_planar_embedding(derive_seed(6, attempt), n, m)
        g = emb.graph()
        if g.is_connected() and g.min_degree() >= 2:
            tri = triangulate_preserving_independent(emb, greedy_maximal_independent_set(g))
            digest.update(repr((tri.edges, tri.rotation, tri.faces)).encode())
    assert digest.hexdigest() == (
        "6c265a5ecb979ab3f20ac6436ffcd2b02fb195b779c068edcd08c13268ecb3aa"
    )
