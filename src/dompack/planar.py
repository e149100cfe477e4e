"""Planar embeddings as rotation systems, plus the triangulation and
discharging machinery.

An embedding stores, per vertex, the cyclic order of incident edge-ends
(darts).  Edge e has darts 2e and 2e+1; dart 2e leaves edges[e][0], dart
2e+1 leaves edges[e][1].  A face walk steps from dart d to the
rotation-successor of d ^ 1 at its tail, and the constructor rejects any
rotation system whose face count violates Euler's formula (genus > 0), so
planarity is guaranteed by construction everywhere in this module and never
tested generically.  The edge list is the only copy of an embedding's edges,
parallel edges included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DompackError,
    EmbeddingError,
    GenerationBudgetError,
    GraphError,
    PreconditionError,
)
from .graph import Graph, VertexSet, _components, _mask_bits, _set_mask


class TriangulationBlocked(DompackError, RuntimeError):
    """No admissible chord exists on some face.

    Inputs of minimum degree >= 2 never raise this: the chord rule of
    `triangulate_preserving_independent` always has a candidate on them (its
    docstring gives the argument).  A vertex of degree 1 can leave a face
    with none, for example a path on three vertices whose endpoints are both
    in the independent set; such inputs falsify the triangulation lemma as
    literally stated.
    """


def _trace_faces(nxt: list[int]) -> tuple[tuple[int, ...], ...]:
    """Faces in order of their least dart, each walked from that dart by
    d = nxt[d]; nxt is a permutation, so every walk closes at its start."""
    consumed = [False] * len(nxt)  # the scan never returns to a start
    faces = []
    for d0, done in enumerate(consumed):
        if done:
            continue
        walk = [d0]
        d = nxt[d0]
        while d != d0:
            walk.append(d)
            consumed[d] = True
            d = nxt[d]
        faces.append(tuple(walk))
    return tuple(faces)


def _edge_within(edges: tuple[tuple[int, int], ...], mask: int) -> bool:
    """Whether some edge (u, v) of `edges` joins two members of `mask`."""
    return any((mask >> u) & (mask >> v) & 1 for u, v in edges)


class PlanarEmbedding:
    """Immutable rotation system with a derived face list (genus 0 enforced)."""

    def __init__(
        self,
        n: int,
        edges: list[tuple[int, int]],
        rotation: list[list[int]],
    ):
        """Validate in one pass over the edges and one over the darts, then
        walk the faces and apply Euler's formula.

        The edge pass rejects self-loops and endpoints outside 0..n-1 and
        builds the neighbor masks that count the components.  The dart pass
        rejects a dart out of range, repeated or listed at another vertex
        than its tail, marking each dart it accepts; a dart left unmarked is
        absent.  Face successor nxt[d ^ 1] is set to d's rotation successor.
        """
        if len(rotation) != n:
            raise EmbeddingError("rotation must list every vertex")
        adj = [0] * n  # parallel edges set the same bit
        for u, v in edges:
            if u == v:
                raise EmbeddingError("self-loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise EmbeddingError(f"edge ({u},{v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        # tuple() of a list, not of a generator: a generator's tuple starts
        # at 10 slots and is resized, which drifts CPython's tuple free lists.
        self.edges = tuple([tuple(e) for e in edges])
        self.rotation = tuple([tuple(r) for r in rotation])

        # tails[d] is the vertex dart d leaves, and -1 once d is listed.
        tails = [x for e in self.edges for x in e]
        darts_total = len(tails)
        nxt = [0] * darts_total
        for v, darts in enumerate(self.rotation):
            # darts[i] is the dart after d, cyclically: i runs 1 - len .. 0.
            for i, d in enumerate(darts, 1 - len(darts)):
                if not 0 <= d < darts_total or tails[d] < 0:
                    raise EmbeddingError(f"dart {d} missing or repeated")
                if tails[d] != v:
                    raise EmbeddingError(f"dart {d} listed at the wrong vertex")
                tails[d] = -1
                nxt[d ^ 1] = darts[i]
        if tails.count(-1) != darts_total:
            raise EmbeddingError("some darts are absent from the rotation")

        self.faces = _trace_faces(nxt)
        iso = sum(1 for darts in self.rotation if not darts)
        components = sum(1 for _ in _components(adj))
        if n - darts_total // 2 + len(self.faces) + iso != 2 * components:
            raise EmbeddingError("rotation system is not planar (Euler check failed)")

    # -- views ---------------------------------------------------------------

    def degree(self, v: int) -> int:
        """Incident edge-ends, so parallel edges count with multiplicity."""
        return len(self.rotation[v])

    def is_triangulated(self) -> bool:
        return all(len(f) == 3 for f in self.faces)

    def is_simple(self) -> bool:
        norm = {(min(u, v), max(u, v)) for u, v in self.edges}
        return len(norm) == len(self.edges)

    def graph(self) -> Graph:
        """The simple graph of the edge list; a parallel edge raises
        `GraphError` from `Graph`'s duplicate-edge check."""
        return Graph(self.n, self.edges)


# -- construction ------------------------------------------------------------


class _MutableEmbedding:
    """Dart-level workspace used by the builders: the edge list, the face
    walks and `first[v]`, the first dart of v's rotation (-1 when v has
    none).  The builders edit only the edges and the faces; the rotations
    are read off the faces when the embedding is frozen."""

    def __init__(self, edges: list[tuple[int, int]], faces: list[list[int]], first: list[int]):
        self.edges = edges
        self.faces = faces  # dart walks
        self.first = first

    def successors(self) -> list[int]:
        """nxt[d], the dart after d on its face."""
        nxt = [0] * (2 * len(self.edges))
        for walk in self.faces:
            prev = walk[-1]
            for d in walk:
                nxt[prev] = d
                prev = d
        return nxt

    def rotation(self) -> list[list[int]]:
        """Each vertex's darts from its first one: the dart after x at its
        tail is nxt[x ^ 1], since the face walk steps from x ^ 1 to it."""
        nxt = self.successors()
        rotation = []
        for x in self.first:
            darts = []
            if x >= 0:
                darts.append(x)
                y = nxt[x ^ 1]
                while y != x:
                    darts.append(y)
                    y = nxt[y ^ 1]
            rotation.append(darts)
        return rotation

    def finish(self) -> PlanarEmbedding:
        return PlanarEmbedding(len(self.first), self.edges, self.rotation())


def _embed_maximal_planar(rng: random.Random, n: int) -> _MutableEmbedding:
    """A triangle and its two faces, then n - 3 times: a new vertex w in the
    face rng.randrange(len(faces)) = (da, db, dc), with tails a, b, c.

    The edges a-w, b-w and c-w are appended in that order, each with its
    dart leaving a, b or c first.  The face becomes (da, b->w, w->a) and
    (db, c->w, w->b), (dc, a->w, w->c) are appended, so each new dart lands
    in the rotation at its tail after the reverse of the face dart entering
    that tail, and w's rotation is w->b, w->a, w->c, starting at w->b.
    """
    edges = [(0, 1), (1, 2), (2, 0)]
    faces = [[0, 2, 4], [1, 5, 3]]
    first = [0, 2, 4]
    for w in range(3, n):
        face_idx = rng.randrange(len(faces))
        da, db, dc = faces[face_idx]
        a, b, c = edges[da >> 1][da & 1], edges[db >> 1][db & 1], edges[dc >> 1][dc & 1]
        ga = 2 * len(edges)
        gb, gc = ga + 2, ga + 4
        edges += ((a, w), (b, w), (c, w))
        first.append(gb ^ 1)
        faces[face_idx] = [da, gb, ga ^ 1]
        faces.append([db, gc, gb ^ 1])
        faces.append([dc, ga, gc ^ 1])
    return _MutableEmbedding(edges, faces, first)


def embed_maximal_planar(seed: int, n: int) -> PlanarEmbedding:
    """Simple maximal planar graph (m = 3n-6) grown by repeated insertion of
    a new vertex into a uniformly chosen triangular face; deterministic per
    seed."""
    if n < 3:
        raise GraphError("maximal planar graphs need n >= 3")
    return _embed_maximal_planar(random.Random(seed), n).finish()


def _cut_maximal_planar(seed: int, n: int, m: int) -> tuple[_MutableEmbedding, list[int]]:
    """The maximal planar graph grown for `seed` and the insertion indices
    of m of its edges: the edges at positions drawn, after the growth and
    from the same generator, in the edge list sorted by (lower, higher)
    endpoint, listed in that sorted order.

    No sort is needed.  Every edge joins an older vertex to a newer one, so
    the edges bucketed by their lower endpoint are each in insertion order,
    which is their order by higher endpoint, and the buckets concatenated
    are the sorted list.  random.sample picks the same positions whatever
    its population holds, so these are the edges that sampling the sorted
    list itself keeps.
    """
    if n < 3:
        raise GraphError("random planar graphs need n >= 3")
    if not 0 <= m <= 3 * n - 6:
        raise GraphError(f"edge count {m} outside 0..{3 * n - 6}")
    rng = random.Random(seed)
    work = _embed_maximal_planar(rng, n)
    buckets = [[] for _ in range(n)]
    for e, (u, v) in enumerate(work.edges):
        buckets[u if u < v else v].append(e)
    order = [e for bucket in buckets for e in bucket]
    return work, [order[p] for p in sorted(rng.sample(range(len(order)), m))]


def random_planar(seed: int, n: int, m: int) -> Graph:
    """Planar-by-construction graph: maximal planar, then uniform edge
    deletions down to m edges; the graph of random_planar_embedding."""
    work, keep = _cut_maximal_planar(seed, n, m)
    return Graph(n, [work.edges[e] for e in keep])


def random_planar_embedding(seed: int, n: int, m: int) -> PlanarEmbedding:
    """random_planar(seed, n, m) with its rotation system: the kept edges,
    in sorted order, and each rotation of the maximal planar graph
    restricted to them."""
    work, keep = _cut_maximal_planar(seed, n, m)
    remap = [-1] * len(work.edges)  # new index of each kept edge
    for new, old in enumerate(keep):
        remap[old] = new
    rotation = [
        [2 * remap[d >> 1] + (d & 1) for d in darts if remap[d >> 1] >= 0]
        for darts in work.rotation()
    ]
    return PlanarEmbedding(n, [work.edges[e] for e in keep], rotation)


# -- the triangulation lemma as an executable operation -----------------------


def triangulate_preserving_independent(
    emb: PlanarEmbedding, independent: VertexSet
) -> PlanarEmbedding:
    """Add edges until every face is a triangle, never joining two members of
    `independent`; the result may contain parallel edges.

    Each long face gets a chord from a vertex u that is not in `independent`
    and appears exactly once on the face walk, to the vertex two steps on;
    ties break toward the lexicographically least endpoint pair.  The chord
    never joins u to itself or two independent-set members, and on inputs of
    minimum degree >= 2 some face vertex always qualifies:

    - After its chord, u still appears exactly once on the face left over
      (the chord followed by the old walk from its far end back to u), so a
      residual face that is still long keeps a candidate.
    - Every face of the input has one.  Each visit of the walk to a vertex
      enters and leaves it along two distinct edges (a walk that turns back
      on itself needs a vertex of degree 1), so the face boundary has minimum
      degree >= 2 and a leaf block of it is a cycle.  All but at most one
      vertex of that cycle are not cut vertices of the boundary and appear
      once on the walk; two of them are consecutive on the cycle, hence
      adjacent, and at most one of them is in the independent set.
    """
    try:
        g = emb.graph()
    except GraphError:
        if emb.is_simple():  # n outside Graph's range: not a precondition
            raise
        raise PreconditionError("triangulation input must be simple") from None
    if not g.is_connected():
        raise PreconditionError("triangulation input must be connected")
    ind = _set_mask(emb, independent)
    if _edge_within(emb.edges, ind):
        raise PreconditionError("the designated set is not independent")

    edges = list(emb.edges)
    faces = [list(f) for f in emb.faces]
    # One pass over the face list; enumerate also reaches the residual faces
    # appended below.  Every face before fi has length <= 3 and faces[fi]
    # becomes a triangle, so the chords and their order are those of a
    # rescan from face 0 after each chord.
    for fi, walk in enumerate(faces):
        k = len(walk)
        if k <= 3:
            continue
        tails = [edges[d >> 1][d & 1] for d in walk]
        best_j = -1
        best_pair = None
        for j, x in enumerate(tails):
            if (ind >> x) & 1 or tails.count(x) != 1:
                continue
            z = tails[j + 2 - k]
            pair = (x, z) if x < z else (z, x)
            if best_pair is None or pair < best_pair:
                best_pair = pair
                best_j = j
        if best_j < 0:
            raise TriangulationBlocked(f"face {tuple(tails)} admits no chord")
        # The chord h runs x = tail(d_j) -> z = tail(d_j+2), leaving the
        # triangle (d_j, d_j+1, z->x) and the face (h, d_j+2, ...).  So h
        # follows the reverse of d_j-1 at x and h ^ 1 that of d_j+1 at z, and
        # every vertex keeps the first dart of its rotation.
        from_j = walk[best_j:] + walk[:best_j]
        h = 2 * len(edges)
        edges.append((tails[best_j], tails[best_j + 2 - k]))
        faces[fi] = [from_j[0], from_j[1], h ^ 1]
        faces.append([h] + from_j[2:])
    first = [darts[0] if darts else -1 for darts in emb.rotation]
    return _MutableEmbedding(edges, faces, first).finish()


# -- discharging --------------------------------------------------------------


def find_low_degree_edge(g: Graph) -> tuple[int, int] | None:
    """First edge (lex order) whose endpoints both have degree <= 7.

    The input must be simple planar with minimum degree >= 4; on such graphs
    the discharging lemma guarantees an edge is found, so None is a lemma
    falsification, never an acceptable outcome.
    """
    if g.min_degree() < 4:
        raise PreconditionError("find_low_degree_edge requires minimum degree >= 4")
    for u, v in g.edges():
        if g.degree(u) <= 7 and g.degree(v) <= 7:
            return (u, v)
    return None


@dataclass(frozen=True)
class ChargeLedger:
    initial: tuple[Fraction, ...]
    transfers: tuple[tuple[int, int, Fraction], ...]
    final: tuple[Fraction, ...]
    total: Fraction
    negative_vertices: tuple[int, ...]


def charge_audit(emb: PlanarEmbedding, low_independent: VertexSet) -> ChargeLedger:
    """Assign d(v) - 6 to every vertex of a triangulated embedding, then let
    every vertex of degree >= 8 give 1/2 to each neighbor (with multiplicity)
    in the designated independent set of degree <= 7 vertices.

    The charges are kept as integer halves; each distinct ledger value
    becomes a `Fraction` once, when the ledger is built.
    """
    if not emb.is_triangulated():
        raise PreconditionError("charge audit requires a triangulated embedding")
    members = _set_mask(emb, low_independent)
    for v in low_independent:
        if emb.degree(v) > 7:
            raise PreconditionError(f"vertex {v} in the low set has degree > 7")
    edges = emb.edges
    if _edge_within(edges, members):
        raise PreconditionError("designated low-degree set is not independent")

    initial = [2 * len(darts) - 12 for darts in emb.rotation]
    final = initial[:]
    transfers = []
    half = Fraction(1, 2)
    for v, darts in enumerate(emb.rotation):
        if len(darts) >= 8:
            for d in darts:
                w = edges[d >> 1][1 - (d & 1)]
                if (members >> w) & 1:
                    transfers.append((v, w, half))
                    final[v] -= 1
                    final[w] += 1
    value = {h: Fraction(h, 2) for h in {*initial, *final}}
    return ChargeLedger(
        tuple([value[h] for h in initial]),
        tuple(transfers),
        tuple([value[h] for h in final]),
        Fraction(sum(final), 2),
        tuple([v for v, h in enumerate(final) if h < 0]),
    )


# -- generator for discharging-lemma instances --------------------------------


def _flip_random_edges(work: _MutableEmbedding, rng: random.Random, attempts: int) -> list[int]:
    """Random diagonal flips on a triangulation; keeps it simple and maximal.
    Returns the adjacency bitmask of each vertex after the flips, and leaves
    `work` as it was.

    Each attempt draws e = rng.randrange(len(work.edges)) and nothing else,
    so the seed alone fixes every flip.  For the faces f = (d, d1, d2) of
    dart d = 2e and g = (dr, g1, g2) of dr = 2e + 1, the attempt is skipped
    when dr lies on f, when c = tail(d2) equals z = tail(g2), or when c and
    z are already adjacent.  Otherwise edge e becomes (c, z), and f and g
    become (d2, g1, dr) and (d, g2, d1).

    The loop updates only flat tables, so a flip costs O(1): `tail[d]`;
    `nxt[d]`, the dart after d on its face; and `adj[v]`, the adjacency
    bitmask of v, exact because no flip makes a parallel edge.
    """
    tail = [x for e in work.edges for x in e]
    adj = [0] * len(work.first)
    for u, v in work.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    nxt = work.successors()
    randrange, m = rng.randrange, len(work.edges)
    for _ in range(attempts):
        d = 2 * randrange(m)
        dr = d + 1
        d1, g1 = nxt[d], nxt[dr]
        d2, g2 = nxt[d1], nxt[g1]
        if dr == d1 or dr == d2:
            continue
        c, z = tail[d2], tail[g2]
        if c == z or (adj[c] >> z) & 1:
            continue
        u, v = tail[d], tail[dr]
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        adj[c] |= 1 << z
        adj[z] |= 1 << c
        tail[d], tail[dr] = c, z
        nxt[d2], nxt[g1], nxt[dr] = g1, dr, d2
        nxt[d], nxt[g2], nxt[d1] = g2, d1, d
    return adj


_MIN_CORE = 6  # a stripped maximal planar core this large has minimum degree >= 4
_MIN_DEGREE4_ATTEMPTS = 300


def random_min_degree4_planar(seed: int, n: int) -> Graph:
    """Simple planar graph with minimum degree >= 4.

    Pure rejection on insertion-built triangulations never succeeds (they
    always keep degree-3 vertices), so each attempt randomizes a
    triangulation with diagonal flips and then deletes degree-3 vertices
    until none remain; deleting a degree-3 vertex of a maximal planar graph
    leaves a maximal planar graph, so a surviving core with six or more
    vertices has minimum degree >= 4.

    Attempt a draws only from its own generator, seeded derive_seed(seed, a):
    first the insertion faces, then one edge per flip attempt, 6 |E| in all,
    so every (seed, n) replays bit for bit.  The flips keep flat dart tables
    and per-vertex adjacency masks across attempts (see
    `_flip_random_edges`), so each costs O(1), and the deletions read those
    masks; a graph is built only from an accepted core.
    """
    if n < 6:
        raise GraphError("min-degree-4 planar graphs need n >= 6")
    from .generators import derive_seed

    for attempt in range(_MIN_DEGREE4_ATTEMPTS):
        rng = random.Random(derive_seed(seed, attempt))
        work = _embed_maximal_planar(rng, n)
        adj = _flip_random_edges(work, rng, 6 * len(work.edges))
        # The peel reads the masks the flips kept.  A vertex enters `low` at
        # most once: at the start if its degree is 3, else when its degree
        # in the active graph falls to 3.  The order of deletions does not
        # matter: a core of six or more vertices is the 4-core, and a
        # smaller one is rejected whatever it holds.
        active = (1 << n) - 1
        low = [v for v in range(n) if adj[v].bit_count() == 3]
        while low:
            v = low.pop()
            if (adj[v] & active).bit_count() != 3:
                continue  # the last triangle, where degrees fall to 2
            active &= ~(1 << v)
            low += [u for u in _mask_bits(adj[v] & active) if (adj[u] & active).bit_count() == 3]
        if active.bit_count() >= _MIN_CORE:
            # Flips never make a parallel edge, so the masks they kept are
            # the graph's own, read without freezing the workspace.
            core = Graph._from_adjacency(adj).induced_subgraph(VertexSet.from_mask(n, active))
            if core.min_degree() >= 4:
                return core
    raise GenerationBudgetError(
        f"no min-degree-4 core of size >= {_MIN_CORE} in {_MIN_DEGREE4_ATTEMPTS} attempts",
        _MIN_DEGREE4_ATTEMPTS,
    )
