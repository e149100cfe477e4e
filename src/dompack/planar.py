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

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DompackError,
    EmbeddingError,
    GenerationBudgetError,
    GraphError,
    PreconditionError,
)
from .graph import Graph, VertexSet, _layers, _mask_bits


class TriangulationBlocked(DompackError, RuntimeError):
    """No admissible chord exists on some face.

    Inputs of minimum degree >= 2 never raise this: the chord rule of
    `triangulate_preserving_independent` always has a candidate on them (its
    docstring gives the argument).  A vertex of degree 1 can leave a face
    with none, for example a path on three vertices whose endpoints are both
    in the independent set; such inputs falsify the triangulation lemma as
    literally stated.
    """


class PlanarEmbedding:
    """Immutable rotation system with a derived face list (genus 0 enforced)."""

    def __init__(
        self,
        n: int,
        edges: list[tuple[int, int]],
        rotation: list[list[int]],
    ):
        if len(rotation) != n:
            raise EmbeddingError("rotation must list every vertex")
        m = len(edges)
        for u, v in edges:
            if u == v:
                raise EmbeddingError("self-loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise EmbeddingError(f"edge ({u},{v}) outside 0..{n - 1}")
        self.n = n
        # tuple() of a list, not of a generator: a generator's tuple starts
        # at 10 slots and is resized, which drifts CPython's tuple free lists.
        self.edges = tuple([tuple(e) for e in edges])
        self.rotation = tuple([tuple(r) for r in rotation])

        seen = [False] * (2 * m)
        # _pos[d] is the index of dart d in the rotation at its tail.
        self._pos = [0] * (2 * m)
        for v, darts in enumerate(self.rotation):
            for idx, d in enumerate(darts):
                if not 0 <= d < 2 * m or seen[d]:
                    raise EmbeddingError(f"dart {d} missing or repeated")
                if self.edges[d >> 1][d & 1] != v:  # tail(d)
                    raise EmbeddingError(f"dart {d} listed at the wrong vertex")
                seen[d] = True
                self._pos[d] = idx
        if not all(seen):
            raise EmbeddingError("some darts are absent from the rotation")

        self.faces = self._trace_faces()
        iso = sum(1 for darts in self.rotation if not darts)
        comps = self._component_count()
        if self.n - m + len(self.faces) + iso != 2 * comps:
            raise EmbeddingError("rotation system is not planar (Euler check failed)")

    # -- dart helpers --------------------------------------------------------

    def head(self, d: int) -> int:
        return self.edges[d >> 1][1 - (d & 1)]

    def degree(self, v: int) -> int:
        """Incident edge-ends, so parallel edges count with multiplicity."""
        return len(self.rotation[v])

    def _trace_faces(self) -> tuple[tuple[int, ...], ...]:
        """Faces in order of their least dart, each walked from that dart."""
        edges, rotation, pos = self.edges, self.rotation, self._pos
        consumed = [False] * len(pos)
        faces = []
        for d0 in range(len(consumed)):
            if consumed[d0]:
                continue
            walk = []
            d = d0
            while True:
                walk.append(d)
                consumed[d] = True
                # The next dart is the successor of d ^ 1 at its tail.
                d ^= 1
                darts = rotation[edges[d >> 1][d & 1]]
                d = darts[(pos[d] + 1) % len(darts)]
                if d == d0:
                    break
                if consumed[d]:
                    raise EmbeddingError("face walk revisited a consumed dart")
            faces.append(tuple(walk))
        return tuple(faces)

    def _component_count(self) -> int:
        adj = [0] * self.n  # parallel edges set the same bit
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        count = 0
        left = (1 << self.n) - 1
        while left:
            left &= ~sum(_layers(adj, (left & -left).bit_length() - 1))
            count += 1
        return count

    # -- views ---------------------------------------------------------------

    def is_triangulated(self) -> bool:
        return all(len(f) == 3 for f in self.faces)

    def is_simple(self) -> bool:
        norm = {(min(u, v), max(u, v)) for u, v in self.edges}
        return len(norm) == len(self.edges)

    def graph(self) -> Graph:
        if not self.is_simple():
            raise GraphError("embedding has parallel edges; read them from edges")
        return Graph(self.n, list(self.edges))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        if not self.is_simple():
            raise EmbeddingError("neighbor rotation lists cannot name parallel edges")
        rotation = [[self.head(d) for d in darts] for darts in self.rotation]
        return json.dumps({"n": self.n, "rotation": rotation})

    @classmethod
    def from_json(cls, text: str) -> PlanarEmbedding:
        """Rebuild a simple embedding from neighbor rotation lists.

        Edge e is the e-th vertex pair in sorted order.  Every pair needs
        exactly two edge-ends, one in each endpoint's list; a pair listed more
        often would be a parallel edge, which this format cannot pair up.
        Malformed input of any kind raises EmbeddingError; the constructor
        rejects out-of-range neighbors and self-loops.
        """
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise EmbeddingError(f"embedding is not JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise EmbeddingError("embedding JSON must be an object")
        n, neighbor_rotation = obj.get("n"), obj.get("rotation")
        if type(n) is not int or n < 1 or not isinstance(neighbor_rotation, list):
            raise EmbeddingError('embedding needs an integer "n" >= 1 and a "rotation" list')
        if len(neighbor_rotation) != n:
            raise EmbeddingError("rotation must list every vertex")
        ends: Counter[tuple[int, int]] = Counter()
        for u, nbrs in enumerate(neighbor_rotation):
            if not isinstance(nbrs, list) or not all(type(v) is int for v in nbrs):
                raise EmbeddingError(f"rotation of vertex {u} is not a list of integers")
            for v in nbrs:
                ends[min(u, v), max(u, v)] += 1
        for (u, v), c in ends.items():
            if c != 2:
                raise EmbeddingError(f"{c} edge-ends between {u} and {v}, expected 2")
        edges = sorted(ends)
        index = {pair: e for e, pair in enumerate(edges)}
        rotation = [
            [2 * index[min(u, v), max(u, v)] + (u > v) for v in nbrs]
            for u, nbrs in enumerate(neighbor_rotation)
        ]
        return cls(n, edges, rotation)


# -- construction ------------------------------------------------------------


class _MutableEmbedding:
    """Dart-level workspace used by the builders; frozen on finish()."""

    def __init__(self):
        self.edges: list[tuple[int, int]] = [(0, 1), (1, 2), (2, 0)]
        self.rot: list[list[int]] = [[0, 5], [2, 1], [4, 3]]
        # Both faces of the starting triangle, as dart walks.
        self.faces: list[list[int]] = [[0, 2, 4], [1, 5, 3]]

    def tail(self, d: int) -> int:
        return self.edges[d >> 1][d & 1]

    def _insert_after(self, v: int, anchor: int, new: int) -> None:
        idx = self.rot[v].index(anchor)
        self.rot[v].insert(idx + 1, new)

    def new_edge(self, u: int, v: int) -> int:
        """Returns the dart u->v; v->u is its xor-1 partner."""
        e = len(self.edges)
        self.edges.append((u, v))
        return 2 * e

    def insert_vertex_in_face(self, face_idx: int) -> int:
        da, db, dc = self.faces[face_idx]
        a, b, c = self.tail(da), self.tail(db), self.tail(dc)
        w = len(self.rot)
        self.rot.append([])
        ga = self.new_edge(a, w)
        gb = self.new_edge(b, w)
        gc = self.new_edge(c, w)
        self._insert_after(a, dc ^ 1, ga)
        self._insert_after(b, da ^ 1, gb)
        self._insert_after(c, db ^ 1, gc)
        self.rot[w] = [gb ^ 1, ga ^ 1, gc ^ 1]
        self.faces[face_idx] = [da, gb, ga ^ 1]
        self.faces.append([db, gc, gb ^ 1])
        self.faces.append([dc, ga, gc ^ 1])
        return w

    def insert_chord(self, face_idx: int, j: int) -> None:
        """Split face (d_0..d_{k-1}) with a chord tail(d_j) -> tail(d_j+2)."""
        walk = self.faces[face_idx]
        k = len(walk)
        dj = walk[j]
        dj1 = walk[(j + 1) % k]
        dj2 = walk[(j + 2) % k]
        djm1 = walk[(j - 1) % k]
        x, z = self.tail(dj), self.tail(dj2)
        h = self.new_edge(x, z)
        self._insert_after(x, djm1 ^ 1, h)
        self._insert_after(z, dj1 ^ 1, h ^ 1)
        self.faces[face_idx] = [dj, dj1, h ^ 1]
        rest = [h]
        idx = (j + 2) % k
        while walk[idx] != dj:
            rest.append(walk[idx])
            idx = (idx + 1) % k
        self.faces.append(rest)

    def finish(self) -> PlanarEmbedding:
        return PlanarEmbedding(len(self.rot), self.edges, self.rot)


def _embed_maximal_planar(rng: random.Random, n: int) -> _MutableEmbedding:
    work = _MutableEmbedding()
    for _ in range(n - 3):
        face_idx = rng.randrange(len(work.faces))
        work.insert_vertex_in_face(face_idx)
    return work


def embed_maximal_planar(seed: int, n: int) -> PlanarEmbedding:
    """Simple maximal planar graph (m = 3n-6) grown by repeated insertion of
    a new vertex into a uniformly chosen triangular face; deterministic per
    seed."""
    if n < 3:
        raise GraphError("maximal planar graphs need n >= 3")
    return _embed_maximal_planar(random.Random(seed), n).finish()


def _seeded_maximal_planar(seed: int, n: int, m: int) -> tuple[random.Random, _MutableEmbedding]:
    """The generator for `seed` and the maximal planar graph it grows first,
    after checking that m edges can be kept from it."""
    if n < 3:
        raise GraphError("random planar graphs need n >= 3")
    if not 0 <= m <= 3 * n - 6:
        raise GraphError(f"edge count {m} outside 0..{3 * n - 6}")
    rng = random.Random(seed)
    return rng, _embed_maximal_planar(rng, n)


def random_planar(seed: int, n: int, m: int) -> Graph:
    """Planar-by-construction graph: maximal planar, then uniform edge
    deletions down to m edges."""
    rng, work = _seeded_maximal_planar(seed, n, m)
    full = sorted((min(u, v), max(u, v)) for u, v in work.edges)
    keep = rng.sample(full, m) if m < len(full) else full
    return Graph(n, keep)


def random_planar_embedding(seed: int, n: int, m: int) -> PlanarEmbedding:
    """Planar graph with its rotation system: random_planar's maximal planar
    graph for `seed`, cut to the m edges at random_planar's drawn positions
    but in insertion order rather than sorted (so in general another graph),
    each rotation restricted to the kept edges."""
    rng, work = _seeded_maximal_planar(seed, n, m)
    total = len(work.edges)
    keep_idx = sorted(rng.sample(range(total), m)) if m < total else list(range(total))
    keep_set = set(keep_idx)
    remap = {old: new for new, old in enumerate(keep_idx)}
    edges = [work.edges[old] for old in keep_idx]
    rotation = [
        [2 * remap[d >> 1] + (d & 1) for d in darts if (d >> 1) in keep_set]
        for darts in work.rot
    ]
    return PlanarEmbedding(n, edges, rotation)


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
    if not emb.is_simple():
        raise PreconditionError("triangulation input must be simple")
    g = emb.graph()
    if not g.is_connected():
        raise PreconditionError("triangulation input must be connected")
    ind = independent.mask
    for u, v in g.edges():
        if (ind >> u) & 1 and (ind >> v) & 1:
            raise PreconditionError("the designated set is not independent")

    work = _MutableEmbedding()
    work.edges = [tuple(e) for e in emb.edges]
    work.rot = [list(r) for r in emb.rotation]
    work.faces = [list(f) for f in emb.faces]

    # One pass over the face list; enumerate also reaches the faces that
    # insert_chord appends.  Every face before fi has length <= 3 and
    # insert_chord leaves faces[fi] a triangle, so the chords and their order
    # are those of a rescan from face 0 after each chord.
    for fi, walk in enumerate(work.faces):
        k = len(walk)
        if k <= 3:
            continue
        tails = [work.tail(d) for d in walk]
        counts = Counter(tails)
        best_j = -1
        best_pair = None
        for j, x in enumerate(tails):
            if counts[x] != 1 or (ind >> x) & 1:
                continue
            z = tails[(j + 2) % k]
            pair = (min(x, z), max(x, z))
            if best_pair is None or pair < best_pair:
                best_pair = pair
                best_j = j
        if best_j < 0:
            raise TriangulationBlocked(
                f"face {tuple(work.tail(d) for d in walk)} admits no chord"
            )
        work.insert_chord(fi, best_j)
    return work.finish()


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
    in the designated independent set of degree <= 7 vertices."""
    if any(len(f) != 3 for f in emb.faces):
        raise PreconditionError("charge audit requires a triangulated embedding")
    for v in low_independent:
        if emb.degree(v) > 7:
            raise PreconditionError(f"vertex {v} in the low set has degree > 7")
    members = set(low_independent)
    for u, v in emb.edges:
        if u in members and v in members:
            raise PreconditionError("designated low-degree set is not independent")

    initial = tuple([Fraction(emb.degree(v) - 6) for v in range(emb.n)])
    final = list(initial)
    transfers = []
    half = Fraction(1, 2)
    for v in range(emb.n):
        if emb.degree(v) >= 8:
            for d in emb.rotation[v]:
                w = emb.head(d)
                if w in members:
                    transfers.append((v, w, half))
                    final[v] -= half
                    final[w] += half
    total = sum(final, Fraction(0))
    negative = tuple([v for v in range(emb.n) if final[v] < 0])
    return ChargeLedger(initial, tuple(transfers), tuple(final), total, negative)


# -- generator for discharging-lemma instances --------------------------------


def _flip_random_edges(work: _MutableEmbedding, rng: random.Random, attempts: int) -> None:
    """Random diagonal flips on a triangulation; keeps it simple and maximal.

    Each attempt draws e = rng.randrange(len(work.edges)) and nothing else,
    so the seed alone fixes every flip.  For the faces f = (d, d1, d2) of
    dart d = 2e and g = (dr, g1, g2) of dr = 2e + 1, the attempt is skipped
    when d and dr lie on one face, when c = tail(d2) equals z = tail(g2), or
    when c and z are already adjacent.  Otherwise edge slot e becomes
    (c, z): d is inserted after d1^1 at c, dr after g1^1 at z, and f and g
    are rewritten in place to [d2, g1, dr] and [d, g2, d1].

    Two structures persist across attempts, so a flip costs O(degree):
    `adj[v]`, the adjacency bitmask of v, exact because no flip makes a
    parallel edge; and `face_of[d]`, the index in `work.faces` of the face
    holding dart d, which keeps its slot there.
    """
    edges, rot, faces = work.edges, work.rot, work.faces
    adj = [0] * len(rot)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    face_of = [0] * (2 * len(edges))
    for fi, walk in enumerate(faces):
        for d in walk:
            face_of[d] = fi
    for _ in range(attempts):
        e = rng.randrange(len(edges))
        d, dr = 2 * e, 2 * e + 1
        fi, gi = face_of[d], face_of[dr]
        if fi == gi:
            continue
        f, g = faces[fi], faces[gi]
        if len(f) != 3 or len(g) != 3:
            raise EmbeddingError("flip requires triangular faces")
        di, dri = f.index(d), g.index(dr)
        d1, d2 = f[(di + 1) % 3], f[(di + 2) % 3]
        g1, g2 = g[(dri + 1) % 3], g[(dri + 2) % 3]
        c, z = work.tail(d2), work.tail(g2)
        if c == z or (adj[c] >> z) & 1:
            continue
        u, v = edges[e]
        rot[u].remove(d)
        rot[v].remove(dr)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        edges[e] = (c, z)
        adj[c] |= 1 << z
        adj[z] |= 1 << c
        work._insert_after(c, d1 ^ 1, d)
        work._insert_after(z, g1 ^ 1, dr)
        f[:] = [d2, g1, dr]
        g[:] = [d, g2, d1]
        face_of[g1] = face_of[dr] = fi
        face_of[d] = face_of[d1] = gi


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
    so every (seed, n) replays bit for bit.  The flips keep a dart-to-face
    index and per-vertex adjacency masks across attempts (see
    `_flip_random_edges`), so each costs O(degree).
    """
    if n < 6:
        raise GraphError("min-degree-4 planar graphs need n >= 6")
    from .generators import derive_seed

    for attempt in range(_MIN_DEGREE4_ATTEMPTS):
        rng = random.Random(derive_seed(seed, attempt))
        work = _embed_maximal_planar(rng, n)
        _flip_random_edges(work, rng, 6 * len(work.edges))
        # Flips keep the triangulation simple and planar, so the graph is read
        # from the edge list without freezing the workspace into an embedding.
        g = Graph(len(work.rot), work.edges)
        active = (1 << g.n) - 1
        adj = [g.adjacency_mask(v) for v in range(g.n)]
        while True:
            low = next(
                (
                    v
                    for v in _mask_bits(active)
                    if (adj[v] & active).bit_count() == 3
                ),
                None,
            )
            if low is None:
                break
            active &= ~(1 << low)
        if active.bit_count() >= _MIN_CORE:
            core, _ = g.induced_subgraph(VertexSet.from_mask(g.n, active))
            if core.min_degree() >= 4:
                return core
    raise GenerationBudgetError(
        f"no min-degree-4 core of size >= {_MIN_CORE} in {_MIN_DEGREE4_ATTEMPTS} attempts",
        _MIN_DEGREE4_ATTEMPTS,
    )
