"""Planar embeddings as rotation systems, plus the triangulation and
discharging machinery.

An embedding stores, per vertex, the cyclic order of incident edge-ends
(darts).  Edge e has darts 2e and 2e+1; dart 2e leaves edges[e][0], dart
2e+1 leaves edges[e][1].  Faces are traced with
face_next(d) = rotation-successor of the reversed dart at its tail, and the
constructor rejects any rotation system whose face count violates Euler's
formula (genus > 0), so planarity is guaranteed by construction everywhere
in this module and never tested generically.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import (
    DompackError,
    EmbeddingError,
    GenerationBudgetError,
    GraphError,
    PreconditionError,
)
from .graph import Graph, Multigraph, VertexSet, _mask_bits


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
        self.edges = tuple(tuple(e) for e in edges)
        self.rotation = tuple(tuple(r) for r in rotation)

        seen = [False] * (2 * m)
        self._pos: dict[int, tuple[int, int]] = {}
        for v, darts in enumerate(self.rotation):
            for idx, d in enumerate(darts):
                if not 0 <= d < 2 * m or seen[d]:
                    raise EmbeddingError(f"dart {d} missing or repeated")
                if self.tail(d) != v:
                    raise EmbeddingError(f"dart {d} listed at the wrong vertex")
                seen[d] = True
                self._pos[d] = (v, idx)
        if not all(seen):
            raise EmbeddingError("some darts are absent from the rotation")

        self.faces = self._trace_faces()
        iso = sum(1 for darts in self.rotation if not darts)
        comps = self._component_count()
        if self.n - m + len(self.faces) + iso != 2 * comps:
            raise EmbeddingError("rotation system is not planar (Euler check failed)")

    # -- dart helpers --------------------------------------------------------

    def tail(self, d: int) -> int:
        return self.edges[d >> 1][d & 1]

    def head(self, d: int) -> int:
        return self.edges[d >> 1][1 - (d & 1)]

    def degree(self, v: int) -> int:
        """Incident edge-ends, so parallel edges count with multiplicity."""
        return len(self.rotation[v])

    def next_dart(self, d: int) -> int:
        v, idx = self._pos[d]
        darts = self.rotation[v]
        return darts[(idx + 1) % len(darts)]

    def face_next(self, d: int) -> int:
        return self.next_dart(d ^ 1)

    def _trace_faces(self) -> tuple[tuple[int, ...], ...]:
        remaining = set(self._pos)
        faces = []
        while remaining:
            d0 = min(remaining)
            walk = []
            d = d0
            while True:
                walk.append(d)
                remaining.discard(d)
                d = self.face_next(d)
                if d == d0:
                    break
                if d not in remaining:
                    raise EmbeddingError("face walk revisited a consumed dart")
            faces.append(tuple(walk))
        return tuple(faces)

    def _component_count(self) -> int:
        seen = [False] * self.n
        count = 0
        for start in range(self.n):
            if seen[start]:
                continue
            count += 1
            stack = [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                for d in self.rotation[v]:
                    w = self.head(d)
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        return count

    # -- views ---------------------------------------------------------------

    def face_vertices(self, face: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.tail(d) for d in face)

    def face_sizes(self) -> list[int]:
        return sorted(len(f) for f in self.faces)

    def is_triangulated(self) -> bool:
        return all(len(f) == 3 for f in self.faces)

    def multigraph(self) -> Multigraph:
        return Multigraph(self.n, self.edges)

    def is_simple(self) -> bool:
        norm = {(min(u, v), max(u, v)) for u, v in self.edges}
        return len(norm) == len(self.edges)

    def graph(self) -> Graph:
        if not self.is_simple():
            raise GraphError("embedding has parallel edges; use multigraph()")
        return Graph(self.n, list(self.edges))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        rotation = [[self.head(d) for d in darts] for darts in self.rotation]
        return json.dumps({"n": self.n, "rotation": rotation})

    @classmethod
    def from_json(cls, text: str) -> PlanarEmbedding:
        """Rebuild an embedding from neighbor rotation lists.

        Parallel edge-ends carry no explicit pairing in this format, so the
        i-th occurrence convention is tried first and other pairings are
        searched when it fails the planarity check.
        """
        obj = json.loads(text)
        n = obj["n"]
        neighbor_rotation = obj["rotation"]
        if len(neighbor_rotation) != n:
            raise EmbeddingError("rotation must list every vertex")
        counts: dict[tuple[int, int], int] = {}
        for u, nbrs in enumerate(neighbor_rotation):
            for v in nbrs:
                if not 0 <= v < n:
                    raise EmbeddingError(f"neighbor {v} outside 0..{n - 1}")
                if v == u:
                    raise EmbeddingError("self-loops are not allowed")
                counts[(min(u, v), max(u, v))] = counts.get((min(u, v), max(u, v)), 0) + 1
        for (u, v), c in counts.items():
            if c % 2:
                raise EmbeddingError(f"odd number of edge-ends between {u} and {v}")
        mult = {key: c // 2 for key, c in counts.items()}

        # Edge ids per pair: pair key gets a contiguous block of ids.
        base: dict[tuple[int, int], int] = {}
        nxt = 0
        for key in sorted(mult):
            base[key] = nxt
            nxt += mult[key]

        def build(assignment: dict[tuple[int, int], tuple[int, ...]]) -> PlanarEmbedding:
            edges: list[tuple[int, int]] = [(-1, -1)] * nxt
            rotation: list[list[int]] = [[] for _ in range(n)]
            seen: dict[tuple[int, int], int] = {}
            for u in range(n):
                for v in neighbor_rotation[u]:
                    key = (min(u, v), max(u, v))
                    occ = seen.get((u, v), 0)
                    seen[(u, v)] = occ + 1
                    sigma = assignment.get(key)
                    if u == key[0]:
                        e = base[key] + occ
                        side = 0
                    else:
                        # The upper endpoint's occ-th end joins the lower
                        # endpoint's sigma^-1(occ)-th edge.
                        i = sigma.index(occ) if sigma else occ
                        e = base[key] + i
                        side = 1
                    edges[e] = (key[0], key[1])
                    rotation[u].append(2 * e + side)
            return cls(n, edges, rotation)

        multi = sorted(key for key, k in mult.items() if k > 1)
        if not multi:
            return build({})
        plans = [list(permutations(range(mult[key]))) for key in multi]
        total = 1
        for p in plans:
            total *= len(p)
        if total > 10_000:
            raise EmbeddingError("too many parallel-edge pairings to resolve")
        from itertools import product

        last_err: Exception | None = None
        for combo in product(*plans):
            try:
                return build(dict(zip(multi, combo)))
            except EmbeddingError as exc:
                last_err = exc
        raise EmbeddingError(f"no planar pairing of parallel edge-ends: {last_err}")


_ICOSAHEDRON_ROTATION = [
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


def icosahedron_embedding() -> PlanarEmbedding:
    """The icosahedron as a triangulated embedding (5-regular, 20 faces)."""
    return PlanarEmbedding.from_json(
        json.dumps({"n": 12, "rotation": _ICOSAHEDRON_ROTATION})
    )


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

    def delete_edge_merge_faces(self, e: int) -> list[int]:
        """Remove edge e whose two darts lie on distinct faces; return the
        merged face walk (with e's darts gone)."""
        d, dr = 2 * e, 2 * e + 1
        fi = next(i for i, f in enumerate(self.faces) if d in f)
        gi = next(i for i, f in enumerate(self.faces) if dr in f)
        if fi == gi:
            raise EmbeddingError("deleting a bridge is not supported here")
        fwalk = self.faces[fi]
        gwalk = self.faces[gi]
        di = fwalk.index(d)
        gi2 = gwalk.index(dr)
        merged = fwalk[di + 1:] + fwalk[:di] + gwalk[gi2 + 1:] + gwalk[:gi2]
        for hi in sorted((fi, gi), reverse=True):
            del self.faces[hi]
        u, v = self.edges[e]
        self.rot[u].remove(d)
        self.rot[v].remove(dr)
        self.faces.append(merged)
        return merged

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


def random_planar(seed: int, n: int, m: int) -> Graph:
    """Planar-by-construction graph: maximal planar, then uniform edge
    deletions down to m edges."""
    if n < 3:
        raise GraphError("random_planar needs n >= 3")
    if not 0 <= m <= 3 * n - 6:
        raise GraphError(f"edge count {m} outside 0..{3 * n - 6}")
    rng = random.Random(seed)
    work = _embed_maximal_planar(rng, n)
    full = sorted((min(u, v), max(u, v)) for u, v in work.edges)
    keep = rng.sample(full, m) if m < len(full) else full
    return Graph(n, keep)


def random_planar_embedding(seed: int, n: int, m: int) -> PlanarEmbedding:
    """Like random_planar but keeps the (restricted) rotation system."""
    if n < 3:
        raise GraphError("random_planar_embedding needs n >= 3")
    if not 0 <= m <= 3 * n - 6:
        raise GraphError(f"edge count {m} outside 0..{3 * n - 6}")
    rng = random.Random(seed)
    work = _embed_maximal_planar(rng, n)
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

    progress = True
    while progress:
        progress = False
        for fi in range(len(work.faces)):
            walk = work.faces[fi]
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
            progress = True
            break
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

    initial = tuple(Fraction(emb.degree(v) - 6) for v in range(emb.n))
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
    negative = tuple(v for v in range(emb.n) if final[v] < 0)
    return ChargeLedger(initial, tuple(transfers), tuple(final), total, negative)


# -- generator for discharging-lemma instances --------------------------------


def _flip_random_edges(work: _MutableEmbedding, rng: random.Random, attempts: int) -> None:
    """Random diagonal flips on a triangulation; keeps it simple and maximal."""
    for _ in range(attempts):
        e = rng.randrange(len(work.edges))
        d, dr = 2 * e, 2 * e + 1
        fi = next(i for i, f in enumerate(work.faces) if d in f)
        gi = next(i for i, f in enumerate(work.faces) if dr in f)
        if fi == gi:
            continue
        fwalk, gwalk = work.faces[fi], work.faces[gi]
        if len(fwalk) != 3 or len(gwalk) != 3:
            raise EmbeddingError("flip requires triangular faces")
        di, gi2 = fwalk.index(d), gwalk.index(dr)
        c = work.tail(fwalk[(di + 2) % 3])
        z = work.tail(gwalk[(gi2 + 2) % 3])
        if c == z:
            continue
        adjacency = {(min(u, v), max(u, v)) for u, v in work.edges}
        if (min(c, z), max(c, z)) in adjacency:
            continue
        merged = work.delete_edge_merge_faces(e)
        # Reuse edge slot e for the new diagonal (c, z).
        j = next(
            i
            for i in range(len(merged))
            if work.tail(merged[i]) == c
            and work.tail(merged[(i + 2) % len(merged)]) == z
        )
        walk = merged
        k = len(walk)
        dj, dj1 = walk[j], walk[(j + 1) % k]
        djm1, dj2 = walk[(j - 1) % k], walk[(j + 2) % k]
        work.edges[e] = (c, z)
        work._insert_after(c, djm1 ^ 1, d)
        work._insert_after(z, dj1 ^ 1, dr)
        face_idx = next(i for i, f in enumerate(work.faces) if f == merged)
        work.faces[face_idx] = [dj, dj1, dr]
        work.faces.append([d, dj2, walk[(j + 3) % k]])


def random_min_degree4_planar(
    seed: int, n: int, *, min_core: int = 6, budget: int = 300
) -> Graph:
    """Simple planar graph with minimum degree >= 4.

    Pure rejection on insertion-built triangulations never succeeds (they
    always keep degree-3 vertices), so each attempt randomizes a
    triangulation with diagonal flips and then deletes degree-3 vertices
    until none remain; deleting a degree-3 vertex of a maximal planar graph
    leaves a maximal planar graph, so a surviving core with six or more
    vertices has minimum degree >= 4.
    """
    if n < 6:
        raise GraphError("min-degree-4 planar graphs need n >= 6")
    from .generators import derive_seed

    for attempt in range(budget):
        rng = random.Random(derive_seed(seed, attempt))
        work = _embed_maximal_planar(rng, n)
        _flip_random_edges(work, rng, 6 * len(work.edges))
        g = work.finish().graph()
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
        if active.bit_count() >= min_core:
            core, _ = g.induced_subgraph(VertexSet.from_mask(g.n, active))
            if core.min_degree() >= 4:
                return core
    raise GenerationBudgetError(
        f"no min-degree-4 core of size >= {min_core} in {budget} attempts"
    )
