"""Seeded generators for every graph family the campaigns need.

Each generator is a pure function of its GenSpec, and class membership is
either guaranteed by construction (trees, rook graphs) or certified per
instance by the recognizers (interval, chordal bipartite, homogeneously
orderable).  Per-instance seeds in campaigns come from `derive_seed`, a
splitmix64-style mix of (master seed, instance index).
"""

from __future__ import annotations

import functools
import heapq
import operator
import random
from dataclasses import dataclass, field

from .codec import _adjacency
from .errors import GenerationBudgetError, GraphError
from .graph import Graph, _mask_bits
from .recognition import (
    find_homogeneous_ordering,
    find_simple_elimination_ordering,
    is_chordal_bipartite,
)

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """splitmix64 finalizer applied to master + (index+1) * golden gamma."""
    z = (master + (index + 1) * _GAMMA) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    seed: int
    params: dict = field(default_factory=dict)


def gen_tree(spec: GenSpec) -> Graph:
    """Uniform random labeled tree via Prufer-sequence decode."""
    n = spec.n
    if n < 1:
        raise GraphError("trees need n >= 1")
    if n == 1:
        return Graph(1)
    rng = random.Random(spec.seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, edges)


def gen_interval(spec: GenSpec) -> Graph:
    """Intersection graph of n random intervals; strongly chordal by nature,
    but every output is still pushed through the elimination-ordering filter."""
    n = spec.n
    if n < 1:
        raise GraphError("interval graphs need n >= 1")
    rng = random.Random(spec.seed)
    span = spec.params.get("span", 0.3)
    intervals = []
    for _ in range(n):
        lo = rng.random()
        intervals.append((lo, lo + rng.random() * span))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if intervals[i][0] <= intervals[j][1] and intervals[j][0] <= intervals[i][1]
    ]
    g = Graph(n, edges)
    if find_simple_elimination_ordering(g) is None:
        raise GraphError("interval graph failed the strongly chordal filter")
    return g


_CB_ATTEMPTS = 2000  # rejection-sampling attempts per chordal bipartite instance
CB_MAX_N = 16  # the largest n the chordal bipartite sampler takes


def gen_chordal_bipartite(spec: GenSpec) -> Graph:
    g, _ = gen_chordal_bipartite_with_stats(spec)
    return g


def gen_chordal_bipartite_with_stats(spec: GenSpec) -> tuple[Graph, int]:
    """Rejection-sample random bipartite graphs until the recognizer accepts;
    returns (graph, attempts) so campaigns can report the acceptance rate."""
    n = spec.n
    if not 2 <= n <= CB_MAX_N:
        raise GraphError(f"chordal bipartite sampling is capped at 2 <= n <= {CB_MAX_N}")
    p = spec.params.get("edge_prob", 0.3)
    for attempt in range(1, _CB_ATTEMPTS + 1):
        rng = random.Random(derive_seed(spec.seed, attempt))
        na = n // 2
        edges = [
            (i, na + j)
            for i in range(na)
            for j in range(n - na)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if is_chordal_bipartite(g):
            return g, attempt
    raise GenerationBudgetError(
        f"no chordal bipartite instance in {_CB_ATTEMPTS} attempts", _CB_ATTEMPTS
    )


def gen_distance_hereditary(spec: GenSpec) -> Graph:
    """Grow from K_1 by random pendant / true-twin / false-twin additions.

    Distance-hereditary graphs are homogeneously orderable (Brandstaedt,
    Dragan and Nicolai, TCS 172, 1997) and the recognizer is exact, so one
    attempt always suffices; membership is still certified, never assumed."""
    n = spec.n
    if n < 1:
        raise GraphError("distance-hereditary growth needs n >= 1")
    rng = random.Random(derive_seed(spec.seed, 1))
    adj = [0]
    for new in range(1, n):
        target = rng.randrange(new)
        op = rng.choice(("pendant", "true-twin", "false-twin"))
        if op == "pendant":
            nbrs = 1 << target
        elif op == "true-twin":
            nbrs = adj[target] | 1 << target
        else:
            nbrs = adj[target]
        adj.append(nbrs)
        for u in _mask_bits(nbrs):
            adj[u] |= 1 << new
    g = Graph._from_adjacency(adj)
    if find_homogeneous_ordering(g) is None:
        raise GraphError("grown graph is not homogeneously orderable")
    return g


def gen_rook(k: int, l: int) -> Graph:
    """Cartesian product of complete graphs K_k and K_l (rook's graph)."""
    if k < 1 or l < 1:
        raise GraphError("rook graphs need k, l >= 1")
    edges = []
    for i in range(k):
        for j in range(l):
            v = i * l + j
            for jj in range(j + 1, l):
                edges.append((v, i * l + jj))
            for ii in range(i + 1, k):
                edges.append((v, ii * l + j))
    return Graph(k * l, edges)


def gen_gnp(spec: GenSpec) -> Graph:
    """Erdos-Renyi G(n, p)."""
    rng = random.Random(spec.seed)
    p = spec.params.get("edge_prob", 0.5)
    edges = [
        (i, j) for i in range(spec.n) for j in range(i + 1, spec.n) if rng.random() < p
    ]
    return Graph(spec.n, edges)


def _cycle(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycles need n >= 3")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def _path(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def _complete(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def _complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise GraphError("complete bipartite sides need a, b >= 0")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _star(k: int) -> Graph:
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


_OCTAHEDRON = [
    (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 4), (2, 5), (3, 4), (3, 5),
]

# Icosahedron as a gyroelongated pentagonal bipyramid: apexes 0 and 11,
# upper pentagon 1..5, lower pentagon 6..10.
_ICOSAHEDRON = (
    [(0, i) for i in range(1, 6)]
    + [(1 + i, 1 + (i + 1) % 5) for i in range(5)]
    + [(11, i) for i in range(6, 11)]
    + [(6 + i, 6 + (i + 1) % 5) for i in range(5)]
    + [(1, 6), (1, 7), (2, 7), (2, 8), (3, 8), (3, 9), (4, 9), (4, 10), (5, 10), (5, 6)]
)


def gen_named(name: str) -> Graph:
    """Canonical constructions: C_n, P_n, K_n, K_{a,b}, star_k, octahedron,
    icosahedron."""
    s = name.strip().lower().replace("_", "").replace("{", "").replace("}", "")
    if s == "octahedron":
        return Graph(6, _OCTAHEDRON)
    if s == "icosahedron":
        return Graph(12, _ICOSAHEDRON)
    try:
        if s.startswith("star"):
            return _star(int(s[4:]))
        if s.startswith("c"):
            return _cycle(int(s[1:]))
        if s.startswith("p"):
            return _path(int(s[1:]))
        if s.startswith("k") and "," in s:
            a, b = s[1:].split(",")
            return _complete_bipartite(int(a), int(b))
        if s.startswith("k"):
            return _complete(int(s[1:]))
    except GraphError:
        raise  # the name parsed, but the helper refuses its size
    except ValueError:
        pass
    raise GraphError(f"unknown named graph {name!r}")


def generate(spec: GenSpec) -> Graph:
    """Dispatch on GenSpec.family; every family is replayable from its spec."""
    family = spec.family
    if family == "tree":
        return gen_tree(spec)
    if family == "interval":
        return gen_interval(spec)
    if family == "chordal-bipartite":
        return gen_chordal_bipartite(spec)
    if family == "distance-hereditary":
        return gen_distance_hereditary(spec)
    if family == "rook":
        k = spec.params.get("k", spec.n)
        l = spec.params.get("l", k)
        if k * l != spec.n:
            raise GraphError(f"rook spec has n = {spec.n}, but K{k} x K{l} has {k * l} vertices")
        return gen_rook(k, l)
    if family == "gnp":
        return gen_gnp(spec)
    if family == "named":
        name = spec.params["name"]
        g = gen_named(name)
        if g.n != spec.n:
            raise GraphError(f"named spec has n = {spec.n}, but {name} has {g.n} vertices")
        return g
    if family == "planar":
        from .planar import random_planar

        return random_planar(spec.seed, spec.n, spec.params["m"])
    if family == "min-degree-4-planar":
        from .planar import random_min_degree4_planar

        return random_min_degree4_planar(spec.seed, spec.n)
    raise GraphError(f"unknown generator family {spec.family!r}")


# -- isomorphism-free enumeration (test corpora) ------------------------------


def _tree_canonical(n: int, adj: list[list[int]]) -> tuple:
    """AHU canonical form of a free tree, rooted at its center(s): the form of
    a vertex is the sorted tuple of its children's forms, and the tree's is
    the least root form over its centers.  Each root form is built bottom-up
    over a BFS order from its center."""
    degree = [len(a) for a in adj]
    leaves = [v for v in range(n) if degree[v] <= 1]
    removed = len(leaves)
    while removed < n:
        nxt = []
        for v in leaves:
            degree[v] = 0
            for u in adj[v]:
                if degree[u] > 0:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        removed += len(nxt)
        leaves = nxt
    forms = []
    for center in leaves:
        parent = [-1] * n
        order = [center]
        for v in order:  # grows while it is read: a BFS
            for u in adj[v]:
                if u != parent[v]:
                    parent[u] = v
                    order.append(u)
        kids: list[list[tuple]] = [[] for _ in range(n)]
        for v in reversed(order[1:]):
            kids[v].sort()
            kids[parent[v]].append(tuple(kids[v]))
        kids[center].sort()
        forms.append(tuple(kids[center]))
    return min(forms)


def all_trees(n: int) -> list[Graph]:
    """All non-isomorphic trees on n vertices (canonical-form dedup), in
    canonical-form order.

    Built by attaching one leaf in every way to every tree on n-1 vertices;
    each level is built once per process.
    """
    if n < 1:
        raise GraphError("trees need n >= 1")
    return [Graph._from_adjacency(masks) for masks in _tree_level(n)[1]]


@functools.cache
def _tree_level(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The adjacency masks of the trees on n vertices twice: in the order they
    were first found, which level n + 1 extends, and in canonical-form order.
    Each tree of level n - 1 keeps one adjacency list, to which each new leaf
    n - 1 is added and from which it is taken again."""
    if n == 1:
        return ((0,),), ((0,),)
    found: dict[tuple, tuple[int, ...]] = {}
    leaf = 1 << n - 1
    for masks in _tree_level(n - 1)[0]:
        adj = [list(_mask_bits(a)) for a in masks]
        adj.append([])
        for v in range(n - 1):
            adj[v].append(n - 1)
            adj[n - 1].append(v)
            key = _tree_canonical(n, adj)
            if key not in found:
                grown = list(masks)
                grown[v] |= leaf
                found[key] = (*grown, 1 << v)
            adj[v].pop()
            adj[n - 1].pop()
    return tuple(found.values()), tuple(found[key] for key in sorted(found))


def _canonical_mask(mask: int, n: int) -> int:
    """Minimum pair-mask over all n! vertex relabelings: the canonical form of
    `all_graphs`, which calls it for n <= 7 (exact for any n).

    Positions fill from n-1 down.  Vertex w at position j fixes column j (bits
    (i, j), i < j), which outweighs every later column and is smallest with w's
    neighbours lowest in each cell of the unplaced vertices (bottom cell first).
    Only top-cell vertices tying for that smallest column are tried, each
    splitting every cell into (neighbours of w, the rest).

    Twins u and w, with N(u) - w = N(w) - u, are tried only once per cell:
    swapping them is an automorphism that fixes every other vertex, so it maps
    the search state to itself (every placed vertex sees both or neither, and
    they share the top cell) and w's branch onto u's, with the same minimum.
    """
    adj = _adjacency(mask, n)
    # N(u) - w = N(w) - u means N(u) = N(w) or N[u] = N[w], and no open
    # neighbourhood equals a closed one, so one table holds both kinds.
    classes: dict[int, int] = {}
    for v, a in enumerate(adj):
        for key in (a, a | 1 << v):
            classes[key] = classes.get(key, 0) | 1 << v
    twins = [classes[a] | classes[a | 1 << v] for v, a in enumerate(adj)]

    def least(cells: list[int], j: int) -> int:
        if j == 1:  # column 1 is the edge between the last two, in either order
            u, w = _mask_bits(cells[0] | cells[-1])
            return adj[u] >> w & 1
        scored, tried = [], 0
        for w in _mask_bits(cells[-1]):
            if twins[w] & tried:
                continue
            tried |= 1 << w
            col = 0  # w's own cell comes first, so its width never shifts in
            for c in reversed(cells):
                col = (col << c.bit_count()) | ((1 << (adj[w] & c).bit_count()) - 1)
            scored.append((col, w))
        low = min(scored)[0]
        tail = min(
            least([p for c in cells for p in (c & adj[w], c & ~(adj[w] | 1 << w)) if p], j - 1)
            for col, w in scored
            if col == low
        )
        return (low << j * (j - 1) // 2) | tail

    return least([(1 << n) - 1], n - 1) if n > 1 else 0


def _automorphisms(adj: list[int]) -> list[tuple[int, ...]]:
    """Every automorphism of the graph with adjacency masks `adj`, as the
    tuple of the images of 0..n-1, by backtracking over degree-preserving maps
    that keep each edge and non-edge to the vertices already mapped."""
    n = len(adj)
    degree = [a.bit_count() for a in adj]
    found: list[tuple[int, ...]] = []
    image: list[int] = []

    def extend(v: int, used: int) -> None:
        if v == n:
            found.append(tuple(image))
            return
        # The image of v must see exactly the images of v's mapped neighbours.
        target = sum(1 << image[u] for u in _mask_bits(adj[v] & ((1 << v) - 1)))
        for w in range(n):
            if not used >> w & 1 and degree[w] == degree[v] and adj[w] & used == target:
                image.append(w)
                extend(v + 1, used | 1 << w)
                image.pop()

    extend(0, 0)
    return found


def all_graphs(n: int) -> list[Graph]:
    """All non-isomorphic simple graphs on n vertices, capped at n <= 7.

    Level k graphs come from attaching a new vertex of maximum degree to the
    level k-1 representatives, once per automorphism orbit of its possible
    neighbourhoods, then deduplicating by the canonical form `_canonical_mask`:
    the minimum pair-mask (the graph6 bit layout, see `codec`) over all vertex
    relabelings.  Each representative is the graph of its canonical mask,
    returned in increasing mask order.  Each level is built once per process.
    """
    if not 1 <= n <= 7:
        raise GraphError("exhaustive graph enumeration is capped at n <= 7")
    return [Graph._from_adjacency(_adjacency(mask, n)) for mask in _graph_level(n)]


@functools.cache
def _graph_level(n: int) -> tuple[int, ...]:
    """The canonical masks of the graphs on n vertices, in increasing order.

    Every graph on n vertices is some level n-1 representative grown by a
    new vertex of maximum degree: delete a vertex of maximum degree and
    relabel.  So a representative is grown by a neighbourhood S only when the
    new vertex has maximum degree, that is, when |S| is at least the degree
    of every vertex outside S and exceeds the degree of every vertex in S;
    other subsets only repeat classes found anyway.  An automorphism p of the
    representative maps the growth by S onto the growth by p(S), an
    isomorphic graph, so only the least subset of each orbit is grown and
    canonicalised (McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 26, 1998).
    """
    if n == 1:
        return (0,)
    prev_pairs = (n - 1) * (n - 2) // 2
    masks = set()
    for mask in _graph_level(n - 1):
        adj = _adjacency(mask, n - 1)
        degree = [a.bit_count() for a in adj]
        top = max(degree)
        # at_least[k] holds the vertices of degree >= k, which S of size k avoids.
        at_least = [sum(1 << v for v, d in enumerate(degree) if d >= k) for k in range(n)]
        automorphisms = _automorphisms(adj)
        # images[v][k] is the bit of v's image under automorphisms[k].
        images = [tuple(1 << w for w in column) for column in zip(*automorphisms)]
        seen = set()
        for subset in range(1 << (n - 1)):
            size = subset.bit_count()
            if size >= top and not subset & at_least[size] and subset not in seen:
                masks.add(_canonical_mask(mask | subset << prev_pairs, n))
                orbit = [0] * len(automorphisms)
                for v in _mask_bits(subset):
                    orbit = map(operator.or_, orbit, images[v])
                seen.update(orbit)
    return tuple(sorted(masks))
