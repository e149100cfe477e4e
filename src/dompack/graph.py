"""Core graph substrate: fixed-capacity vertex sets and immutable simple graphs.

Vertices are dense 0-based indices.  Graphs are immutable values with no edit
operations; an induced subgraph is densely reindexed in the order of its
vertices.  Adjacency is stored as one int bitmask per vertex, which
keeps the solver hot loops cheap.  `Graph(n, edges)` validates an edge list
and the private `Graph._from_adjacency` takes trusted masks; both end in
`Graph._fill`, which checks 1 <= n <= MAX_VERTICES and sets every attribute.
A `VertexSet` passed together with a graph (to the predicates here, to
`induced_subgraph` and to the solvers) must have capacity g.n; any other
capacity raises `GraphError`.  Two private kernels serve the other modules:
`_components` is the one walk over a graph's components, and `_pair_fault`
the one check of a domination-packing pair (D, P).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .errors import GraphError, VertexRangeError

MAX_VERTICES = 512


def _vertex_count(n: int) -> int:
    if not 0 < n <= MAX_VERTICES:
        raise GraphError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    return n


def _check_capacity(capacity: int) -> None:
    if not 0 < capacity <= MAX_VERTICES:
        raise GraphError(f"capacity must be in 1..{MAX_VERTICES}, got {capacity}")


def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _square_mask(adj: tuple[int, ...], active: int, v: int) -> int:
    """N^2[v] in g[active]: the vertices of `active` within distance 2 of v."""
    mask = 1 << v
    rest = (adj[v] & active) | mask
    while rest:
        low = rest & -rest
        mask |= adj[low.bit_length() - 1]
        rest ^= low
    return mask & active


def _layers(adj: Sequence[int], root: int) -> Iterator[int]:
    """Breadth-first layers from root as masks: {root}, then each next distance."""
    layer = seen = 1 << root
    while layer:
        yield layer
        nxt = 0
        for v in _mask_bits(layer):
            nxt |= adj[v]
        layer = nxt & ~seen
        seen |= layer


def _components(adj: Sequence[int], root: int = 0) -> Iterator[list[int]]:
    """Each component's BFS layers (see `_layers`): root's component first,
    then that of the lowest vertex left, and so on."""
    left = (1 << len(adj)) - 1
    while left:
        layers = list(_layers(adj, root))
        yield layers
        left &= ~sum(layers)  # the layers are disjoint, so their sum is their union
        root = (left & -left).bit_length() - 1


def _first_fit(masks: tuple[int, ...], allowed: int) -> int:
    """Lowest-index-first greedy over `allowed`: take the lowest vertex v
    left, drop masks[v] (which holds v) from what is left, repeat; returns
    the mask of the vertices taken."""
    taken = 0
    while allowed:
        low = allowed & -allowed
        taken |= low
        allowed &= ~masks[low.bit_length() - 1]
    return taken


@dataclass(frozen=True, slots=True, init=False, repr=False)
class VertexSet:
    """Immutable set of vertex indices drawn from a fixed range 0..capacity-1."""

    capacity: int
    mask: int

    def __init__(self, capacity: int, members: Iterable[int] = ()):
        _check_capacity(capacity)
        mask = 0
        for v in members:
            if not 0 <= v < capacity:
                raise VertexRangeError(f"vertex {v} outside 0..{capacity - 1}")
            mask |= 1 << v
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, capacity: int, mask: int) -> VertexSet:
        _check_capacity(capacity)
        if mask < 0 or mask >> capacity:
            raise VertexRangeError("mask has bits outside 0..capacity-1")
        obj = object.__new__(cls)
        object.__setattr__(obj, "capacity", capacity)
        object.__setattr__(obj, "mask", mask)
        return obj

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.capacity and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _mask_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def complement(self) -> VertexSet:
        return VertexSet.from_mask(self.capacity, ((1 << self.capacity) - 1) & ~self.mask)

    def __repr__(self) -> str:
        return f"VertexSet({self.capacity}, {{{', '.join(map(str, self))}}})"


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, n <= 512."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * _vertex_count(n)  # checked before the list is made
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if (adj[u] >> v) & 1:
                raise GraphError(f"duplicate edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._fill(adj)

    @classmethod
    def _from_adjacency(cls, adj: Sequence[int]) -> Graph:
        """The graph whose vertex v has adjacency mask adj[v].  The caller
        vouches that the masks are symmetric, loop-free and inside
        0..len(adj)-1; only the vertex count is checked."""
        g = object.__new__(cls)
        g._fill(adj)
        return g

    def _fill(self, adj: Sequence[int]) -> None:
        self.n = _vertex_count(len(adj))
        self.m = sum(a.bit_count() for a in adj) // 2
        self._adj = tuple(adj)
        self._closed = tuple([a | (1 << v) for v, a in enumerate(adj)])
        self._second: tuple[int, ...] | None = None

    # -- low-level masks (used heavily by the solvers) --------------------

    def adjacency_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v]

    @property
    def closed_masks(self) -> tuple[int, ...]:
        return self._closed

    @property
    def second_masks(self) -> tuple[int, ...]:
        if self._second is None:
            full = (1 << self.n) - 1
            self._second = tuple([_square_mask(self._adj, full, v) for v in range(self.n)])
        return self._second

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} outside 0..{self.n - 1}")

    # -- basic queries -----------------------------------------------------

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def min_degree(self) -> int:
        return min(a.bit_count() for a in self._adj)

    def max_degree(self) -> int:
        return max(a.bit_count() for a in self._adj)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            for k in _mask_bits(rest):
                out.append((u, u + 1 + k))
        return out

    def component_mask(self, v: int) -> int:
        self._check_vertex(v)
        return sum(_layers(self._adj, v))  # the layers are disjoint, so their sum is their union

    def is_connected(self) -> bool:
        return self.component_mask(0).bit_count() == self.n

    def induced_subgraph(self, keep: VertexSet) -> Graph:
        """Subgraph induced by `keep`, densely reindexed in increasing order."""
        mask = _set_mask(self, keep)
        if not mask:
            raise GraphError("induced subgraph needs at least one vertex")
        members = keep.members()
        index = {old: new for new, old in enumerate(members)}
        return Graph._from_adjacency(
            [sum(1 << index[u] for u in _mask_bits(self._adj[v] & mask)) for v in members]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _set_mask(g: Graph, s: VertexSet | None, default: int = 0) -> int:
    """The mask of `s` (`default` when s is None); a capacity other than g.n
    is a `GraphError`.  `g` may also be a `PlanarEmbedding`: only g.n is
    read."""
    if s is None:
        return default
    if s.capacity != g.n:
        raise GraphError(f"vertex set of capacity {s.capacity} used with a graph on n = {g.n}")
    return s.mask


def greedy_maximal_independent_set(g: Graph, within: VertexSet | None = None) -> VertexSet:
    """Lowest-index-first maximal independent subset of `within` (or V)."""
    allowed = _set_mask(g, within, (1 << g.n) - 1)
    return VertexSet.from_mask(g.n, _first_fit(g.closed_masks, allowed))


# -- validity predicates -----------------------------------------------------


def is_dominating(g: Graph, d: VertexSet, x: VertexSet | None = None) -> bool:
    """True iff N[d] together with the pre-covered set x covers V(g)."""
    covered = _set_mask(g, x)
    for v in _mask_bits(_set_mask(g, d)):
        covered |= g.closed_masks[v]
    return covered == (1 << g.n) - 1


def is_packing(g: Graph, p: VertexSet, x: VertexSet | None = None) -> bool:
    """True iff p avoids x and has pairwise disjoint closed neighborhoods."""
    mask = _set_mask(g, p)
    if mask & _set_mask(g, x):
        return False
    seen = 0
    for v in _mask_bits(mask):
        nb = g.closed_masks[v]
        if seen & nb:
            return False
        seen |= nb
    return True


def _pair_fault(g: Graph, d: VertexSet, p: VertexSet, x: VertexSet | None = None) -> str | None:
    """None when D dominates V(g) with X and P is a packing avoiding X, so
    that |P| <= rho_X <= gamma_X <= |D|; else which half fails, D first.
    Both predicates always run, so a set of another capacity raises
    `GraphError` even when the other half already fails."""
    dominates = is_dominating(g, d, x)
    packs = is_packing(g, p, x)
    if not dominates:
        return "D is not dominating"
    return None if packs else "P is not a packing"
