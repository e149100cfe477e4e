"""Recognition and ordering witnesses for the graph classes in play.

Trees, strongly chordal graphs (via greedy simple-vertex elimination),
chordal bipartite graphs (via the split-clique reduction), and homogeneously
orderable graphs (via the Brandstaedt-Dragan-Nicolai characterisation, which
also keeps a greedy h-extremal elimination from blocking), in polynomial time.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import GraphError
from .graph import Graph, VertexSet, _components, _layers, _mask_bits, _set_mask, _square_mask


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and g.is_connected()


def _join_side(adj: tuple[int, ...], u: int) -> int:
    """The co-component of U's lowest vertex: the complement of g[U] grown
    from it.  It is a proper subset of U exactly when U = U_1 join U_2 with
    this side as U_1; every member of it is adjacent to all of the rest."""
    return sum(_layers([u & ~a for a in adj], (u & -u).bit_length() - 1))


def _square_cliques(
    adj: tuple[int, ...], active: int
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """Brandstaedt, Dragan and Nicolai (Homogeneously orderable graphs, TCS
    172, 1997): g[active] is homogeneously orderable iff G^2 is chordal and
    every maximal two-set U (maximal clique of G^2) is join-split: |U| = 1 or
    U = U_1 join U_2.  Reversed maximum cardinality search on G^2 is a perfect
    elimination ordering iff G^2 is chordal (Tarjan and Yannakakis, SIAM J.
    Comput. 13, 1984).  Returns it, each vertex's clique {v} + (later G^2
    neighbours) in its order, and each maximal two-set with the lowest vertex
    of each side; raises GraphError when the characterisation fails.
    """
    second = [0] * len(adj)
    rest = active
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        second[v] = _square_mask(adj, active, v)
        rest ^= low

    weight = [0] * len(adj)
    unvisited = active
    order, cliques = [], []
    while unvisited:
        heaviest = -1
        rest = unvisited
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            if weight[u] > heaviest:  # strict: ties go to the lowest index
                heaviest = weight[u]
                v = u
            rest ^= low
        unvisited &= ~(1 << v)
        clique = second[v] & ~unvisited  # v and its G^2-neighbours visited before it
        rest = clique
        while rest:
            low = rest & -rest
            if clique & ~second[low.bit_length() - 1]:
                raise GraphError("G^2 is not chordal: graph is not homogeneously orderable")
            rest ^= low
        order.append(v)
        cliques.append(clique)
        rest = second[v] & unvisited
        while rest:
            low = rest & -rest
            weight[low.bit_length() - 1] += 1
            rest ^= low
    order.reverse()
    cliques.reverse()

    two_sets = []
    for u in cliques:
        if any(u != w and u & w == u for w in cliques):
            continue
        side = _join_side(adj, u)
        if side == u and u.bit_count() > 1:
            raise GraphError(
                "maximal two-set is not join-split: graph is not homogeneously orderable"
            )
        rest = u & ~side
        two_sets.append((u, (side & -side) | (rest & -rest)))
    return order, cliques, two_sets


def _passes_characterisation(adj: tuple[int, ...], active: int) -> bool:
    try:
        _square_cliques(adj, active)
    except GraphError:
        return False
    return True


def _least_module(adj: tuple[int, ...], active: int, s: int, bound: int) -> int:
    """Least module of g[active] holding `s`, or 0 once it leaves `bound`: it
    takes in every vertex adjacent to some, but not all, of its members."""
    module = some = 0
    every = active
    new = s
    while new:
        if new & ~bound:
            return 0
        module |= new
        rest = new
        while rest:
            low = rest & -rest
            nbrs = adj[low.bit_length() - 1]
            some |= nbrs
            every &= nbrs
            rest ^= low
        new = some & ~every & active & ~module
    return module


def _h_extremal(adj: tuple[int, ...], active: int, v: int) -> tuple[int, int]:
    """The witness of `find_h_extremal_witness` in g[active] as a mask, or 0,
    and N^2[v] in g[active]: the answer reads nothing outside it, so
    `_eliminate` keeps it until a vertex of N^2[v] is removed."""
    closed_v = (adj[v] & active) | (1 << v)
    second = _square_mask(adj, active, v)
    left = closed_v
    while left:
        module = left & -left
        rest = closed_v
        while rest:
            low = rest & -rest
            if not module & low:
                module |= _least_module(adj, active, module | low, closed_v)
            rest ^= low
        left &= ~module
        covered = module
        rest = module
        while rest:
            low = rest & -rest
            covered |= adj[low.bit_length() - 1]
            rest ^= low
        if second & ~covered == 0:
            return module, second
    return 0, second


def find_h_extremal_witness(g: Graph, v: int) -> VertexSet | None:
    """Homogeneous D inside N[v] dominating N^2[v] (v is h-extremal), or None.

    D is a module.  Domination only grows with D, and modules that share a
    vertex have a module as their union, so the union M*(u) of u with each
    least module M(u, w) inside N[v] (w in N[v]) is the largest candidate
    holding u.  The M*(u) partition N[v], and the first that dominates N^2[v]
    by lowest u is returned: polynomial time, with no degree cap.
    """
    g._check_vertex(v)
    dmask, _ = _h_extremal(g._adj, (1 << g.n) - 1, v)
    return VertexSet.from_mask(g.n, dmask) if dmask else None


def _eliminate(
    adj: tuple[int, ...],
    local: Callable[[tuple[int, ...], int, int], tuple[object, int]],
    whole: Callable[[tuple[int, ...], int], bool] | None = None,
) -> tuple[int, ...] | None:
    """Remove the lowest vertex v that passes local(adj, active, v) and, when
    given, whole(adj, active - v), until none is left; the removal order, or
    None once no vertex qualifies.

    local(adj, active, v) returns (passes, watch): whether v passes in
    g[active], and a mask such that removing vertices outside it leaves that
    answer as it is.  The answer is kept until a vertex of `watch` is
    removed, so a test that watches nothing runs once per vertex.  `whole`
    runs on every try.
    """
    active = (1 << len(adj)) - 1
    stale = active  # vertices whose kept local result is out of date
    passes = 0  # vertices whose kept local result is true
    watch = [0] * len(adj)
    watchers = [0] * len(adj)  # watchers[w]: vertices that watched w, now or before
    perm = []
    while active:
        rest = stale | passes  # a vertex kept as failing cannot qualify
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if stale & low:
                stale ^= low
                ok, watch[v] = local(adj, active, v)
                if ok:
                    passes |= low
                seen = watch[v]
                while seen:
                    w = seen & -seen
                    watchers[w.bit_length() - 1] |= low
                    seen ^= w
            if passes & low and (whole is None or whole(adj, active ^ low)):
                break
            rest ^= low
        else:
            return None
        perm.append(v)
        active ^= low
        passes ^= low
        hit = watchers[v] & active & ~stale
        while hit:
            u = hit & -hit
            if watch[u.bit_length() - 1] & low:  # not an entry left by an older watch
                stale |= u
                passes &= ~u
            hit ^= u
    return tuple(perm)


def find_homogeneous_ordering(g: Graph) -> tuple[int, ...] | None:
    """A homogeneous ordering of g, or None when g has none; polynomial time.

    A homogeneous ordering removes, at each step, a vertex that is
    h-extremal in g[active].  The first run takes the lowest such vertex with
    no lookahead, and a run that completes is a homogeneous ordering.  Only a
    run that strands checks membership, by the Brandstaedt-Dragan-Nicolai
    characterisation (`_square_cliques`) of g: None for a non-member, and for
    a member a second run that takes the lowest h-extremal v leaving
    g[active - v] passing the characterisation.  While g[active] is
    homogeneously orderable the first vertex of any of its homogeneous
    orderings qualifies, and each vertex taken leaves an orderable
    remainder, so the second run never blocks.  Without the lookahead a run
    strands 35 of the 814 homogeneously orderable graphs on <= 7 vertices.

    A completed first run is the ordering the second would give: its later
    steps order each remainder it leaves, so each remainder is homogeneously
    orderable and passes the characterisation (its necessity half), and the
    lookahead would have taken the same lowest h-extremal vertex each step.
    """
    adj = g._adj
    ordering = _eliminate(adj, _h_extremal)
    if ordering is None and _passes_characterisation(adj, (1 << g.n) - 1):
        ordering = _eliminate(adj, _h_extremal, _passes_characterisation)
    return ordering


def _simple_vertex(adj: tuple[int, ...], active: int, v: int) -> tuple[bool, int]:
    """Whether the closed neighbourhoods of N[v]'s members in g[active] form
    an inclusion chain, and what `_eliminate` must watch to keep the answer.

    A simple v watches nothing: deleting other vertices keeps a chain a
    chain.  Two non-adjacent neighbours u and w of v have incomparable closed
    neighbourhoods, so v stays non-simple while both remain and watches
    {u, w}.  A simplicial v that is not simple watches N^2[v].
    """
    nbrs = adj[v] & active
    masks = []
    square = 1 << v  # N^2[v]
    rest = nbrs
    while rest:
        low = rest & -rest
        mask = (adj[low.bit_length() - 1] & active) | low
        far = nbrs & ~mask
        if far:
            return False, low | (far & -far)
        masks.append(mask)
        square |= mask
        rest ^= low
    # N[v] is a clique, so N[v] lies inside every mask and closes no gap.
    masks.sort(key=int.bit_count)
    prev = 0
    for mask in masks:
        if prev & ~mask:
            return False, square
        prev = mask
    return True, 0


def find_simple_elimination_ordering(g: Graph) -> tuple[int, ...] | None:
    """Greedy simple-vertex elimination; succeeds iff g is strongly chordal.

    Strongly chordal graphs are closed under induced subgraphs and always
    contain a simple vertex, so removing any simple vertex never gets stuck.
    """
    return _eliminate(g._adj, _simple_vertex)


def validate_simple_elimination_ordering(g: Graph, ordering: tuple[int, ...]) -> bool:
    if sorted(ordering) != list(range(g.n)):
        return False
    active = (1 << g.n) - 1
    for v in ordering:
        if not _simple_vertex(g._adj, active, v)[0]:
            return False
        active &= ~(1 << v)
    return True


def bipartition(g: Graph) -> tuple[VertexSet, VertexSet]:
    """2-coloring: side A is the even BFS layers from each component's lowest
    vertex.  An edge inside one layer closes an odd cycle, and without one the
    layer parity is a proper coloring."""
    adj = g._adj
    even = 0
    for layers in _components(adj):
        for depth, layer in enumerate(layers):
            if any(adj[v] & layer for v in _mask_bits(layer)):
                raise GraphError("graph is not bipartite (odd cycle found)")
            if depth % 2 == 0:
                even |= layer
    side_a = VertexSet.from_mask(g.n, even)
    return side_a, side_a.complement()


def split_clique(g: Graph, side: VertexSet) -> Graph:
    """g plus all edges inside `side`; (side, complement) must 2-color g.
    An error names the first edge of g.edges() inside a side: (v, u) for the
    lowest such v and its lowest neighbour u on v's side, so u > v."""
    s = _set_mask(g, side)
    adj = []
    for v, a in enumerate(g._adj):
        inside = s >> v & 1
        own = a & (s if inside else ~s)
        if own:
            raise GraphError(
                f"({v},{(own & -own).bit_length() - 1}) joins one side: "
                "(side, complement) is not a bipartition"
            )
        adj.append(a | (s ^ 1 << v) if inside else a)
    return Graph._from_adjacency(adj)


def is_chordal_bipartite(g: Graph) -> bool:
    """Bipartite g with every cycle of length >= 6 chorded.

    Recognized through the split lemma: g is chordal bipartite iff completing
    one side into a clique yields a strongly chordal graph.  A graph with an
    odd cycle is not bipartite, so it gets False.
    """
    try:
        side_a, _ = bipartition(g)
    except GraphError:
        return False
    return find_simple_elimination_ordering(split_clique(g, side_a)) is not None
