"""Recognition and ordering witnesses for the graph classes in play.

Trees, strongly chordal graphs (via greedy simple-vertex elimination),
chordal bipartite graphs (via the split-clique reduction), and homogeneously
orderable graphs (via backtracking over h-extremal vertices).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, GraphError
from .graph import Graph, VertexSet, _mask_bits

SIMPLE_ELIMINATION = "simple-elimination"
HOMOGENEOUS = "homogeneous"

H_EXTREMAL_DEGREE_CAP = 20
HOMOGENEOUS_ORDERING_BUDGET = 500_000


@dataclass(frozen=True)
class Ordering:
    perm: tuple[int, ...]
    kind: str


@dataclass(frozen=True)
class HExtremalWitness:
    vertex: int
    dominating_set: VertexSet


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and g.is_connected()


def is_homogeneous(g: Graph, a: VertexSet) -> bool:
    """True iff every member of `a` has the same neighborhood outside `a`."""
    if not a:
        raise GraphError("homogeneity is defined for nonempty sets")
    outside = ~a.mask
    members = a.members()
    target = g.adjacency_mask(members[0]) & outside
    return all(g.adjacency_mask(v) & outside == target for v in members[1:])


def _h_extremal_search(
    adj: tuple[int, ...], active: int, v: int, degree_cap: int
) -> int | None:
    """Homogeneous D subset of N[v] dominating N^2[v] inside g[active].

    Everything is computed in the induced subgraph on `active`.  Returns the
    mask of the first witness in size-ascending, then lexicographic, order.
    """
    closed_v = (adj[v] & active) | (1 << v)
    members = list(_mask_bits(closed_v))
    if len(members) > degree_cap + 1:
        raise BudgetExceededError(
            f"h-extremal search over {len(members)} closed neighbors exceeds "
            f"the degree cap {degree_cap}"
        )
    second = closed_v
    for u in _mask_bits(adj[v] & active):
        second |= adj[u] & active
    closed_in = {u: (adj[u] & active) | (1 << u) for u in members}

    from itertools import combinations

    for size in range(1, len(members) + 1):
        for combo in combinations(members, size):
            dmask = 0
            for u in combo:
                dmask |= 1 << u
            outside = active & ~dmask
            base = adj[combo[0]] & outside
            if any(adj[u] & outside != base for u in combo[1:]):
                continue
            covered = 0
            for u in combo:
                covered |= closed_in[u]
            if covered & second == second:
                return dmask
    return None


def find_h_extremal_witness(
    g: Graph, v: int, *, degree_cap: int = H_EXTREMAL_DEGREE_CAP
) -> HExtremalWitness | None:
    """Witness that v is h-extremal, searched inside N[v].

    Restricting the search to subsets of N[v] loses nothing: whenever some
    homogeneous subset of N^2[v] dominates N^2[v], one inside N[v] does too.
    """
    g._check_vertex(v)
    full = (1 << g.n) - 1
    dmask = _h_extremal_search(g._adj, full, v, degree_cap)
    if dmask is None:
        return None
    return HExtremalWitness(v, VertexSet.from_mask(g.n, dmask))


def find_homogeneous_ordering(
    g: Graph, *, node_budget: int = HOMOGENEOUS_ORDERING_BUDGET
) -> Ordering | None:
    """Backtracking search for a homogeneous ordering, or None.

    Raises BudgetExceededError when the backtracking budget runs out, which
    is distinct from a definite negative answer.
    """
    adj = g._adj
    full = (1 << g.n) - 1
    dead: set[int] = set()
    nodes = 0

    def extend(active: int, acc: list[int]) -> bool:
        nonlocal nodes
        if active == 0:
            return True
        if active in dead:
            return False
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"homogeneous ordering search exceeded {node_budget} nodes"
            )
        for v in _mask_bits(active):
            if _h_extremal_search(adj, active, v, H_EXTREMAL_DEGREE_CAP) is not None:
                acc.append(v)
                if extend(active & ~(1 << v), acc):
                    return True
                acc.pop()
        dead.add(active)
        return False

    acc: list[int] = []
    if extend(full, acc):
        return Ordering(tuple(acc), HOMOGENEOUS)
    return None


def validate_homogeneous_ordering(g: Graph, ordering: Ordering) -> bool:
    """Re-check h-extremality of each vertex in its suffix-induced subgraph."""
    if sorted(ordering.perm) != list(range(g.n)):
        return False
    active = (1 << g.n) - 1
    for v in ordering.perm:
        if _h_extremal_search(g._adj, active, v, H_EXTREMAL_DEGREE_CAP) is None:
            return False
        active &= ~(1 << v)
    return True


def _is_simple_vertex(adj: tuple[int, ...], active: int, v: int) -> bool:
    """Closed neighborhoods of N[v]'s members form an inclusion chain."""
    closed_v = (adj[v] & active) | (1 << v)
    masks = sorted(
        ((adj[u] & active) | (1 << u) for u in _mask_bits(closed_v)),
        key=int.bit_count,
    )
    return all(a & ~b == 0 for a, b in zip(masks, masks[1:]))


def find_simple_elimination_ordering(g: Graph) -> Ordering | None:
    """Greedy simple-vertex elimination; succeeds iff g is strongly chordal.

    Strongly chordal graphs are closed under induced subgraphs and always
    contain a simple vertex, so removing any simple vertex never gets stuck.
    """
    adj = g._adj
    active = (1 << g.n) - 1
    perm = []
    while active:
        for v in _mask_bits(active):
            if _is_simple_vertex(adj, active, v):
                perm.append(v)
                active &= ~(1 << v)
                break
        else:
            return None
    return Ordering(tuple(perm), SIMPLE_ELIMINATION)


def validate_simple_elimination_ordering(g: Graph, ordering: Ordering) -> bool:
    if sorted(ordering.perm) != list(range(g.n)):
        return False
    active = (1 << g.n) - 1
    for v in ordering.perm:
        if not _is_simple_vertex(g._adj, active, v):
            return False
        active &= ~(1 << v)
    return True


def bipartition(g: Graph) -> tuple[VertexSet, VertexSet]:
    """BFS 2-coloring; side A holds the lowest-index vertex of each component."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in _mask_bits(g.adjacency_mask(u)):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise GraphError("graph is not bipartite (odd cycle found)")
    side_a = VertexSet(g.n, [v for v in range(g.n) if color[v] == 0])
    return side_a, side_a.complement()


def split_clique(g: Graph, side: VertexSet) -> Graph:
    """g plus all edges inside `side`; (side, complement) must 2-color g."""
    for u, v in g.edges():
        if (u in side) == (v in side):
            raise GraphError(
                f"({u},{v}) joins one side: (side, complement) is not a bipartition"
            )
    extra = []
    members = side.members()
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            extra.append((u, v))
    return Graph(g.n, g.edges() + extra)


def is_chordal_bipartite(g: Graph) -> bool:
    """Bipartite g with every cycle of length >= 6 chorded.

    Recognized through the split lemma: g is chordal bipartite iff completing
    one side into a clique yields a strongly chordal graph.
    """
    side_a, _ = bipartition(g)
    return find_simple_elimination_ordering(split_clique(g, side_a)) is not None
