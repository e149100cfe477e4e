"""Exact domination and packing solvers, with X-relativized variants.

`exact_domination` / `exact_packing` are branch-and-bound searches over
bitmask state, their chosen and best sets included, and `greedy_domination`
is the max-coverage greedy (also the domination incumbent), whose size is
at most H(max degree + 1) times gamma.  Its picks and those of the packing
cover bound are `graph._best_cover`'s.  Ties break toward the lowest vertex
index everywhere so witnesses are reproducible.

Both searches branch on the most constrained vertex.  Domination is a set
cover of the uncovered vertices by closed neighbourhoods: it branches on the
uncovered vertex with the fewest closed neighbours, over only those
dominators whose new coverage no other dominator contains.  Packing is a
maximum independent set of G^2 on the eligible vertices: it branches on the
eligible vertex with the fewest eligible conflicts, over its conflicts, and
takes the vertex outright when those conflicts are pairwise conflicting.
Each solver's docstring says why its rules lose no optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexSet, _best_cover, _first_fit, _mask_bits, _set_mask


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: VertexSet
    nodes_explored: int
    optimal: bool


def _greedy_cover(n: int, closed: tuple[int, ...], covered: int) -> int:
    """Greedy max-coverage dominating completion starting from `covered`,
    as the mask of the vertices it takes, each pick by `_best_cover`."""
    full = (1 << n) - 1
    chosen = 0
    while covered != full:
        v = _best_cover(closed, full, full & ~covered)
        chosen |= 1 << v
        covered |= closed[v]
    return chosen


def exact_domination(g: Graph, x: VertexSet | None = None) -> SolveResult:
    """Minimum D with N[D] u X = V(g); gamma(g) when x is empty or None.

    X is pre-covered, so gamma_X is the same search started from X.  Each
    node branches on the uncovered vertex v with the fewest closed neighbours
    (ties to the lowest index): some dominator of v is in every solution, so
    trying each u in N[v] loses nothing.  A candidate u is dropped when
    another candidate w covers every uncovered vertex u covers (for equal
    coverage, all but the lowest index are dropped): swapping u for w in any
    solution still dominates V, so some optimum uses a kept candidate.  A
    packing of uncovered vertices bounds the dominators still needed.
    """
    n = g.n
    full = (1 << n) - 1
    closed = g.closed_masks
    second = g.second_masks
    start = _set_mask(g, x)
    by_degree = sorted(range(n), key=lambda v: (closed[v].bit_count(), v))

    best_set = _greedy_cover(n, closed, start)
    best_size = best_set.bit_count()
    nodes = 0

    def dfs(covered: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if covered == full:
            if size < best_size:
                best_size = size
                best_set = chosen
            return
        uncovered = full & ~covered
        # Uncovered vertices with pairwise disjoint closed neighborhoods each
        # need their own dominator.
        if size + _first_fit(second, uncovered).bit_count() >= best_size:
            return
        for v in by_degree:
            if (uncovered >> v) & 1:
                break
        gains = []
        rest = closed[v]
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            gains.append((u, closed[u] & uncovered))
            rest ^= low
        for u, gain in gains:
            # u itself never qualifies as its own w: equal gain, w == u.
            for w, other in gains:
                if gain & ~other == 0 and (gain != other or w < u):
                    break
            else:
                dfs(covered | gain, size + 1, chosen | 1 << u)

    dfs(start, 0, 0)
    return SolveResult(best_size, VertexSet.from_mask(n, best_set), nodes, True)


def exact_packing(
    g: Graph, x: VertexSet | None = None, at_most: int | None = None
) -> SolveResult:
    """Maximum P disjoint from X with pairwise disjoint closed neighborhoods.

    A packing is an independent set of G^2 (two members conflict when their
    closed neighbourhoods meet) on the vertices outside X.  Each node takes
    the eligible vertex v with the fewest eligible conflicts C (v included;
    ties to the lowest index).  Some maximum packing meets C, since v
    conflicts with nothing outside C and could otherwise be added.  If C is
    pairwise conflicting, any packing holds at most one vertex of C and v
    blocks nothing else, so v is taken without branching.  Otherwise the
    search tries each u in C in ascending order and drops u from the later
    branches, whose packings without u are all that is left.  A cover of the
    eligible set by closed neighbourhoods bounds what a branch can add.

    `at_most`, when given, must bound rho_X from above (gamma_X does, by
    weak duality): the search stops once a packing of that size is found.
    The search only ever replaces its best packing by a larger one, so the
    value and the witness are those of the full search; only the node count
    can shrink.
    """
    n = g.n
    closed = g.closed_masks
    second = g.second_masks
    eligible0 = ((1 << n) - 1) & ~_set_mask(g, x)
    limit = n + 1 if at_most is None else at_most

    best_set = _first_fit(second, eligible0)
    best_size = best_set.bit_count()
    nodes = 0

    def cover_upper_bound(eligible: int) -> int:
        # k closed neighborhoods covering the eligible set bound any packing
        # inside it by k (two packing members never share a neighborhood);
        # each round covers the lowest eligible vertex with the closed
        # neighbor that `_best_cover` picks.
        cnt = 0
        avail = eligible
        while avail:
            v = (avail & -avail).bit_length() - 1
            cnt += 1
            avail &= ~closed[_best_cover(closed, closed[v], avail)]
        return cnt

    def dfs(eligible: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if size > best_size:
            best_size = size
            best_set = chosen
        if not eligible or best_size >= limit:
            return
        fewest = n + 1
        rest = eligible
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            count = (second[u] & eligible).bit_count()
            if count < fewest:  # strict: ties go to the lowest index
                fewest = count
                v = u
            rest ^= low
        conflicts = second[v] & eligible
        rest = conflicts
        while rest:
            low = rest & -rest
            if conflicts & ~second[low.bit_length() - 1]:
                break
            rest ^= low
        else:
            dfs(eligible & ~conflicts, size + 1, chosen | 1 << v)
            return
        if size + cover_upper_bound(eligible) <= best_size:
            return
        for u in _mask_bits(conflicts):
            dfs(eligible & ~second[u], size + 1, chosen | 1 << u)
            if best_size >= limit:
                return
            eligible &= ~(1 << u)

    if best_size < limit:
        dfs(eligible0, 0, 0)
    return SolveResult(best_size, VertexSet.from_mask(n, best_set), nodes, True)


def greedy_domination(g: Graph) -> SolveResult:
    """Greedy max-coverage dominating set; H(max degree + 1) guarantee."""
    chosen = _greedy_cover(g.n, g.closed_masks, 0)
    return SolveResult(chosen.bit_count(), VertexSet.from_mask(g.n, chosen), 0, False)
