"""Exact domination and packing solvers, with X-relativized variants.

`exact_domination` / `exact_packing` are branch-and-bound searches over
bitmask state; `brute_force_*` enumerate vertex subsets outright and exist
purely to validate the branch-and-bound path.  Ties break toward the lowest
vertex index everywhere so witnesses are reproducible.

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
from fractions import Fraction
from itertools import combinations

from .graph import Graph, VertexSet, _mask_bits, is_packing


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: VertexSet
    nodes_explored: int
    optimal: bool


def _greedy_cover(n: int, closed: tuple[int, ...], covered: int) -> tuple[int, ...]:
    """Greedy max-coverage dominating completion starting from `covered`."""
    full = (1 << n) - 1
    chosen = []
    while covered != full:
        best_v = -1
        best_gain = 0
        for v in range(n):
            gain = (closed[v] & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        chosen.append(best_v)
        covered |= closed[best_v]
    return tuple(chosen)


def _greedy_packing(second: tuple[int, ...], eligible: int) -> tuple[int, ...]:
    """First-fit packing on the eligible mask (ascending vertex index)."""
    chosen = []
    avail = eligible
    while avail:
        v = (avail & -avail).bit_length() - 1
        chosen.append(v)
        avail &= ~second[v]
    return tuple(chosen)


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
    start = x.mask if x is not None else 0
    by_degree = sorted(range(n), key=lambda v: (closed[v].bit_count(), v))

    incumbent = _greedy_cover(n, closed, start)
    best_size = len(incumbent)
    best_set = incumbent
    nodes = 0
    chosen: list[int] = []

    def packing_lower_bound(uncovered: int) -> int:
        # Uncovered vertices with pairwise disjoint closed neighborhoods each
        # need their own dominator.
        cnt = 0
        avail = uncovered
        while avail:
            v = (avail & -avail).bit_length() - 1
            cnt += 1
            avail &= ~second[v]
        return cnt

    def dfs(covered: int, size: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if covered == full:
            if size < best_size:
                best_size = size
                best_set = tuple(chosen)
            return
        uncovered = full & ~covered
        if size + packing_lower_bound(uncovered) >= best_size:
            return
        v = next(v for v in by_degree if (uncovered >> v) & 1)
        gains = [(u, closed[u] & uncovered) for u in _mask_bits(closed[v])]
        for u, gain in gains:
            # u itself never qualifies as its own w: equal gain, w == u.
            if any(gain & ~other == 0 and (gain != other or w < u) for w, other in gains):
                continue
            chosen.append(u)
            dfs(covered | gain, size + 1)
            chosen.pop()

    dfs(start, 0)
    return SolveResult(best_size, VertexSet(n, best_set), nodes, True)


def exact_packing(g: Graph, x: VertexSet | None = None) -> SolveResult:
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
    """
    n = g.n
    closed = g.closed_masks
    second = g.second_masks
    eligible0 = ((1 << n) - 1) & ~(x.mask if x is not None else 0)

    incumbent = _greedy_packing(second, eligible0)
    best_size = len(incumbent)
    best_set = incumbent
    nodes = 0
    chosen: list[int] = []

    def cover_upper_bound(eligible: int) -> int:
        # k closed neighborhoods covering the eligible set bound any packing
        # inside it by k (two packing members never share a neighborhood);
        # each round covers the lowest eligible vertex with its best
        # closed neighbor.
        cnt = 0
        avail = eligible
        while avail:
            v = (avail & -avail).bit_length() - 1
            cnt += 1
            best = -1
            cands = closed[v]
            while cands:
                low = cands & -cands
                u = low.bit_length() - 1
                cands ^= low
                gain = (closed[u] & avail).bit_count()
                if gain > best:
                    best = gain
                    pick = u
            avail &= ~closed[pick]
        return cnt

    def dfs(eligible: int, size: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if size > best_size:
            best_size = size
            best_set = tuple(chosen)
        if not eligible:
            return
        v = min(_mask_bits(eligible), key=lambda u: (second[u] & eligible).bit_count())
        conflicts = second[v] & eligible
        if all(conflicts & ~second[u] == 0 for u in _mask_bits(conflicts)):
            chosen.append(v)
            dfs(eligible & ~conflicts, size + 1)
            chosen.pop()
            return
        if size + cover_upper_bound(eligible) <= best_size:
            return
        for u in _mask_bits(conflicts):
            chosen.append(u)
            dfs(eligible & ~second[u], size + 1)
            chosen.pop()
            eligible &= ~(1 << u)

    dfs(eligible0, 0)
    return SolveResult(best_size, VertexSet(n, best_set), nodes, True)


def brute_force_domination(g: Graph, x: VertexSet | None = None) -> SolveResult:
    """Subset enumeration oracle for exact_domination (use at n <= 8)."""
    n = g.n
    full = (1 << n) - 1
    closed = g.closed_masks
    start = x.mask if x is not None else 0
    checked = 0
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            checked += 1
            covered = start
            for v in combo:
                covered |= closed[v]
            if covered == full:
                return SolveResult(k, VertexSet(n, combo), checked, True)
    raise AssertionError("unreachable: V(g) always dominates")


def brute_force_packing(g: Graph, x: VertexSet | None = None) -> SolveResult:
    """Subset enumeration oracle for exact_packing (use at n <= 8)."""
    n = g.n
    xmask = x.mask if x is not None else 0
    eligible = [v for v in range(n) if not (xmask >> v) & 1]
    checked = 0
    for k in range(len(eligible), -1, -1):
        for combo in combinations(eligible, k):
            checked += 1
            p = VertexSet(n, combo)
            if is_packing(g, p, x):
                return SolveResult(k, p, checked, True)
    raise AssertionError("unreachable: the empty set is always a packing")


def greedy_domination(g: Graph) -> SolveResult:
    """Greedy max-coverage dominating set; H(max degree + 1) guarantee."""
    chosen = _greedy_cover(g.n, g.closed_masks, 0)
    return SolveResult(len(chosen), VertexSet(g.n, chosen), 0, False)


def max_ratio(g: Graph) -> Fraction:
    """gamma(g) / rho(g) as an exact rational."""
    gamma = exact_domination(g).value
    rho = exact_packing(g).value
    return Fraction(gamma, rho)
