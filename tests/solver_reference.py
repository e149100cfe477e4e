"""Subset-enumeration reference for the exact domination and packing solvers.

`brute_force_domination` tries vertex subsets by increasing size and
`brute_force_packing` by decreasing size, each in lexicographic order, and
returns the first that qualifies.  They follow the definitions directly and
share no search code with `dompack.solvers`, so the tests use them as the
oracle for its branch-and-bound searches.  Both take exponential time: use
them at n <= 8 or on graphs whose answer is found among small subsets.
"""

from itertools import combinations

from dompack import SolveResult, VertexSet, is_packing


def brute_force_domination(g, x=None):
    """Least D with N[D] together with X covering V(g)."""
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


def brute_force_packing(g, x=None):
    """Largest P outside X with pairwise disjoint closed neighborhoods."""
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
