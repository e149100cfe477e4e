"""Exhaustive reference for h-extremal vertices and homogeneous orderings.

`h_extremal_witness` tries every subset of N[v] in size-ascending, then
lexicographic, order, and `homogeneous_ordering` backtracks over h-extremal
vertices with a memo of vertex sets that have no ordering.  Both take
exponential time and share no code with `dompack.recognition`, so the tests
use them as the oracle for its polynomial algorithms on small graphs.
`is_homogeneous` is the definition of a homogeneous set, which the tests use
to check the witnesses that `find_h_extremal_witness` returns.
"""

from itertools import combinations

from dompack import GraphError


def is_homogeneous(g, a):
    """True iff every member of the VertexSet `a` has the same neighborhood
    outside `a`."""
    if not a:
        raise GraphError("homogeneity is defined for nonempty sets")
    outside = ~a.mask
    members = a.members()
    target = g.adjacency_mask(members[0]) & outside
    return all(g.adjacency_mask(v) & outside == target for v in members[1:])


def _members(mask):
    return [u for u in range(mask.bit_length()) if (mask >> u) & 1]


def h_extremal_witness(adj, active, v):
    """Mask of the first homogeneous D inside N[v] dominating N^2[v] in
    g[active], or None; `adj` holds g's adjacency masks."""
    closed_v = (adj[v] & active) | (1 << v)
    members = _members(closed_v)
    second = closed_v
    for u in _members(adj[v] & active):
        second |= adj[u] & active
    for size in range(1, len(members) + 1):
        for combo in combinations(members, size):
            dmask = sum(1 << u for u in combo)
            outside = active & ~dmask
            base = adj[combo[0]] & outside
            if any(adj[u] & outside != base for u in combo[1:]):
                continue
            covered = dmask
            for u in combo:
                covered |= adj[u] & active
            if covered & second == second:
                return dmask
    return None


def homogeneous_ordering(adj, n):
    """A homogeneous ordering of the graph on range(n), or None."""
    dead = set()

    def extend(active, acc):
        if active == 0:
            return True
        if active in dead:
            return False
        for v in _members(active):
            if h_extremal_witness(adj, active, v) is not None:
                acc.append(v)
                if extend(active & ~(1 << v), acc):
                    return True
                acc.pop()
        dead.add(active)
        return False

    acc = []
    return tuple(acc) if extend((1 << n) - 1, acc) else None


def is_homogeneous_ordering(adj, perm):
    """Every vertex of `perm` is h-extremal in the graph its suffix induces."""
    active = (1 << len(perm)) - 1
    if sorted(perm) != list(range(len(perm))):
        return False
    for v in perm:
        if h_extremal_witness(adj, active, v) is None:
            return False
        active &= ~(1 << v)
    return True
