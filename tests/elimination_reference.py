"""Rescan reference for the greedy eliminations of `dompack.recognition`.

`rescan_ordering` re-tests every remaining vertex, lowest first, at each
step and keeps nothing between steps.  `recognition._eliminate` keeps each
vertex's local test until a vertex within distance 2 of it is removed, so the
tests require both to return the same orderings.
"""

from dompack.recognition import _h_extremal, _is_simple_vertex, _passes_characterisation


def rescan_ordering(adj, takes):
    """Remove the lowest vertex v with takes(active, v) until none is left;
    the removal order, or None once no vertex qualifies."""
    active = (1 << len(adj)) - 1
    perm = []
    while active:
        for v in range(len(adj)):
            if (active >> v) & 1 and takes(active, v):
                break
        else:
            return None
        perm.append(v)
        active &= ~(1 << v)
    return tuple(perm)


def simple_elimination_ordering(g):
    adj = g._adj
    return rescan_ordering(adj, lambda active, v: _is_simple_vertex(adj, active, v))


def homogeneous_ordering(g):
    adj = g._adj
    return rescan_ordering(
        adj,
        lambda active, v: _h_extremal(adj, active, v)
        and _passes_characterisation(adj, active & ~(1 << v)),
    )
