"""Rescan reference for the greedy eliminations of `dompack.recognition`.

`rescan_ordering` re-tests every remaining vertex, lowest first, at each
step and keeps nothing between steps.  `recognition._eliminate` keeps each
vertex's local test until a vertex within distance 2 of it is removed, so the
tests require both to return the same orderings.

The simple-vertex test here is written from the definition, apart from the
kernel it checks.  The homogeneous side reuses the kernel's `_h_extremal`
and characterisation, which have exhaustive oracles of their own.
"""

from dompack.recognition import _h_extremal, _passes_characterisation


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


def is_simple_vertex(closed, active, v):
    """The closed neighbourhoods in g[active] of N[v]'s members, as sets,
    are pairwise comparable under inclusion; closed[u] is N[u] in g."""
    alive = {u for u in range(len(closed)) if (active >> u) & 1}
    nbhds = [closed[u] & alive for u in closed[v] & alive]
    return all(a <= b or b <= a for a in nbhds for b in nbhds)


def simple_elimination_ordering(g):
    closed = [{u} for u in range(g.n)]
    for u, w in g.edges():
        closed[u].add(w)
        closed[w].add(u)
    return rescan_ordering(g._adj, lambda active, v: is_simple_vertex(closed, active, v))


def homogeneous_ordering(g):
    adj = g._adj
    return rescan_ordering(
        adj,
        lambda active, v: _h_extremal(adj, active, v)[0]
        and _passes_characterisation(adj, active & ~(1 << v)),
    )
