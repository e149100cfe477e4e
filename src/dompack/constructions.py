"""Constructive domination-packing pairs for the four tractable classes.

Trees (deepest-first from a root) and strongly chordal graphs (along a
simple elimination ordering) get gamma = rho pairs in one pass; chordal
bipartite graphs combine the two split-clique strongly chordal graphs;
homogeneously orderable graphs get a maximum packing and a dominating set at
most twice its size from a clique cover of G^2, following the
Brandstaedt-Dragan-Nicolai characterisation of the class.
Every algorithm emits a DomPackCertificate that is revalidated against the
graph predicates before it leaves this module; an invalid certificate raises
instead of being returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ConstructionError, GraphError
from .graph import Graph, VertexSet, _mask_bits, is_dominating, is_packing
from .recognition import (
    SIMPLE_ELIMINATION,
    Ordering,
    bipartition,
    find_simple_elimination_ordering,
    is_chordal_bipartite,
    is_tree,
    split_clique,
    validate_simple_elimination_ordering,
)


@dataclass(frozen=True)
class DomPackCertificate:
    d: VertexSet
    p: VertexSet
    class_tag: str
    bound_constant: Fraction
    valid: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "class": self.class_tag,
                "D": list(self.d),
                "P": list(self.p),
                "bound": f"{self.bound_constant.numerator}/{self.bound_constant.denominator}",
                "valid": self.valid,
            }
        )


def _finalize(g: Graph, cert: DomPackCertificate) -> DomPackCertificate:
    """Revalidate a certificate; never return an invalid one."""
    if not is_dominating(g, cert.d):
        raise ConstructionError(f"{cert.class_tag}: D is not dominating")
    if not is_packing(g, cert.p):
        raise ConstructionError(f"{cert.class_tag}: P is not a packing")
    if len(cert.d) > cert.bound_constant * len(cert.p):
        raise ConstructionError(
            f"{cert.class_tag}: |D|={len(cert.d)} exceeds "
            f"{cert.bound_constant} * |P|={len(cert.p)}"
        )
    return replace(cert, valid=True)


def tree_dompack(t: Graph, root: int) -> DomPackCertificate:
    """Equal-size dominating set and packing on a tree (gamma = rho).

    Vertices are processed deepest-first from the root; each one joins P when
    it keeps all pairwise distances >= 3, and D is the parent image of P with
    parent(root) = root.
    """
    if not is_tree(t):
        raise GraphError("tree_dompack requires a tree")
    t._check_vertex(root)
    depths = t.bfs_depths(root)
    parent = [root] * t.n
    for v in sorted(range(t.n), key=lambda v: depths[v]):
        if v == root:
            continue
        for u in _mask_bits(t.adjacency_mask(v)):
            if depths[u] == depths[v] - 1:
                parent[v] = u
                break
    order = sorted(range(t.n), key=lambda v: (-depths[v], v))
    second = t.second_masks
    p_mask = 0
    blocked = 0
    for v in order:
        if not (blocked >> v) & 1:
            p_mask |= 1 << v
            blocked |= second[v]
    d_mask = 0
    for v in _mask_bits(p_mask):
        d_mask |= 1 << parent[v]
    cert = DomPackCertificate(
        VertexSet.from_mask(t.n, d_mask),
        VertexSet.from_mask(t.n, p_mask),
        "tree",
        Fraction(1),
    )
    cert = _finalize(t, cert)
    if len(cert.d) != len(cert.p):
        raise ConstructionError("tree: parent map collided on the packing")
    return cert


def strongly_chordal_dompack(g: Graph, ordering: Ordering) -> DomPackCertificate:
    """Single-pass gamma = rho pair along a simple elimination ordering.

    When v_i is still undominated, the dominator is the member of N[v_i]
    whose own closed neighborhood in the suffix graph is the inclusion
    maximum of the simple-vertex chain at v_i; v_i itself joins P.  The
    packing property of P is exactly where the ordering is exercised, so the
    certificate is always revalidated.
    """
    if ordering.kind != SIMPLE_ELIMINATION:
        raise GraphError(f"expected a {SIMPLE_ELIMINATION} ordering")
    if not validate_simple_elimination_ordering(g, ordering):
        raise GraphError("ordering is not a simple elimination ordering of g")
    adj = g._adj
    closed = g.closed_masks
    active = (1 << g.n) - 1
    dominated = 0
    d_mask = 0
    p_mask = 0
    for v in ordering.perm:
        if not (dominated >> v) & 1:
            best_u = -1
            best_cover = -1
            for u in _mask_bits((adj[v] & active) | (1 << v)):
                cover = ((adj[u] & active) | (1 << u)).bit_count()
                if cover > best_cover:
                    best_cover = cover
                    best_u = u
            d_mask |= 1 << best_u
            dominated |= closed[best_u]
            p_mask |= 1 << v
        active &= ~(1 << v)
    cert = DomPackCertificate(
        VertexSet.from_mask(g.n, d_mask),
        VertexSet.from_mask(g.n, p_mask),
        "strongly-chordal",
        Fraction(1),
    )
    cert = _finalize(g, cert)
    if len(cert.d) != len(cert.p):
        raise ConstructionError("strongly-chordal: dominator reused across triggers")
    return cert


def chordal_bipartite_dompack(g: Graph) -> DomPackCertificate:
    """gamma <= 2 rho pair via the two split-clique strongly chordal graphs."""
    if not is_chordal_bipartite(g):
        raise GraphError("graph is not chordal bipartite")
    side_a, side_b = bipartition(g)
    parts = []
    for side in (side_a, side_b):
        split = split_clique(g, side)
        ordering = find_simple_elimination_ordering(split)
        if ordering is None:
            raise ConstructionError("split graph unexpectedly not strongly chordal")
        parts.append(strongly_chordal_dompack(split, ordering))
    cert_a, cert_b = parts
    d = cert_a.d | cert_b.d
    p = cert_a.p if len(cert_a.p) >= len(cert_b.p) else cert_b.p
    return _finalize(g, DomPackCertificate(d, p, "chordal-bipartite", Fraction(2)))


def _join_side(adj: tuple[int, ...], u: int) -> int:
    """The co-component of U's lowest vertex: the complement of g[U] grown
    from it.  It is a proper subset of U exactly when U = U_1 join U_2 with
    this side as U_1; every member of it is adjacent to all of the rest."""
    side = frontier = u & -u
    while frontier:
        grow = 0
        for x in _mask_bits(frontier):
            grow |= u & ~adj[x]
        frontier = grow & ~side
        side |= frontier
    return side


def homogeneously_orderable_dompack(g: Graph) -> DomPackCertificate:
    """gamma <= 2 rho pair from a clique cover of G^2, following the proof.

    Brandstaedt, Dragan and Nicolai (Homogeneously orderable graphs, TCS 172,
    1997) characterise the class: g is homogeneously orderable iff G^2 is
    chordal and every maximal two-set U (a set of pairwise distance <= 2,
    i.e. a maximal clique of G^2) is join-split: |U| = 1, or the complement
    of g[U] is disconnected, so U = U_1 join U_2 with both sides nonempty.
    One pass over G^2 checks that and builds the pair:

    1. Maximum cardinality search on G^2, reversed, is a perfect elimination
       ordering exactly when G^2 is chordal (Tarjan and Yannakakis, SIAM J.
       Comput. 13, 1984); every clique {v} + (later
       G^2-neighbours of v) is checked, and GraphError is raised if G^2 is
       not chordal.
    2. The inclusion-maximal ones among those cliques are the maximal
       two-sets; GraphError is raised unless each one is join-split.
    3. Gavril's greedy (SIAM J. Comput. 1, 1972) walks the ordering: a
       vertex v that is not yet covered joins P and covers its clique.  No
       member of P lies in an earlier member's clique, so P is independent
       in G^2, that is, a packing.  A vertex is covered by the first member
       whose clique holds it, so the |P| cliques cover V, and a cover of G^2
       by |P| cliques gives rho = alpha(G^2) <= |P|: P is a maximum packing.
    4. For each member v, D takes the lowest vertex of each side of the
       first maximal two-set U containing v's clique (v itself when
       |U| = 1).  Each side is joined to the other, so the two vertices
       dominate U, and D dominates V with |D| <= 2|P| = 2 rho.

    Ties break toward the lowest index, so the certificate is deterministic.
    """
    n = g.n
    adj = g._adj
    second = g.second_masks

    weight = [0] * n
    unvisited = (1 << n) - 1
    visit = []
    while unvisited:
        v = max(_mask_bits(unvisited), key=weight.__getitem__)
        visit.append(v)
        unvisited &= ~(1 << v)
        for u in _mask_bits(second[v] & unvisited):
            weight[u] += 1
    order = visit[::-1]

    cliques = []
    remaining = (1 << n) - 1
    for v in order:
        clique = second[v] & remaining
        remaining &= ~(1 << v)
        if any(clique & ~second[u] for u in _mask_bits(clique)):
            raise GraphError("G^2 is not chordal: graph is not homogeneously orderable")
        cliques.append(clique)

    dominators = []
    for u in cliques:
        if any(u != w and u & w == u for w in cliques):
            continue
        side = _join_side(adj, u)
        if side == u:
            if u.bit_count() > 1:
                raise GraphError(
                    "maximal two-set is not join-split: graph is not homogeneously orderable"
                )
            dominators.append((u, u))
        else:
            rest = u & ~side
            dominators.append((u, (side & -side) | (rest & -rest)))

    covered = p_mask = d_mask = 0
    for v, clique in zip(order, cliques):
        if (covered >> v) & 1:
            continue
        p_mask |= 1 << v
        covered |= clique
        d_mask |= next(pair for u, pair in dominators if clique & ~u == 0)

    cert = DomPackCertificate(
        VertexSet.from_mask(n, d_mask),
        VertexSet.from_mask(n, p_mask),
        "homogeneously-orderable",
        Fraction(2),
    )
    return _finalize(g, cert)
