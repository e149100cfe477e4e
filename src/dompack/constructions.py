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

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ConstructionError, GraphError
from .graph import Graph, VertexSet, _layers, _mask_bits, is_dominating, is_packing
from .recognition import (
    _square_cliques,
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

    def to_dict(self) -> dict:
        """The certificate as a JSON-ready dict; the bound is written "n/d"."""
        return {
            "class": self.class_tag,
            "D": list(self.d),
            "P": list(self.p),
            "bound": f"{self.bound_constant.numerator}/{self.bound_constant.denominator}",
            "valid": self.valid,
        }


def _finalize(g: Graph, cert: DomPackCertificate) -> DomPackCertificate:
    """Revalidate a certificate; never return an invalid one.

    With bound 1 a returned certificate has |D| = |P|: a dominating set is
    never smaller than a packing.
    """
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

    The BFS layers from the root are walked deepest first; each vertex joins
    P when it keeps all pairwise distances >= 3, and its dominator in D is
    its one neighbour in the layer above, or the vertex itself at the root.
    """
    if not is_tree(t):
        raise GraphError("input is not a tree")
    t._check_vertex(root)
    layers = list(_layers(t._adj, root))
    closed, second = t.closed_masks, t.second_masks
    p_mask = d_mask = blocked = 0
    for depth in reversed(range(len(layers))):
        above = layers[max(depth - 1, 0)]
        for v in _mask_bits(layers[depth]):
            if not (blocked >> v) & 1:
                p_mask |= 1 << v
                blocked |= second[v]
                d_mask |= closed[v] & above
    cert = DomPackCertificate(
        VertexSet.from_mask(t.n, d_mask),
        VertexSet.from_mask(t.n, p_mask),
        "tree",
        Fraction(1),
    )
    return _finalize(t, cert)


def strongly_chordal_dompack(g: Graph, ordering: tuple[int, ...]) -> DomPackCertificate:
    """Single-pass gamma = rho pair along a simple elimination ordering.

    When v_i is still undominated, the dominator is the member of N[v_i]
    whose own closed neighborhood in the suffix graph is the inclusion
    maximum of the simple-vertex chain at v_i; v_i itself joins P.  The
    packing property of P is exactly where the ordering is exercised, so the
    certificate is always revalidated.
    """
    if not validate_simple_elimination_ordering(g, ordering):
        raise GraphError("ordering is not a simple elimination ordering of g")
    adj = g._adj
    closed = g.closed_masks
    active = (1 << g.n) - 1
    dominated = 0
    d_mask = 0
    p_mask = 0
    for v in ordering:
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
    return _finalize(g, cert)


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


def homogeneously_orderable_dompack(g: Graph) -> DomPackCertificate:
    """gamma <= 2 rho pair from a clique cover of G^2, following the proof.

    1. `recognition._square_cliques` checks the characterisation (G^2
       chordal, every maximal two-set join-split) or raises GraphError.
    2. Gavril's greedy (SIAM J. Comput. 1, 1972) walks the ordering: a
       vertex v that is not yet covered joins P and covers its clique.  No
       member of P lies in an earlier member's clique, so P is independent
       in G^2, that is, a packing.  A vertex is covered by the first member
       whose clique holds it, so the |P| cliques cover V, and a cover of G^2
       by |P| cliques gives rho = alpha(G^2) <= |P|: P is a maximum packing.
    3. For each member v, D takes the lowest vertex of each side of the
       first maximal two-set U = U_1 join U_2 containing v's clique; the
       two dominate U, so D dominates V with |D| <= 2|P| = 2 rho.

    Ties break toward the lowest index, so the certificate is deterministic.
    """
    n = g.n
    order, cliques, dominators = _square_cliques(g._adj, (1 << n) - 1)

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
