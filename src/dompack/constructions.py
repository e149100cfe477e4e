"""Constructive domination-packing pairs for the four tractable classes.

One gamma = rho pass (Farber) runs along a simple elimination ordering: the
one given for a strongly chordal graph, a tree's BFS layers from a root taken
deepest first, and each of a chordal bipartite graph's two split-clique
graphs, whose dominating sets are joined for a gamma <= 2 rho pair.
Homogeneously orderable graphs get a maximum packing and a dominating set at
most twice its size from a clique cover of G^2, following the
Brandstaedt-Dragan-Nicolai characterisation of the class.
Every algorithm hands its D and P to `_finalize`, the one place that builds a
DomPackCertificate; it revalidates them with `graph._pair_fault`, and an
invalid certificate raises instead of being returned.
`_pass_pair` runs the same pass on any graph, along BFS layers deepest
first, and returns its pair (D, P) when it checks out: gamma_X = rho_X = |P|.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, GraphError
from .graph import Graph, VertexSet, _components, _mask_bits, _pair_fault, _set_mask
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


def _finalize(
    g: Graph, d_mask: int, p_mask: int, class_tag: str, bound: int
) -> DomPackCertificate:
    """Build the certificate and revalidate it; never return an invalid one.

    With bound 1 a returned certificate has |D| = |P|: a dominating set is
    never smaller than a packing.
    """
    d = VertexSet.from_mask(g.n, d_mask)
    p = VertexSet.from_mask(g.n, p_mask)
    fault = _pair_fault(g, d, p)
    if fault:
        raise ConstructionError(f"{class_tag}: {fault}")
    if len(d) > bound * len(p):
        raise ConstructionError(f"{class_tag}: |D|={len(d)} exceeds {bound} * |P|={len(p)}")
    return DomPackCertificate(d, p, class_tag, Fraction(bound), valid=True)


def _gamma_rho_pass(
    g: Graph, ordering: Iterable[int], dominated: int = 0
) -> tuple[int, int]:
    """Farber's single pass along a simple elimination ordering: (D, P) masks.

    When v is still undominated, v joins P and its dominator joins D: the
    member of N[v] whose closed neighborhood in the suffix graph is the
    inclusion maximum of the simple-vertex chain at v, the lowest index on
    ties.  The packing property of P is exactly where the ordering is
    exercised, so `_finalize` always revalidates the result.  `dominated`
    is the mask of the vertices taken as dominated from the start (an X);
    none of them joins P.  No dominator is picked twice, since a picked one
    dominates v, so |D| = |P|.
    """
    adj, closed = g._adj, g.closed_masks
    active = (1 << g.n) - 1
    d_mask = p_mask = 0
    for v in ordering:
        if not (dominated >> v) & 1:
            best_u = -1
            best_cover = -1
            for u in _mask_bits(closed[v] & active):
                cover = (adj[u] & active).bit_count()
                if cover > best_cover:
                    best_cover = cover
                    best_u = u
            d_mask |= 1 << best_u
            dominated |= closed[best_u]
            p_mask |= 1 << v
        active &= ~(1 << v)
    return d_mask, p_mask


def _deepest_first(adj: Sequence[int], root: int) -> list[int]:
    """Every vertex, one component at a time, each in BFS layers from its
    root taken deepest layer first: root's component, then that of the
    lowest vertex left, and so on."""
    order = []
    for layers in _components(adj, root):
        for layer in reversed(layers):
            order += _mask_bits(layer)
    return order


def _pass_pair(g: Graph, x: VertexSet | None = None) -> tuple[VertexSet, VertexSet] | None:
    """(D, P) proving gamma_X(g) = rho_X(g) = |P| from one gamma = rho pass, or None.

    The pass runs with X dominated from the start along `_deepest_first`
    from vertex 0: the tree construction's order, which is a simple
    elimination ordering on forests but not in general.  D always dominates
    with X and |D| = |P|, but P need not be a packing.  `_pair_fault`
    revalidates both; when they hold, |P| <= rho_X <= gamma_X <= |D| = |P|.
    """
    d_mask, p_mask = _gamma_rho_pass(g, _deepest_first(g._adj, 0), _set_mask(g, x))
    d, p = VertexSet.from_mask(g.n, d_mask), VertexSet.from_mask(g.n, p_mask)
    return None if _pair_fault(g, d, p, x) else (d, p)


def tree_dompack(t: Graph, root: int) -> DomPackCertificate:
    """Equal-size dominating set and packing on a tree (gamma = rho).

    A tree is strongly chordal, and the BFS layers from the root, deepest
    first, are a simple elimination ordering: each vertex is a leaf of what
    is left, or the root.  Along it the gamma = rho pass puts a vertex in P
    when it is still undominated, and its dominator in D is its parent; only
    the root's last child ties with the root, and the lower index wins.
    """
    if not is_tree(t):
        raise GraphError("input is not a tree")
    t._check_vertex(root)
    d_mask, p_mask = _gamma_rho_pass(t, _deepest_first(t._adj, root))
    return _finalize(t, d_mask, p_mask, "tree", 1)


def strongly_chordal_dompack(g: Graph, ordering: tuple[int, ...]) -> DomPackCertificate:
    """Single-pass gamma = rho pair along a simple elimination ordering."""
    if not validate_simple_elimination_ordering(g, ordering):
        raise GraphError("ordering is not a simple elimination ordering of g")
    d_mask, p_mask = _gamma_rho_pass(g, ordering)
    return _finalize(g, d_mask, p_mask, "strongly-chordal", 1)


def chordal_bipartite_dompack(g: Graph) -> DomPackCertificate:
    """gamma <= 2 rho pair via the two split-clique strongly chordal graphs.

    D is the union of the two passes' dominating sets; P is the larger
    packing, side A's on ties.
    """
    if not is_chordal_bipartite(g):
        raise GraphError("graph is not chordal bipartite")
    parts = []
    for side in bipartition(g):
        split = split_clique(g, side)
        ordering = find_simple_elimination_ordering(split)
        if ordering is None:
            raise ConstructionError("split graph unexpectedly not strongly chordal")
        parts.append(_gamma_rho_pass(split, ordering))
    (d_a, p_a), (d_b, p_b) = parts
    p_mask = p_a if p_a.bit_count() >= p_b.bit_count() else p_b
    return _finalize(g, d_a | d_b, p_mask, "chordal-bipartite", 2)


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
    order, cliques, dominators = _square_cliques(g._adj, (1 << g.n) - 1)

    covered = p_mask = d_mask = 0
    for v, clique in zip(order, cliques):
        if (covered >> v) & 1:
            continue
        p_mask |= 1 << v
        covered |= clique
        d_mask |= next(pair for u, pair in dominators if clique & ~u == 0)

    return _finalize(g, d_mask, p_mask, "homogeneously-orderable", 2)
