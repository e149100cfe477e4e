"""Constructive domination-packing pairs for the four tractable classes.

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
    HOMOGENEOUS,
    SIMPLE_ELIMINATION,
    Ordering,
    _h_extremal_search,
    bipartition,
    find_simple_elimination_ordering,
    is_chordal_bipartite,
    is_tree,
    split_clique,
    validate_homogeneous_ordering,
    validate_simple_elimination_ordering,
)
from .solvers import maximal_packing_keyed


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


_ENUMERATION_CAP = 24


def _all_maximal_packings(g: Graph) -> list[int]:
    """Every maximal packing of g, as masks (include/exclude recursion)."""
    n = g.n
    second = g.second_masks
    out: list[int] = []

    def rec(mask: int, eligible: int) -> None:
        if not eligible:
            for v in range(n):
                if not (mask >> v) & 1 and not any(
                    (second[p] >> v) & 1 for p in _mask_bits(mask)
                ):
                    return
            out.append(mask)
            return
        v = (eligible & -eligible).bit_length() - 1
        rec(mask | (1 << v), eligible & ~second[v])
        rec(mask, eligible & ~(1 << v))

    rec(0, (1 << n) - 1)
    return out


def _paired_dominating_set(
    g: Graph, suffix_at: dict[int, int], p_mask: int, repair: bool
) -> int | None:
    """D = P + one suffix-witness vertex per member, optionally repaired.

    The witness pair {v, f(v)} covers the distance-2 ball of v inside v's
    suffix graph only; vertices reachable from P solely through
    earlier-ordered middles can stay uncovered.  With `repair`, greedy cover
    vertices are added for those while |D| <= 2|P| still holds; returns None
    once the budget is exceeded (or immediately on a miss when not
    repairing).
    """
    closed = g.closed_masks
    full = (1 << g.n) - 1
    d_mask = p_mask
    for v in _mask_bits(p_mask):
        witness = _h_extremal_search(g._adj, suffix_at[v], v, degree_cap=g.n)
        if witness is None:
            raise ConstructionError("validated ordering lost h-extremality; bug")
        d_mask |= 1 << ((witness & -witness).bit_length() - 1)
    covered = 0
    for v in _mask_bits(d_mask):
        covered |= closed[v]
    budget = 2 * p_mask.bit_count()
    while covered != full:
        if not repair:
            return None
        uncov = full & ~covered
        w = (uncov & -uncov).bit_length() - 1
        best_u = -1
        best_gain = -1
        for u in _mask_bits(closed[w]):
            gain = (closed[u] & uncov).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_u = u
        d_mask |= 1 << best_u
        covered |= closed[best_u]
        if d_mask.bit_count() > budget:
            return None
    return d_mask if d_mask.bit_count() <= budget else None


def homogeneously_orderable_dompack(g: Graph, ordering: Ordering) -> DomPackCertificate:
    """gamma <= 2 rho pair from a homogeneous ordering.

    The primary packing comes from the index-sum-min keyed local search over
    the ordering positions, paired with one suffix-witness vertex f(v) per
    member.  That pairing alone can miss vertices whose distance-2 paths to
    the packing run through earlier-ordered middles, so when revalidation
    would fail the construction falls back to other maximal packings and
    then to a budgeted greedy cover repair, never returning an unvalidated
    certificate.
    """
    if ordering.kind != HOMOGENEOUS:
        raise GraphError(f"expected a {HOMOGENEOUS} ordering")
    if not validate_homogeneous_ordering(g, ordering):
        raise GraphError("ordering is not a homogeneous ordering of g")

    suffix_at = {}
    active = (1 << g.n) - 1
    for v in ordering.perm:
        suffix_at[v] = active
        active &= ~(1 << v)

    search = maximal_packing_keyed(g, ordering.perm)
    d_mask = _paired_dominating_set(g, suffix_at, search.packing.mask, repair=False)
    p_mask = search.packing.mask

    if d_mask is None and g.n <= _ENUMERATION_CAP:
        packings = _all_maximal_packings(g)
        for pm in sorted(packings):
            d_mask = _paired_dominating_set(g, suffix_at, pm, repair=False)
            if d_mask is not None:
                p_mask = pm
                break
        else:
            # Larger packings leave more repair budget; try those first.
            for pm in sorted(packings, key=lambda m: (-m.bit_count(), m)):
                d_mask = _paired_dominating_set(g, suffix_at, pm, repair=True)
                if d_mask is not None:
                    p_mask = pm
                    break

    if d_mask is None:
        detail = "" if search.converged else " (packing search hit its exchange cap)"
        raise ConstructionError(
            f"homogeneously-orderable construction did not converge{detail}"
        )

    cert = DomPackCertificate(
        VertexSet.from_mask(g.n, d_mask),
        VertexSet.from_mask(g.n, p_mask),
        "homogeneously-orderable",
        Fraction(2),
    )
    return _finalize(g, cert)
