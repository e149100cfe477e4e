"""Fraction-by-Fraction reference for the charge audit.

`charge_audit` starts every vertex at the `Fraction` d(v) - 6 and moves one
`Fraction(1, 2)` per transfer with `Fraction` adds and subtracts, then sums
the final charges as Fractions.  It follows the discharging rule directly and
shares no ledger code with `dompack.planar`, so the tests use it as the
oracle for the integer-half audit: on the same embedding and low set, both
must return equal `ChargeLedger`s, field by field and type by type.
"""

from fractions import Fraction

from dompack.errors import PreconditionError
from dompack.planar import ChargeLedger


def charge_audit(emb, low_independent):
    """Assign d(v) - 6 to every vertex of a triangulated embedding, then let
    every vertex of degree >= 8 give 1/2 to each neighbor (with multiplicity)
    in the designated independent set of degree <= 7 vertices."""
    if any(len(f) != 3 for f in emb.faces):
        raise PreconditionError("charge audit requires a triangulated embedding")
    for v in low_independent:
        if emb.degree(v) > 7:
            raise PreconditionError(f"vertex {v} in the low set has degree > 7")
    members = set(low_independent)
    for u, v in emb.edges:
        if u in members and v in members:
            raise PreconditionError("designated low-degree set is not independent")

    initial = tuple([Fraction(emb.degree(v) - 6) for v in range(emb.n)])
    final = list(initial)
    transfers = []
    half = Fraction(1, 2)
    for v in range(emb.n):
        if emb.degree(v) >= 8:
            for d in emb.rotation[v]:
                w = emb.edges[d >> 1][1 - (d & 1)]
                if w in members:
                    transfers.append((v, w, half))
                    final[v] -= half
                    final[w] += half
    total = sum(final, Fraction(0))
    negative = tuple([v for v in range(emb.n) if final[v] < 0])
    return ChargeLedger(initial, tuple(transfers), tuple(final), total, negative)
