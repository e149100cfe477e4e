"""Output checks made apart from dompack.

Graphs are read back from the graph6 text the CLI printed, with this file's
own decoder, and every claim is tested against that adjacency:

- witnesses and certificates with plain bitmask predicates;
- gamma, rho, gamma_X and rho_X with `scipy.optimize.milp` (HiGHS);
- gamma_f with `scipy.optimize.linprog` (HiGHS) within a float tolerance;
- planarity with `networkx.check_planarity`.

HiGHS is called on batches of instances at once, because one call costs
milliseconds of set-up however small the graph.  A batch is one block-
diagonal program, plus one row per instance that holds the instance's sum at
its claimed value: at most the claim for a minimum, at least the claim for a
maximum.  The batch is feasible only if no true optimum lies beyond its claim
on the held side, and its optimum is the sum of the true optima.  So the batch
optimum equals the sum of the claims exactly when every claim is the true
optimum.  A batch that fails is solved again one instance at a time, to name
the instances at fault.
"""

from __future__ import annotations

from fractions import Fraction

import networkx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import coo_matrix, vstack

# OEIS A000088 (graphs) and A000055 (free trees), indexed by vertex count.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044)
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)

BATCH = 50
LP_TOL = 1e-6


# -- graph6 ---------------------------------------------------------------------


def decode_graph6(text: str) -> list[int]:
    """Adjacency bitmasks of a graph6 string (n <= 62, as every workload uses)."""
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 size out of range in {text!r}")
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise ValueError(f"bad graph6 character in {text!r}")
        bits.extend((value >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
    pairs = n * (n - 1) // 2
    if len(bits) < pairs or len(bits) - pairs >= 6 or any(bits[pairs:]):
        raise ValueError(f"graph6 body does not fit n={n} in {text!r}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


# -- predicates -------------------------------------------------------------------


def members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def edge_count(adj: list[int]) -> int:
    return sum(a.bit_count() for a in adj) // 2


def connected(adj: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in members(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def is_tree(adj: list[int]) -> bool:
    return edge_count(adj) == len(adj) - 1 and connected(adj)


def dominates(adj: list[int], chosen, xmask: int = 0) -> bool:
    covered = xmask
    for v in chosen:
        covered |= adj[v] | (1 << v)
    return covered == (1 << len(adj)) - 1


def is_packing(adj: list[int], chosen, xmask: int = 0) -> bool:
    seen = 0
    for v in chosen:
        if (xmask >> v) & 1:
            return False
        closed = adj[v] | (1 << v)
        if seen & closed:
            return False
        seen |= closed
    return True


def independent(adj: list[int], chosen) -> bool:
    mask = sum(1 << v for v in set(chosen))
    return all(not adj[v] & mask for v in chosen)


def maximal_independent(adj: list[int], chosen) -> bool:
    mask = sum(1 << v for v in set(chosen))
    return independent(adj, chosen) and all(
        (mask >> v) & 1 or adj[v] & mask for v in range(len(adj))
    )


def planar(adj: list[int]) -> bool:
    g = networkx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((u, v) for u in range(len(adj)) for v in members(adj[u]) if u < v)
    return networkx.check_planarity(g)[0]


def exact_lp_certificate(adj: list[int], x, y, value: Fraction) -> bool:
    """x fractionally dominates, y fractionally packs, and both sum to
    `value`: by weak duality `value` is then gamma_f exactly."""
    n = len(adj)
    if len(x) != n or len(y) != n or min(x) < 0 or min(y) < 0:
        return False
    if sum(x) != value or sum(y) != value:
        return False
    for v in range(n):
        closed = members(adj[v] | (1 << v))
        if sum(x[u] for u in closed) < 1 or sum(y[u] for u in closed) > 1:
            return False
    return True


# -- optima from HiGHS ------------------------------------------------------------


class Optima:
    """Claims of minimum dominating and maximum packing sizes, checked in
    batches.  `dom` and `pack` are integral; `frac` is gamma_f, in floats."""

    def __init__(self):
        self.claims = {"dom": [], "pack": [], "frac": []}

    def add(self, kind: str, adj: list[int], xmask: int, claim, tag) -> None:
        self.claims[kind].append((adj, xmask, claim, tag))

    def failures(self) -> list[str]:
        bad = []
        for kind, items in self.claims.items():
            for start in range(0, len(items), BATCH):
                chunk = items[start:start + BATCH]
                if _batch_holds(kind, chunk):
                    continue
                for adj, xmask, claim, tag in chunk:
                    found = _solve(kind, [(adj, xmask, None)])
                    if found is None or abs(found - float(claim)) > LP_TOL:
                        bad.append(f"{tag}: {kind} claims {claim}, HiGHS finds {found}")
        return bad


def _program(kind: str, chunk):
    """Block-diagonal program; with a claim, one extra row holds the
    instance's sum at it (upper for minima, lower for maxima)."""
    rows, cols = [], []
    lo, hi = [], []
    var_hi = []
    offset = 0
    for adj, xmask, claim in chunk:
        n = len(adj)
        for v in range(n):
            if kind != "pack" and (xmask >> v) & 1:
                continue  # pre-covered: no constraint
            for u in members(adj[v] | (1 << v)):
                rows.append(len(lo))
                cols.append(offset + u)
            lo.append(1 if kind != "pack" else -np.inf)
            hi.append(np.inf if kind != "pack" else 1)
        if claim is not None:
            for u in range(n):
                rows.append(len(lo))
                cols.append(offset + u)
            if kind == "pack":
                lo.append(float(claim) - LP_TOL)
                hi.append(np.inf)
            else:
                lo.append(-np.inf)
                hi.append(float(claim) + LP_TOL)
        var_hi += [0 if kind == "pack" and (xmask >> u) & 1 else 1 for u in range(n)]
        offset += n
    matrix = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(lo), offset)).tocsr()
    return matrix, np.array(lo), np.array(hi), np.array(var_hi, dtype=float)


def _solve(kind: str, chunk) -> float | None:
    """Optimum of the program, or None when it is infeasible."""
    matrix, lo, hi, var_hi = _program(kind, chunk)
    size = matrix.shape[1]
    if kind == "frac":
        # linprog takes upper-bounded rows only: lo <= Ax <= hi becomes
        # -Ax <= -lo and Ax <= hi, on the finite sides.
        has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
        res = linprog(
            np.ones(size),
            A_ub=vstack([-matrix[has_lo], matrix[has_hi]]).tocsr(),
            b_ub=np.concatenate([-lo[has_lo], hi[has_hi]]),
            bounds=list(zip(np.zeros(size), var_hi)),
            method="highs",
        )
        return None if res.status != 0 else float(res.fun)
    sign = -1.0 if kind == "pack" else 1.0
    res = milp(
        sign * np.ones(size),
        constraints=LinearConstraint(matrix, lo, hi),
        integrality=np.ones(size),
        bounds=Bounds(np.zeros(size), var_hi),
        options={"mip_rel_gap": 0},
    )
    return None if res.status != 0 else sign * float(res.fun)


def _batch_holds(kind: str, chunk) -> bool:
    found = _solve(kind, [(adj, xmask, claim) for adj, xmask, claim, _ in chunk])
    if found is None:
        return False
    total = sum(Fraction(claim) for _, _, claim, _ in chunk)
    return abs(found - float(total)) <= LP_TOL * len(chunk)


# -- per-workload record checks ---------------------------------------------------

# Paper constants c in gamma <= c * rho, per class.
BOUND = {
    "tree": Fraction(1),
    "strongly-chordal": Fraction(1),
    "chordal-bipartite": Fraction(2),
    "homogeneously-orderable": Fraction(2),
    "planar": Fraction(7),
}


class Report:
    """Problems found in one round's records; empty means correct."""

    def __init__(self, known_failures: set):
        self.problems: list[str] = []
        self.optima = Optima()
        self.known_failures = known_failures

    def expect(self, tag: str, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(f"{tag}: {what}")

    def graphs(self, label: str, records: list[dict]):
        """(index, tag, record, adjacency) for every record but the known failures,
        after checking the record's n and m against its graph6."""
        for i, rec in enumerate(records):
            if (label, i) in self.known_failures:
                continue
            tag = f"{label} #{i}"
            try:
                adj = decode_graph6(rec["graph6"])
            except (ValueError, IndexError) as exc:
                self.expect(tag, False, f"unreadable graph6: {exc}")
                continue
            self.expect(tag, rec["n"] == len(adj) and rec["m"] == edge_count(adj), "n or m")
            yield i, tag, rec, adj

    def finish(self) -> list[str]:
        return self.problems + self.optima.failures()


def check_verify(plan, records: dict, report: Report) -> None:
    from dompack.generators import GenSpec, generate
    from workloads import encode_graph6

    for label, recs in records.items():
        c = BOUND[label]
        for _, tag, rec, adj in report.graphs(label, recs):
            spec = rec["genspec"]
            g = generate(GenSpec(spec["family"], spec["n"], spec["seed"], spec["params"]))
            report.expect(tag, encode_graph6(g.n, g.edges()) == rec["graph6"], "genspec replay differs")
            gamma, rho = rec["gamma"], rec["rho"]
            report.optima.add("dom", adj, 0, gamma, tag)
            report.optima.add("pack", adj, 0, rho, tag)
            report.expect(tag, rec["bound"] == str(c), f"bound {rec['bound']} is not {c}")
            report.expect(tag, Fraction(rec["ratio"]) == Fraction(gamma, rho), "ratio")
            holds = gamma <= c * rho
            if label == "tree":
                report.expect(tag, is_tree(adj), "not a tree")
                report.expect(tag, gamma == rho, "gamma != rho on a tree")
                report.optima.add("frac", adj, 0, gamma, f"{tag} (gamma_f = gamma)")
            if label == "planar":
                report.expect(tag, planar(adj), "not planar")
                report.expect(tag, len(rec["x_checks"]) == 2, "expected 2 X samples")
                for k, xc in enumerate(rec["x_checks"]):
                    xmask = sum(1 << v for v in xc["x"])
                    report.optima.add("dom", adj, xmask, xc["gamma_x"], f"{tag} X{k}")
                    report.optima.add("pack", adj, xmask, xc["rho_x"], f"{tag} X{k}")
                    holds = holds and xc["gamma_x"] <= c * xc["rho_x"]
            report.expect(tag, holds, f"gamma <= {c} rho fails")
            report.expect(tag, rec["passed"] == holds, "passed flag disagrees")


def check_certify(plan, records: dict, report: Report) -> None:
    from dompack.generators import generate
    from dompack.graph import Graph
    from dompack.lp import fractional_domination
    from workloads import encode_graph6

    ctx = plan.context
    for n, found in ctx["graphs"].items():
        report.expect(f"all_graphs({n})", len(found) == A000088[n], f"{len(found)} != A000088")
        report.expect(f"all_graphs({n})", len(set(found)) == len(found), "repeated graph")
    for n, found in ctx["trees"].items():
        report.expect(f"all_trees({n})", len(found) == A000055[n], f"{len(found)} != A000055")
        report.expect(f"all_trees({n})", len(set(found)) == len(found), "repeated tree")
        report.expect(f"all_trees({n})", all(is_tree(decode_graph6(t)) for t in found), "non-tree")
    for cls, specs in ctx["specs"].items():
        for spec, g6 in zip(specs, ctx["members"][cls]):
            g = generate(spec)
            report.expect(f"{cls} {spec}", encode_graph6(g.n, g.edges()) == g6, "replay differs")

    corpus = ctx["corpus"]
    report.expect("compute", len(records["compute"]) == len(corpus), "record count")
    solved = {}
    for i, tag, rec, adj in report.graphs("compute", records["compute"]):
        g6 = corpus[i]
        report.expect(tag, rec["graph6"] == g6, "graph6 differs from the input")
        gamma, rho = rec["gamma"], rec["rho"]
        gw, rw = rec["gamma_witness"], rec["rho_witness"]
        report.expect(tag, len(gw) == gamma and dominates(adj, gw), "gamma witness")
        report.expect(tag, len(rw) == rho and is_packing(adj, rw), "rho witness")
        report.optima.add("dom", adj, 0, gamma, tag)
        report.optima.add("pack", adj, 0, rho, tag)
        gamma_f = Fraction(rec["gamma_f"])
        report.optima.add("frac", adj, 0, gamma_f, tag)
        g = Graph(len(adj), [(u, v) for u in range(len(adj)) for v in members(adj[u]) if u < v])
        sol = fractional_domination(g)
        report.expect(tag, exact_lp_certificate(adj, sol.primal, sol.dual, gamma_f), "LP pair")
        report.expect(tag, rho <= gamma_f <= gamma and rec["passed"], "sandwich")
        report.expect(tag, Fraction(rec["ratio"]) == Fraction(gamma, rho), "ratio")
        if is_tree(adj):
            report.expect(tag, gamma == rho == gamma_f, "gamma = rho = gamma_f fails on a tree")
        solved[g6] = (gamma, rho)

    for cls, inputs in ctx["members"].items():
        c = BOUND[cls]
        report.expect(cls, len(records[cls]) == len(inputs), "record count")
        for i, tag, rec, adj in report.graphs(cls, records[cls]):
            g6 = inputs[i]
            cert = rec.get("certificate") or {}
            d, p = cert.get("D", []), cert.get("P", [])
            report.expect(tag, rec["graph6"] == g6, "graph6 differs from the input")
            report.expect(tag, dominates(adj, d), "D does not dominate")
            report.expect(tag, is_packing(adj, p), "P is not a packing")
            report.expect(tag, len(d) <= c * len(p), f"|D| > {c} |P|")
            report.expect(tag, cert.get("valid") and rec["passed"], "certificate not valid")
            report.expect(tag, (rec.get("gamma"), rec.get("rho")) == solved.get(g6), "gamma/rho")


def check_lemmas(plan, records: dict, report: Report) -> None:
    for _, tag, rec, adj in report.graphs("triangulate", records["triangulate"]):
        degrees = [a.bit_count() for a in adj]
        report.expect(tag, planar(adj) and connected(adj) and min(degrees) >= 2, "input")
        report.expect(tag, maximal_independent(adj, rec["independent_set"]), "independent set")
        report.expect(tag, rec["passed"], "triangulation failed")
    for i, tag, rec, adj in report.graphs("discharge", records["discharge"]):
        degrees = [a.bit_count() for a in adj]
        u, v = rec["edge"] or (0, 0)
        report.expect(tag, 6 <= len(adj) <= 12 + i % 35, "size")
        report.expect(tag, planar(adj) and min(degrees) >= 4, "not planar with min degree 4")
        report.expect(tag, (adj[u] >> v) & 1 and max(degrees[u], degrees[v]) <= 7, "edge")
        report.expect(tag, rec["passed"], "no low-degree edge")
    for _, tag, rec, adj in report.graphs("charge-audit", records["charge-audit"]):
        n, m = len(adj), edge_count(adj)
        report.expect(tag, planar(adj) and m == 3 * n - 6, "not maximal planar")
        report.expect(tag, sum(a.bit_count() - 6 for a in adj) == -12, "degree charges")
        report.expect(tag, rec["total_charge"] == "-12" and rec["passed"], "total charge")


CHECKS = {"verify": check_verify, "certify": check_certify, "lemmas": check_lemmas}
