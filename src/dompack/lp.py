"""Fractional domination/packing via exact rational simplex.

The two LPs are duals: minimize 1.x over N x >= 1 (domination) and maximize
1.y over N y <= 1 (packing), N the closed-neighborhood matrix.  We run primal
simplex on the packing form, whose all-slack basis is feasible, and read the
domination solution off the optimal reduced costs of the slack columns.

The tableau stores integer numerators (Bareiss integer pivoting, Math. Comp.
22, 1968): after k pivots the exact tableau is T_k / D_k, with every entry of
T_k an integer and D_k > 0 the last pivot.  A pivot on entry p = T_k[r][col]
keeps row r and maps every other row i, rows with T_k[i][col] = 0 included, to
(T_k[i]·p - T_k[i][col]·T_k[r]) // D_k; the division is exact because the
results are Bareiss entries, which are integers.  The ratio test compares
rhs/a within one row, where D_k cancels.

Dantzig's rule drives the pivots and Bland's rule takes over whenever the
objective stalls, which rules out cycling.  The optimal pair is checked as
integer numerators over the common denominator before it becomes `Fraction`s;
no floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DompackError
from .graph import Graph, _pair_fault
from .solvers import SolveResult, exact_domination, exact_packing


class LpError(DompackError, RuntimeError):
    """Internal simplex invariant violation."""


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    primal: tuple[Fraction, ...]  # x: fractional dominating vector
    dual: tuple[Fraction, ...]  # y: fractional packing vector


_STALL_LIMIT = 40
_PIVOT_LIMIT = 100_000


def _simplex_packing(closed: tuple[int, ...], n: int):
    """Max 1.y s.t. N y <= 1, y >= 0, via integer pivoting.

    Returns (denom, value, y, x): integer numerators over one denominator
    denom > 0.
    """
    width = 2 * n + 1
    rhs = 2 * n
    # Row 0: reduced costs (start at -1 for each y column); rows 1..n: N y + s = 1.
    tableau = [[-1] * n + [0] * n + [0]]
    for i in range(n):
        row = [(closed[i] >> j) & 1 for j in range(n)] + [0] * n + [1]
        row[n + i] = 1
        tableau.append(row)
    denom = 1
    basis = [n + i for i in range(n)]

    bland = False
    stall = 0
    last_obj = (0, 1)
    for _ in range(_PIVOT_LIMIT):
        obj_row = tableau[0]
        if bland:
            col = next((j for j in range(width - 1) if obj_row[j] < 0), -1)
        else:
            best = min(obj_row[:rhs])
            col = obj_row.index(best) if best < 0 else -1
        if col < 0:
            break  # optimal

        # Ratio test: min rhs/col over positive col entries; ties by lowest
        # leaving basis variable (Bland-compatible).
        row = -1
        best_num = best_den = 0
        for i in range(1, n + 1):
            a = tableau[i][col]
            if a > 0:
                num, den = tableau[i][rhs], a
                if row < 0 or num * best_den < best_num * den or (
                    num * best_den == best_num * den and basis[i - 1] < basis[row - 1]
                ):
                    row, best_num, best_den = i, num, den
        if row < 0:
            raise LpError("unbounded packing LP; the input matrix is malformed")

        prow = tableau[row]
        pivot = prow[col]
        for i in range(n + 1):
            if i != row:
                trow = tableau[i]
                factor = trow[col]
                tableau[i] = [(v * pivot - factor * w) // denom for v, w in zip(trow, prow)]
        denom = pivot
        basis[row - 1] = col

        obj = (tableau[0][rhs], denom)
        if obj[0] * last_obj[1] == last_obj[0] * obj[1]:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
            last_obj = obj
    else:
        raise LpError("simplex exceeded the pivot limit")

    y = [0] * n
    for i in range(n):
        if basis[i] < n:
            y[basis[i]] = tableau[i + 1][rhs]
    return denom, tableau[0][rhs], y, tableau[0][n:rhs]


def fractional_domination(g: Graph) -> LpSolution:
    """Optimal fractional dominating vector x and packing vector y.

    The returned pair certifies strong duality: sum(x) == sum(y) == value.
    """
    n = g.n
    closed = g.closed_masks
    denom, value, y, x = _simplex_packing(closed, n)

    # Certificate checks on the numerators over denom; violations mean a
    # solver bug, not a bad input.
    if denom <= 0:
        raise LpError("non-positive common denominator")
    if sum(x) != value or sum(y) != value:
        raise LpError("primal/dual objective mismatch")
    for v in range(n):
        ball = [u for u in range(n) if (closed[v] >> u) & 1]
        if sum([x[u] for u in ball]) < denom:
            raise LpError(f"fractional domination constraint violated at vertex {v}")
        if sum([y[u] for u in ball]) > denom:
            raise LpError(f"fractional packing constraint violated at vertex {v}")
    if min(x) < 0 or min(y) < 0:
        raise LpError("negative coordinate in LP solution")
    return LpSolution(
        Fraction(value, denom),
        tuple([Fraction(c, denom) for c in x]),
        tuple([Fraction(c, denom) for c in y]),
    )


@dataclass(frozen=True)
class SandwichReport:
    rho: int
    gamma_f: Fraction
    gamma: int

    @property
    def holds(self) -> bool:
        return self.rho <= self.gamma_f <= self.gamma


def verify_sandwich(
    g: Graph, *, gamma: SolveResult | None = None, rho: SolveResult | None = None
) -> SandwichReport:
    """Compute rho <= gamma_f <= gamma with exact arithmetic (gamma_f = rho_f
    by LP duality, so the report holds gamma_f alone).

    `gamma` and `rho` are the results of `exact_domination` and
    `exact_packing`, solved here unless the caller already has them.  A
    dominating set D and a packing P with |D| = |P| = k prove
    k <= rho <= rho_f = gamma_f <= gamma <= k, so when both witnesses check
    and meet, gamma_f = k and the simplex does not run.  Otherwise, invalid
    witnesses included, gamma_f comes from `fractional_domination`.
    `graph._pair_fault` checks the witnesses, both of them always, so a
    witness whose capacity is not g.n raises `GraphError`.
    """
    if gamma is None:
        gamma = exact_domination(g)
    if rho is None:
        rho = exact_packing(g)
    k = gamma.value
    fault = _pair_fault(g, gamma.witness, rho.witness)
    if fault is None and rho.value == k == len(gamma.witness) == len(rho.witness):
        gamma_f = Fraction(k)
    else:
        # fractional_domination checked sum(y) == sum(x) == value.
        gamma_f = fractional_domination(g).value
    return SandwichReport(rho=rho.value, gamma_f=gamma_f, gamma=k)


def harmonic(k: int) -> Fraction:
    """H(k) = 1 + 1/2 + ... + 1/k as an exact rational."""
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))
