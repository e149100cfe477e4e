"""Fractional domination/packing via exact rational simplex.

The two LPs are duals: minimize 1.x over N x >= 1 (domination) and maximize
1.y over N y <= 1 (packing), N the closed-neighborhood matrix.  We run primal
simplex on the packing form, whose all-slack basis is feasible, and read the
domination solution off the optimal reduced costs of the slack columns.

The tableau stores integer numerators over one common denominator (Bareiss
integer pivoting), so every intermediate quantity is an exact rational; no
floating point is used anywhere in this module.  Dantzig's rule drives the
pivots and Bland's rule takes over whenever the objective stalls, which rules
out cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DompackError
from .graph import Graph
from .solvers import exact_domination, exact_packing

Rational = Fraction


class LpError(DompackError, RuntimeError):
    """Internal simplex invariant violation."""


@dataclass(frozen=True)
class LpSolution:
    value: Rational
    primal: tuple[Rational, ...]  # x: fractional dominating vector
    dual: tuple[Rational, ...]  # y: fractional packing vector


_STALL_LIMIT = 40
_PIVOT_LIMIT = 100_000


def _simplex_packing(closed: tuple[int, ...], n: int):
    """Max 1.y s.t. N y <= 1, y >= 0, via integer pivoting.

    Returns (value, y, x) as Fractions.
    """
    width = 2 * n + 1
    rhs = 2 * n
    # Row 0: reduced costs (start at -1 for each y column); rows 1..n: N y + s = 1.
    tableau = [[-1] * n + [0] * n + [0]]
    for i in range(n):
        row = [(closed[i] >> j) & 1 for j in range(n)]
        row += [1 if k == i else 0 for k in range(n)]
        row.append(1)
        tableau.append(row)
    denom = 1
    basis = [n + i for i in range(n)]

    bland = False
    stall = 0
    last_obj = (0, 1)
    for _ in range(_PIVOT_LIMIT):
        obj_row = tableau[0]
        col = -1
        if bland:
            for j in range(width - 1):
                if obj_row[j] < 0:
                    col = j
                    break
        else:
            best = 0
            for j in range(width - 1):
                if obj_row[j] < best:
                    best = obj_row[j]
                    col = j
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

        pivot = tableau[row][col]
        prow = tableau[row]
        for i in range(n + 1):
            if i == row:
                continue
            trow = tableau[i]
            factor = trow[col]
            if factor:
                tableau[i] = [
                    (trow[j] * pivot - factor * prow[j]) // denom for j in range(width)
                ]
            else:
                tableau[i] = [(trow[j] * pivot) // denom for j in range(width)]
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

    value = Fraction(tableau[0][rhs], denom)
    y = [Fraction(0)] * n
    for i in range(n):
        if basis[i] < n:
            y[basis[i]] = Fraction(tableau[i + 1][rhs], denom)
    x = [Fraction(tableau[0][n + j], denom) for j in range(n)]
    return value, tuple(y), tuple(x)


def fractional_domination(g: Graph) -> LpSolution:
    """Optimal fractional dominating vector x and packing vector y.

    The returned pair certifies strong duality: sum(x) == sum(y) == value.
    """
    n = g.n
    closed = g.closed_masks
    value, y, x = _simplex_packing(closed, n)

    # Certificate checks; violations mean a solver bug, not a bad input.
    if sum(x) != value or sum(y) != value:
        raise LpError("primal/dual objective mismatch")
    for v in range(n):
        row_x = sum(x[u] for u in range(n) if (closed[v] >> u) & 1)
        row_y = sum(y[u] for u in range(n) if (closed[v] >> u) & 1)
        if row_x < 1:
            raise LpError(f"fractional domination constraint violated at vertex {v}")
        if row_y > 1:
            raise LpError(f"fractional packing constraint violated at vertex {v}")
    if any(c < 0 for c in x) or any(c < 0 for c in y):
        raise LpError("negative coordinate in LP solution")
    return LpSolution(value, x, y)


@dataclass(frozen=True)
class SandwichReport:
    rho: int
    rho_f: Rational
    gamma_f: Rational
    gamma: int

    @property
    def holds(self) -> bool:
        return self.rho <= self.rho_f == self.gamma_f <= self.gamma


def verify_sandwich(
    g: Graph, *, gamma: int | None = None, rho: int | None = None
) -> SandwichReport:
    """Compute rho <= rho_f = gamma_f <= gamma with exact arithmetic.

    `gamma` and `rho` are solved exactly unless the caller already knows them.
    """
    sol = fractional_domination(g)
    return SandwichReport(
        rho=exact_packing(g).value if rho is None else rho,
        rho_f=sum(sol.dual, Fraction(0)),
        gamma_f=sum(sol.primal, Fraction(0)),
        gamma=exact_domination(g).value if gamma is None else gamma,
    )


def harmonic(k: int) -> Rational:
    """H(k) = 1 + 1/2 + ... + 1/k as an exact rational."""
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))
