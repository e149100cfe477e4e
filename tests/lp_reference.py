"""Fully rescaled Bareiss simplex for the fractional domination LP.

`fractional_domination` pivots on the tableau's integer numerators, at every
step rewriting every row as `(row·pivot - factor·pivot_row) // denom`, rows
whose pivot-column entry is 0 included, and checks the optimal pair in
`Fraction` arithmetic.  `dompack.lp` applies the same update rule, so with the
same pivot rules both must take the same pivots and return the same value,
primal and dual vectors.  It stays an oracle all the same: it shares no pivot,
read-out or check code with `dompack.lp`, and it checks the optimum as
`Fraction`s where `dompack.lp` checks integer numerators over one
denominator, so a slip in either pivot loop or either check shows up as a
mismatch or an `LpError`.
"""

from fractions import Fraction

from dompack.lp import LpError

PIVOT_LIMIT = 100_000


def simplex_packing(closed, n, stall_limit=40):
    """Max 1.y s.t. N y <= 1, y >= 0.

    Returns (value, y, x, bland): the optimum as Fractions and whether Bland's
    rule took over from Dantzig's.
    """
    width = 2 * n + 1
    rhs = 2 * n
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
    for _ in range(PIVOT_LIMIT):
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
            break

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
            raise LpError("unbounded packing LP")

        pivot = tableau[row][col]
        prow = tableau[row]
        for i in range(n + 1):
            if i == row:
                continue
            trow = tableau[i]
            factor = trow[col]
            tableau[i] = [(trow[j] * pivot - factor * prow[j]) // denom for j in range(width)]
        denom = pivot
        basis[row - 1] = col

        obj = (tableau[0][rhs], denom)
        if obj[0] * last_obj[1] == last_obj[0] * obj[1]:
            stall += 1
            if stall >= stall_limit:
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
    return value, tuple(y), tuple(x), bland


def fractional_domination(g, stall_limit=40):
    """(value, primal x, dual y), the pair checked in `Fraction` arithmetic."""
    n = g.n
    closed = g.closed_masks
    value, y, x, _ = simplex_packing(closed, n, stall_limit)
    if sum(x) != value or sum(y) != value:
        raise LpError("primal/dual objective mismatch")
    for v in range(n):
        row_x = sum(x[u] for u in range(n) if (closed[v] >> u) & 1)
        row_y = sum(y[u] for u in range(n) if (closed[v] >> u) & 1)
        if row_x < 1 or row_y > 1:
            raise LpError(f"LP constraint violated at vertex {v}")
    if any(c < 0 for c in x) or any(c < 0 for c in y):
        raise LpError("negative coordinate in LP solution")
    return value, x, y
