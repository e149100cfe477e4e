from fractions import Fraction

from dompack import (
    exact_domination,
    exact_packing,
    fractional_domination,
    gen_named,
    gen_rook,
    harmonic,
    verify_sandwich,
)
from dompack.generators import GenSpec, derive_seed, gen_gnp, gen_tree


def feasible(g, sol):
    closed = g.closed_masks
    for v in range(g.n):
        row_x = sum(sol.primal[u] for u in range(g.n) if (closed[v] >> u) & 1)
        row_y = sum(sol.dual[u] for u in range(g.n) if (closed[v] >> u) & 1)
        if row_x < 1 or row_y > 1:
            return False
    return all(c >= 0 for c in sol.primal) and all(c >= 0 for c in sol.dual)


def test_complete_graph():
    sol = fractional_domination(gen_named("K6"))
    assert sol.value == 1


def test_star():
    sol = fractional_domination(gen_named("star7"))
    assert sol.value == 1


def test_c4_is_four_thirds():
    c4 = gen_named("C4")
    sol = fractional_domination(c4)
    # The uniform vector 1/3 is feasible with value 4/3 on both sides, which
    # pins the optimum exactly by weak duality.
    third = Fraction(1, 3)
    assert all(sum(third for u in range(4) if (c4.closed_masks[v] >> u) & 1) == 1 for v in range(4))
    assert sol.value == Fraction(4, 3)
    assert sum(sol.primal) == sum(sol.dual) == Fraction(4, 3)
    assert feasible(c4, sol)


def test_strong_duality_on_random_graphs():
    for i in range(60):
        g = gen_gnp(GenSpec("gnp", 2 + i % 14, derive_seed(1200, i), {"edge_prob": 0.35}))
        sol = fractional_domination(g)
        assert sum(sol.primal) == sol.value == sum(sol.dual)
        assert feasible(g, sol)


def test_vertex_transitive_uniform_bound():
    # On vertex-transitive graphs the uniform vector gives n/(degree+1).
    for name, n, deg in (("C6", 6, 2), ("C5", 5, 2), ("K5", 5, 4)):
        sol = fractional_domination(gen_named(name))
        assert sol.value <= Fraction(n, deg + 1)
    assert fractional_domination(gen_named("C6")).value == Fraction(2)
    rook = gen_rook(3, 3)
    assert fractional_domination(rook).value <= Fraction(9, 5)


def test_sandwich_c4():
    report = verify_sandwich(gen_named("C4"))
    assert (report.rho, report.rho_f, report.gamma_f, report.gamma) == (
        1,
        Fraction(4, 3),
        Fraction(4, 3),
        2,
    )
    assert report.holds


def test_sandwich_trees_collapse():
    for i in range(15):
        t = gen_tree(GenSpec("tree", 2 + i * 3 % 25, derive_seed(1201, i)))
        report = verify_sandwich(t)
        k = report.gamma
        assert (report.rho, report.rho_f, report.gamma_f, report.gamma) == (k, k, k, k)
        assert report.holds


def test_sandwich_rook():
    report = verify_sandwich(gen_rook(3, 3))
    assert report.rho == 1 and report.gamma == 3
    assert 1 <= report.rho_f == report.gamma_f <= 3
    assert report.holds


def test_sandwich_random():
    for i in range(40):
        g = gen_gnp(GenSpec("gnp", 2 + i % 12, derive_seed(1202, i), {"edge_prob": 0.3}))
        report = verify_sandwich(g)
        assert report.holds
        assert report.rho == exact_packing(g).value
        assert report.gamma == exact_domination(g).value
        assert verify_sandwich(g, gamma=report.gamma, rho=report.rho) == report


def test_against_independent_float_solver():
    # Independent oracle: scipy's HiGHS on the same LP, compared within
    # floating-point tolerance.
    from scipy.optimize import linprog

    for i in range(120):
        g = gen_gnp(GenSpec("gnp", 2 + i % 20, derive_seed(1203, i), {"edge_prob": 0.35}))
        n = g.n
        rows = [
            [-(1.0 if (g.closed_masks[v] >> u) & 1 else 0.0) for u in range(n)]
            for v in range(n)
        ]
        res = linprog(
            [1.0] * n, A_ub=rows, b_ub=[-1.0] * n, bounds=[(0, None)] * n, method="highs"
        )
        assert res.status == 0
        exact = fractional_domination(g).value
        assert abs(res.fun - float(exact)) < 1e-7


def test_harmonic():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(5) == Fraction(137, 60)
