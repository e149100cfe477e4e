import ast
from fractions import Fraction

import lp_reference
import pytest

from dompack import (
    exact_domination,
    exact_packing,
    fractional_domination,
    gen_named,
    gen_rook,
    harmonic,
    verify_sandwich,
)
from dompack import GraphError, SolveResult, VertexSet, lp
from dompack.generators import (
    GenSpec,
    all_graphs,
    all_trees,
    derive_seed,
    gen_gnp,
    gen_tree,
    generate,
)
from dompack.lp import LpError


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
    assert (report.rho, report.gamma_f, report.gamma) == (1, Fraction(4, 3), 2)
    assert report.holds


def test_sandwich_trees_collapse():
    for i in range(15):
        t = gen_tree(GenSpec("tree", 2 + i * 3 % 25, derive_seed(1201, i)))
        report = verify_sandwich(t)
        k = report.gamma
        assert (report.rho, report.gamma_f, report.gamma) == (k, k, k)
        assert report.holds
        # verify_sandwich closes a tree from its witnesses, so the simplex is
        # checked on trees here.
        assert fractional_domination(t).value == k


def count_simplex_runs(monkeypatch):
    runs = []
    solve = lp.fractional_domination

    def counted(g):
        runs.append(g)
        return solve(g)

    monkeypatch.setattr(lp, "fractional_domination", counted)
    return runs


def test_sandwich_closes_from_meeting_witnesses(monkeypatch):
    # gamma = rho on trees and on interval graphs (strongly chordal), so a
    # dominating set and a packing of one size pin gamma_f with no simplex.
    runs = count_simplex_runs(monkeypatch)
    tree = gen_tree(GenSpec("tree", 30, derive_seed(1206, 0)))
    interval = generate(GenSpec("interval", 30, derive_seed(1206, 1), {"span": 0.3}))
    for g in (tree, interval):
        gamma = exact_domination(g)
        report = verify_sandwich(g, gamma=gamma, rho=exact_packing(g))
        assert report.gamma_f == report.gamma == gamma.value
        assert report.holds
    assert runs == []
    c4 = gen_named("C4")
    assert verify_sandwich(c4).gamma_f == Fraction(4, 3)
    assert runs == [c4]


@pytest.mark.parametrize("forged", ["gamma", "rho"])
def test_sandwich_rechecks_an_invalid_witness(monkeypatch, forged):
    # On P4, gamma = rho = 2.  A witness of the right size that does not
    # dominate, or does not pack, closes nothing, so the simplex runs.
    runs = count_simplex_runs(monkeypatch)
    p4 = gen_named("P4")
    results = {"gamma": exact_domination(p4), "rho": exact_packing(p4)}
    assert results["gamma"].value == results["rho"].value == 2
    results[forged] = SolveResult(2, VertexSet(4, [0, 1]), 0, True)
    report = verify_sandwich(p4, **results)
    assert runs == [p4]
    assert report.gamma_f == 2


@pytest.mark.parametrize("capacity", [6, 2])  # n + 2 and n - 2 on P4
def test_sandwich_rejects_a_result_from_another_graph(monkeypatch, capacity):
    # The sizes do not meet, yet the foreign witness is an error rather than
    # a silent fall-back to the simplex.  Both checks always run, so it is an
    # error even beside a witness of the right capacity that fails its own
    # check ({0, 1} neither dominates nor packs P4).
    runs = count_simplex_runs(monkeypatch)
    p4 = gen_named("P4")
    foreign = SolveResult(1, VertexSet(capacity, [0]), 0, True)
    failing = SolveResult(2, VertexSet(4, [0, 1]), 0, True)
    for results in (
        {"gamma": foreign},
        {"rho": foreign},
        {"gamma": failing, "rho": foreign},
        {"gamma": foreign, "rho": failing},
    ):
        with pytest.raises(GraphError, match="capacity"):
            verify_sandwich(p4, **results)
    assert runs == []


def test_sandwich_rook():
    report = verify_sandwich(gen_rook(3, 3))
    assert report.rho == 1 and report.gamma == 3
    assert 1 <= report.gamma_f <= 3
    assert report.holds


def test_sandwich_random():
    for i in range(40):
        g = gen_gnp(GenSpec("gnp", 2 + i % 12, derive_seed(1202, i), {"edge_prob": 0.3}))
        report = verify_sandwich(g)
        assert report.holds
        gamma, rho = exact_domination(g), exact_packing(g)
        assert (report.gamma, report.rho) == (gamma.value, rho.value)
        assert verify_sandwich(g, gamma=gamma, rho=rho) == report
        assert report.gamma_f == fractional_domination(g).value


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


def test_equals_fully_rescaled_reference():
    # dompack.lp and the reference apply the same Bareiss step, so they must
    # take the same pivots and the whole solution, not only the value, is the same.
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    graphs += [t for n in range(1, 13) for t in all_trees(n)]
    graphs += [
        gen_gnp(GenSpec("gnp", 10 + i % 31, derive_seed(1205, i), {"edge_prob": p}))
        for i, p in enumerate([0.15, 0.3, 0.5] * 34)
    ]
    for g in graphs:
        sol = fractional_domination(g)
        assert (sol.value, sol.primal, sol.dual) == lp_reference.fractional_domination(g)


def test_bland_rule_path(monkeypatch):
    # With a stall limit of 1, the first degenerate pivot hands over to
    # Bland's rule, which then picks every later entering column.
    monkeypatch.setattr(lp, "_STALL_LIMIT", 1)
    graphs = [gen_named(f"K{n}") for n in range(1, 9)]
    graphs += [gen_named(f"C{n}") for n in range(3, 13)]
    graphs += [gen_rook(k, l) for k in range(2, 5) for l in range(k, 6)]
    graphs += [
        gen_gnp(GenSpec("gnp", 6 + i % 20, derive_seed(1204, i), {"edge_prob": 0.4}))
        for i in range(30)
    ]
    engaged = 0
    for g in graphs:
        value, y, x, bland = lp_reference.simplex_packing(g.closed_masks, g.n, stall_limit=1)
        engaged += bland
        sol = fractional_domination(g)
        assert sol.value == value == lp_reference.fractional_domination(g)[0]
        assert (sol.primal, sol.dual) == (x, y)
        assert feasible(g, sol)
    assert engaged >= len(graphs) // 2


@pytest.mark.parametrize(
    "change, message",
    [
        # On the path 0-1-2-3, value = 2 * denom; every corruption but the
        # sums keeps sum(x) == sum(y) == value, so its own check must fire.
        (lambda d, v, y, x: (d, v, y, [2 * d, 0, 0, 0]), "domination .* at vertex 2"),
        (lambda d, v, y, x: (d, v, [d, d, 0, 0], x), "packing constraint violated at vertex 0"),
        (lambda d, v, y, x: (d, v, [d, 0, -d, 2 * d], x), "negative coordinate"),
        (lambda d, v, y, x: (d, v, y, [x[0] + d, *x[1:]]), "objective mismatch"),
        (lambda d, v, y, x: (0, v, y, x), "denominator"),
        (lambda d, v, y, x: (-d, -v, [-c for c in y], [-c for c in x]), "denominator"),
    ],
)
def test_certificate_check_rejects_corrupted_solutions(monkeypatch, change, message):
    p4 = gen_named("P4")
    assert fractional_domination(p4).value == 2
    solve = lp._simplex_packing
    monkeypatch.setattr(lp, "_simplex_packing", lambda closed, n: change(*solve(closed, n)))
    with pytest.raises(LpError, match=message):
        fractional_domination(p4)


def test_lp_module_has_no_floating_point():
    # The module docstring promises exact arithmetic throughout.
    with open(lp.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        assert not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")
        assert not (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))


def test_harmonic():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(5) == Fraction(137, 60)
