"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 1-5 build shared instance corpora (graphs plus exact gamma/rho);
criteria 7 and 9 sweep every instance those corpora touched.  All tolerances
are exact: integer equalities and exact rational comparisons throughout.
"""

import json
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dompack import (
    VertexSet,
    brute_force_domination,
    brute_force_packing,
    charge_audit,
    chordal_bipartite_dompack,
    embed_maximal_planar,
    exact_domination,
    exact_packing,
    find_homogeneous_ordering,
    find_low_degree_edge,
    find_simple_elimination_ordering,
    fractional_domination,
    gen_named,
    gen_rook,
    greedy_domination,
    greedy_maximal_independent_set,
    harmonic,
    homogeneously_orderable_dompack,
    random_min_degree4_planar,
    random_planar_embedding,
    strongly_chordal_dompack,
    tree_dompack,
    triangulate_preserving_independent,
)
from dompack.generators import (
    GenSpec,
    all_graphs,
    all_trees,
    derive_seed,
    gen_chordal_bipartite,
    gen_distance_hereditary,
    gen_gnp,
    gen_interval,
    gen_tree,
)

SEED = 20260809
ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "..", "test-artifacts")


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"
    print(f"[criterion {number}] PASS ({elapsed:.1f}s): {description}")


def solve_pair(g):
    return exact_domination(g).value, exact_packing(g).value


# -- shared corpora ------------------------------------------------------------


@pytest.fixture(scope="module")
def tree_corpus():
    instances = []
    for n in range(1, 13):
        for t in all_trees(n):
            instances.append((t, *solve_pair(t)))
    for i in range(1000):
        n = 2 + derive_seed(SEED, i) % 49
        t = gen_tree(GenSpec("tree", n, derive_seed(SEED + 1, i)))
        instances.append((t, *solve_pair(t)))
    return instances


@pytest.fixture(scope="module")
def chordal_bipartite_corpus():
    instances = []
    for i in range(300):
        n = 4 + derive_seed(SEED + 2, i) % 13
        p = (0.2, 0.3, 0.45)[i % 3]
        g = gen_chordal_bipartite(
            GenSpec("chordal-bipartite", n, derive_seed(SEED + 3, i), {"edge_prob": p})
        )
        instances.append((g, *solve_pair(g)))
    return instances


@pytest.fixture(scope="module")
def interval_corpus():
    instances = []
    for i in range(300):
        n = 2 + derive_seed(SEED + 4, i) % 39
        span = (0.15, 0.3, 0.5)[i % 3]
        g = gen_interval(GenSpec("interval", n, derive_seed(SEED + 5, i), {"span": span}))
        instances.append((g, *solve_pair(g)))
    return instances


@pytest.fixture(scope="module")
def homogeneously_orderable_corpus():
    instances = []
    for i in range(200):
        n = 3 + derive_seed(SEED + 6, i) % 12
        g = gen_distance_hereditary(GenSpec("distance-hereditary", n, derive_seed(SEED + 7, i)))
        instances.append((g, *solve_pair(g)))
    return instances


@pytest.fixture(scope="module")
def planar_corpus():
    instances = []
    for i in range(500):
        rng = random.Random(derive_seed(SEED + 8, i))
        n = rng.randrange(4, 31)
        m = rng.randrange(0, 3 * n - 5)
        emb = random_planar_embedding(derive_seed(SEED + 9, i), n, m)
        g = emb.graph()
        instances.append((g, *solve_pair(g)))
    return instances


@pytest.fixture(scope="module")
def lp_values(
    tree_corpus,
    chordal_bipartite_corpus,
    interval_corpus,
    homogeneously_orderable_corpus,
    planar_corpus,
):
    """gamma_f for every instance criteria 1-5 touched, with the sandwich
    checked instance by instance (criterion 7's sweep)."""
    everything = (
        tree_corpus
        + chordal_bipartite_corpus
        + interval_corpus
        + homogeneously_orderable_corpus
        + planar_corpus
    )
    values = []
    for g, gamma, rho in everything:
        sol = fractional_domination(g)
        rho_f = sum(sol.dual, Fraction(0))
        gamma_f = sum(sol.primal, Fraction(0))
        assert rho <= rho_f == gamma_f == sol.value <= gamma
        values.append((g, gamma, rho, gamma_f))
    return values


# -- criteria ------------------------------------------------------------------


def test_criterion_1_tree_equality(request):
    with criterion(1, 120, "gamma = rho on all trees n<=12 and 1000 random trees n<=50"):
        corpus = request.getfixturevalue("tree_corpus")
        exhaustive = sum(len(all_trees(n)) for n in range(1, 13))
        assert exhaustive == 987  # non-isomorphic tree counts, n = 1..12
        assert len(corpus) == exhaustive + 1000
        for t, gamma, rho in corpus:
            cert = tree_dompack(t, 0)
            assert len(cert.d) == len(cert.p) == gamma == rho
            assert cert.valid


def test_criterion_2_chordal_bipartite_bound(request):
    with criterion(2, 300, "gamma <= 2 rho with valid certificates on 300 chordal bipartite instances"):
        corpus = request.getfixturevalue("chordal_bipartite_corpus")
        assert len(corpus) >= 300
        for g, gamma, rho in corpus:
            assert gamma <= 2 * rho
            cert = chordal_bipartite_dompack(g)
            assert cert.valid and len(cert.d) <= 2 * len(cert.p)
        c4 = gen_named("C4")
        assert exact_domination(c4).value == 2 * exact_packing(c4).value  # tight
        cert = chordal_bipartite_dompack(c4)
        assert len(cert.d) == 2 and len(cert.p) == 1


def test_criterion_3_strongly_chordal_equality(request):
    with criterion(3, 300, "construction attains gamma = rho on 300 interval instances n<=40"):
        corpus = request.getfixturevalue("interval_corpus")
        assert len(corpus) >= 300
        for g, gamma, rho in corpus:
            ordering = find_simple_elimination_ordering(g)
            assert ordering is not None
            cert = strongly_chordal_dompack(g, ordering)
            assert len(cert.d) == len(cert.p) == gamma == rho


def test_criterion_4_homogeneously_orderable_bound(request):
    with criterion(4, 600, "gamma <= 2 rho with valid certificates on 200 homogeneously orderable instances"):
        corpus = request.getfixturevalue("homogeneously_orderable_corpus")
        assert len(corpus) >= 200
        for g, gamma, rho in corpus:
            assert gamma <= 2 * rho
            ordering = find_homogeneous_ordering(g)
            assert ordering is not None
            cert = homogeneously_orderable_dompack(g)
            assert cert.valid and len(cert.d) <= 2 * len(cert.p)
        c4 = gen_named("C4")
        cert = homogeneously_orderable_dompack(c4)
        assert len(cert.d) == 2 and len(cert.p) == 1  # equality at C_4


def test_criterion_5_planar_bounds(request):
    with criterion(5, 900, "gamma_X <= 7 rho_X on 500 planar instances, X empty and sampled"):
        corpus = request.getfixturevalue("planar_corpus")
        assert len(corpus) >= 500
        max_ratio = Fraction(0)
        high = []
        for idx, (g, gamma, rho) in enumerate(corpus):
            assert gamma <= 7 * rho
            ratio = Fraction(gamma, rho)
            max_ratio = max(max_ratio, ratio)
            if ratio > 3:
                high.append({"graph6": __import__("dompack").emit_graph6(g), "gamma": gamma, "rho": rho})
            rng = random.Random(derive_seed(SEED + 10, idx))
            for _ in range(2):
                x = VertexSet(g.n, [v for v in range(g.n) if rng.random() < 0.25])
                gx = exact_domination(g, x).value
                rx = exact_packing(g, x).value
                assert gx <= 7 * rx
        if high:
            os.makedirs(ARTIFACT_DIR, exist_ok=True)
            with open(os.path.join(ARTIFACT_DIR, "planar-high-ratio.jsonl"), "w") as fh:
                for item in high:
                    fh.write(json.dumps(item) + "\n")
        assert max_ratio <= 3, "a planar ratio above 3 would contradict the conjectured bound"
        print(f"[criterion 5] max observed planar gamma/rho = {max_ratio}")


def test_criterion_6_discharging_and_triangulation():
    with criterion(6, 600, "200 triangulation runs, 200 low-degree-edge instances, all audits total -12"):
        done = 0
        attempt = 0
        audits = 0
        while done < 200:
            attempt += 1
            assert attempt < 5000
            rng = random.Random(derive_seed(SEED + 11, attempt))
            n = rng.randrange(5, 31)
            m = rng.randrange(int(1.4 * n), 3 * n - 5)
            emb = random_planar_embedding(derive_seed(SEED + 12, attempt), n, m)
            g = emb.graph()
            if not g.is_connected() or g.min_degree() < 2:
                continue
            ind = greedy_maximal_independent_set(g)
            tri = triangulate_preserving_independent(emb, ind)
            assert tri.is_triangulated()
            mg = tri.multigraph()
            assert not any(u in ind and v in ind for u, v in mg.edges)
            assert all(mg.degree(v) >= g.degree(v) for v in range(g.n))
            low = VertexSet(mg.n, [v for v in ind if tri.degree(v) <= 7])
            ledger = charge_audit(tri, low)
            assert ledger.total == Fraction(-12)
            audits += 1
            done += 1

        for i in range(200):
            g = random_min_degree4_planar(derive_seed(SEED + 13, i), 10 + i % 51)
            assert g.min_degree() >= 4
            assert find_low_degree_edge(g) is not None

        for i in range(100):
            emb = embed_maximal_planar(derive_seed(SEED + 14, i), 6 + i % 45)
            g = emb.graph()
            low = VertexSet(g.n, [v for v in range(g.n) if emb.degree(v) <= 7])
            ind = greedy_maximal_independent_set(g, low)
            ledger = charge_audit(emb, ind)
            assert ledger.total == Fraction(-12)
            assert sum(ledger.initial, Fraction(0)) == Fraction(-12)
            audits += 1
        assert audits == 300


def test_criterion_7_lp_sandwich(request):
    with criterion(7, 900, "rho <= rho_f = gamma_f <= gamma (exact) on every instance of criteria 1-5"):
        values = request.getfixturevalue("lp_values")
        assert len(values) >= 987 + 1000 + 300 + 300 + 200 + 500
        assert fractional_domination(gen_named("C4")).value == Fraction(4, 3)


def test_criterion_8_rook_unboundedness():
    with criterion(8, 60, "rho(K_k x K_k) = 1 and gamma = k for k = 2..5"):
        for k in range(2, 6):
            g = gen_rook(k, k)
            assert exact_packing(g).value == 1
            assert exact_domination(g).value == k


def test_criterion_9_greedy_bound(request):
    with criterion(9, 300, "greedy size <= H(max degree + 1) * gamma_f on every test instance"):
        values = request.getfixturevalue("lp_values")
        for g, gamma, rho, gamma_f in values:
            bound = harmonic(g.max_degree() + 1) * gamma_f
            assert greedy_domination(g).value <= bound


def test_criterion_10_oracle_equivalence():
    with criterion(10, 600, "branch-and-bound equals subset enumeration on all graphs n<=7 plus 1000 at n=8"):
        total = 0
        for n in range(1, 8):
            for g in all_graphs(n):
                assert exact_domination(g).value == brute_force_domination(g).value
                assert exact_packing(g).value == brute_force_packing(g).value
                total += 1
        assert total == 1 + 2 + 4 + 11 + 34 + 156 + 1044
        for i in range(1000):
            p = (0.15, 0.3, 0.5, 0.7)[i % 4]
            g = gen_gnp(GenSpec("gnp", 8, derive_seed(SEED + 15, i), {"edge_prob": p}))
            assert exact_domination(g).value == brute_force_domination(g).value
            assert exact_packing(g).value == brute_force_packing(g).value
