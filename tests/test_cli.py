import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from dompack import Graph, emit_graph6, gen_named, parse_graph6
from dompack.cli import main
from dompack.generators import GenSpec, generate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_wall_time(out):
    return [line.split('"wall_time"')[0] for line in out.splitlines()]


def json_records(out):
    records = [json.loads(line) for line in out.strip().splitlines()]
    summary = records[-1]["summary"]
    return records[:-1], summary


def test_compute_c4(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(gen_named("C4")) + "\n")
    code, out = run_cli(capsys, "compute", str(path), "--fractional", "--format", "json")
    assert code == 0
    records, summary = json_records(out)
    rec = records[0]
    assert rec["gamma"] == 2 and rec["rho"] == 1 and rec["gamma_f"] == "4/3"
    assert summary["violations"] == 0


def test_compute_k1_and_p7(capsys, tmp_path):
    path = tmp_path / "in.txt"
    path.write_text(emit_graph6(gen_named("K1")) + "\n" + emit_graph6(gen_named("P7")) + "\n")
    code, out = run_cli(capsys, "compute", str(path), "--fractional", "--format", "json")
    records, _ = json_records(out)
    assert records[0]["gamma"] == records[0]["rho"] == 1
    assert records[0]["gamma_f"] == "1"
    assert records[1]["gamma"] == records[1]["rho"] == 3


def test_compute_with_x_set(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(gen_named("C4")) + "\n")
    code, out = run_cli(capsys, "compute", str(path), "--x-set", "0", "--format", "json")
    assert code == 0
    records, _ = json_records(out)
    assert records[0]["gamma_x"] == 1 and records[0]["rho_x"] == 1


def test_compute_x_out_of_range(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(gen_named("C4")) + "\n")
    code = main(["compute", str(path), "--x-set", "9"])
    assert code == 2


@pytest.mark.parametrize("fmt, lines", [("json", 1), ("csv", 2), ("table", 3)])
def test_usage_error_keeps_the_records_already_written(capsys, tmp_path, fmt, lines):
    # Records stream out as they are made: vertex 3 exists in C4 but not in
    # K1, so the C4 record (after any header) stays written and no summary
    # follows.
    path = tmp_path / "in.txt"
    path.write_text(emit_graph6(gen_named("C4")) + "\n" + emit_graph6(gen_named("K1")) + "\n")
    code = main(["compute", str(path), "--x-set", "3", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    out = captured.out.splitlines()
    assert len(out) == lines and "summary" not in captured.out
    if fmt == "json":
        rec = json.loads(out[0])
        assert rec["graph6"] == emit_graph6(gen_named("C4")) and rec["x_set"] == [3]


def test_compute_parse_failure(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    for text in ("C", '{"n": 2, "edges": 5}'):
        path.write_text(text + "\n")
        assert main(["compute", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["compute", "--fractional"], ["construct", "--class", "tree"]])
def test_malformed_line_keeps_the_records_before_it(capsys, tmp_path, command):
    # Input is parsed line by line as it is solved: the good first line gets
    # its record, the malformed second one ends the run with exit 2.
    path = tmp_path / "in.txt"
    path.write_text(emit_graph6(gen_named("P4")) + "\nC\n" + emit_graph6(gen_named("P7")) + "\n")
    code = main([command[0], str(path), *command[1:], "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    out = captured.out.splitlines()
    assert len(out) == 1 and "summary" not in captured.out
    assert json.loads(out[0])["graph6"] == emit_graph6(gen_named("P4"))


def test_input_with_only_comments_has_no_graphs(capsys, tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("# a comment\n\n   \n# another\n")
    assert main(["compute", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no graphs found in input\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--class", "tree", "--n", "1"],
        ["verify", "--class", "strongly-chordal", "--n", "1"],
        ["verify", "--class", "homogeneously-orderable", "--n", "1"],
        ["verify", "--class", "any", "--n", "1"],
        ["verify", "--class", "chordal-bipartite", "--n", "3"],
        ["verify", "--class", "chordal-bipartite", "--n", "17"],
        ["verify", "--class", "planar", "--n", "3"],
        ["verify", "--class", "tree", "--n", "-5"],
        ["verify", "--class", "rook", "--n", "-5"],
        ["verify", "--class", "tree", "--n", "0"],
        ["lemmacheck", "--lemma", "triangulate", "--n", "3"],
        ["lemmacheck", "--lemma", "charge-audit", "--n", "3"],
        ["lemmacheck", "--lemma", "discharge", "--n", "0"],
        ["compute", "-", "--x-set", "a"],
        ["verify", "--class", "tree", "--bound", "x"],
        ["compute", "missing.g6"],
        ["compute", "-", "--out", "missing-dir/out.json"],
        ["compute", "binary.dat"],
        ["DOMPACK_SEED=abc", "verify", "--class", "tree"],
        ["DOMPACK_SEED=abc", "lemmacheck", "--lemma", "discharge"],
        ["verify", "--class", "tree", "--count", "-3"],
        ["lemmacheck", "--lemma", "triangulate", "--count", "-2"],
        ["verify", "--class", "planar", "--x-samples", "-1"],
        ["verify", "--class", "planar", "--x-prob", "7"],
        ["verify", "--class", "planar", "--x-prob", "-0.5"],
        ["verify", "--class", "tree", "--jobs", "-4"],
        ["verify", "--class", "tree", "--jobs", "0"],
        ["construct", "--class", "tree", "-", "--root", "-1"],
        ["verify", "--class", "tree", "--n", "600", "--count", "3"],
        ["lemmacheck", "--lemma", "charge-audit", "--n", "2000", "--count", "4", "--seed", "1"],
    ],
)
def test_bad_arguments_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    # Exit 1 means a bound was violated; bad input is exit 2 with a message.
    # Leading NAME=value items set environment variables, as in a shell.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary.dat").write_bytes(b"\xff\xfe\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("C~\n"))
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    if argv[0] in ("verify", "lemmacheck") and "--count" not in argv:
        argv = argv + ["--count", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_verify_tree_clean(capsys):
    code, out = run_cli(
        capsys, "verify", "--class", "tree", "--count", "25", "--n", "20",
        "--seed", "7", "--format", "json",
    )
    assert code == 0
    records, summary = json_records(out)
    assert summary["violations"] == 0 and summary["max_ratio"] == "1"
    assert len(records) == 25


def test_verify_rook_demonstrates_unboundedness(capsys):
    code, out = run_cli(
        capsys, "verify", "--class", "rook", "--count", "4", "--format", "json",
    )
    assert code == 1  # violations are the point here
    records, summary = json_records(out)
    assert summary["violations"] == 4
    from fractions import Fraction

    assert Fraction(summary["max_ratio"]) >= 3
    assert all(rec["rho"] == 1 for rec in records)


def test_verify_planar_with_x(capsys):
    code, out = run_cli(
        capsys, "verify", "--class", "planar", "--count", "8", "--n", "14",
        "--seed", "3", "--x-samples", "2", "--format", "json",
    )
    assert code == 0
    records, summary = json_records(out)
    assert summary["violations"] == 0
    assert all(len(rec["x_checks"]) == 2 for rec in records)
    # Each X check is written once, in x_checks only.
    assert not any({"gamma_x", "rho_x", "x_set"} & rec.keys() for rec in records)


def test_verify_x_samples_apply_to_every_class(capsys):
    # --x-samples defaults to 0 off planar, and is honoured when given.
    args = ["verify", "--class", "tree", "--count", "6", "--n", "12", "--seed", "4"]
    _, out = run_cli(capsys, *args, "--format", "json")
    records, _ = json_records(out)
    assert not any("x_checks" in rec for rec in records)
    code, out = run_cli(capsys, *args, "--x-samples", "2", "--x-prob", "0.5", "--format", "json")
    assert code == 0
    records, summary = json_records(out)
    assert len(records) == 6 and summary["violations"] == 0
    for rec in records:
        assert len(rec["x_checks"]) == 2
        assert all(xc["gamma_x"] == xc["rho_x"] for xc in rec["x_checks"])


def test_verify_records_replay(capsys):
    code, out = run_cli(
        capsys, "verify", "--class", "strongly-chordal", "--count", "6",
        "--seed", "11", "--format", "json",
    )
    records, _ = json_records(out)
    for rec in records:
        spec = GenSpec(**rec["genspec"])
        assert emit_graph6(generate(spec)) == rec["graph6"]


def test_verify_jobs_match_sequential(capsys):
    def strip(out):
        recs, summary = json_records(out)
        for r in recs:
            r.pop("wall_time", None)
        return recs, summary

    # Planar records carry X samples and chordal-bipartite ones generator
    # attempts: both are filled in by the worker process.
    for cls, count, extra, field in (
        ("tree", "10", (), None),
        ("planar", "6", ("--n", "14", "--x-samples", "2"), "x_checks"),
        ("chordal-bipartite", "8", (), "gen_attempts"),
    ):
        args = ["verify", "--class", cls, "--count", count, "--seed", "5", "--format", "json"]
        args += extra
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args, "--jobs", "2")
        assert strip(out1) == strip(out2), cls
        if field:
            assert all(field in rec for rec in strip(out2)[0]), cls


def test_verify_searches_only_what_the_pass_leaves_open(capsys, monkeypatch):
    # Searches per class in one benchmark `verify` round at seed 1 (its tree
    # campaign runs at seed 0), out of 150 trees, 100 instances of each other
    # class and 300 planar solves (2 X sets each): a checked pass pair
    # settles every other (gamma, rho), and each search that does run is
    # one domination search and one packing search.
    import dompack.cli

    calls = []
    for name in ("exact_domination", "exact_packing"):
        solve = getattr(dompack.cli, name)
        monkeypatch.setattr(
            dompack.cli, name,
            lambda *a, name=name, solve=solve, **k: calls.append(name) or solve(*a, **k),
        )
    searched = {}
    for cls, count, seed, extra in (
        ("tree", 150, 0, ()),
        ("strongly-chordal", 100, 1, ()),
        ("chordal-bipartite", 100, 1, ()),
        ("homogeneously-orderable", 100, 1, ()),
        ("planar", 100, 1, ("--x-samples", "2")),
    ):
        calls.clear()
        code, _ = run_cli(
            capsys, "verify", "--class", cls, "--count", str(count), "--seed", str(seed), *extra
        )
        assert code == 0
        searched[cls] = calls.count("exact_domination")
        assert calls.count("exact_packing") == searched[cls]
    assert searched == {
        "tree": 0,
        "strongly-chordal": 20,
        "chordal-bipartite": 22,
        "homogeneously-orderable": 15,
        "planar": 139,
    }


def test_verify_instance_errors_fail_only_their_records(capsys, monkeypatch):
    # A generator that runs out of attempts fails its own record; the
    # campaign goes on and exits 1, and the record replays to the same error.
    import multiprocessing

    import dompack.generators
    from dompack.errors import GenerationBudgetError

    monkeypatch.setattr(dompack.generators, "_CB_ATTEMPTS", 1)
    args = ["verify", "--class", "chordal-bipartite", "--count", "20", "--format", "json"]
    code, out = run_cli(capsys, *args)
    assert code == 1
    if multiprocessing.get_start_method() == "fork":  # the workers inherit the patch
        code, out_jobs = run_cli(capsys, *args, "--jobs", "2")
        assert code == 1 and strip_wall_time(out_jobs) == strip_wall_time(out)
    records, summary = json_records(out)
    errors = [rec for rec in records if "error" in rec]
    assert len(records) == 20 and 0 < len(errors) < 20
    assert summary["errors"] == len(errors) and summary["violations"] == 0
    # Every attempt counts, the failed instances' too: one per instance here.
    assert summary["generator_acceptance"] == round((20 - len(errors)) / 20, 4)
    assert all(rec["passed"] for rec in records if "error" not in rec)
    for rec in errors:
        assert rec["error"] == "no chordal bipartite instance in 1 attempts"
        assert (rec["graph6"], rec["n"], rec["m"], rec["bound"]) == ("", 0, 0, "2")
        assert rec["gen_attempts"] == 1
        assert "ratio" not in rec and not rec["passed"]
        with pytest.raises(GenerationBudgetError, match=rec["error"]):
            generate(GenSpec(**rec["genspec"]))


def test_verify_survives_a_failed_membership_self_check(capsys, monkeypatch):
    # An interval draw that fails its strongly chordal self-check fails its
    # own record; the campaign goes on and exits 1.
    import dompack.generators

    monkeypatch.setattr(dompack.generators, "find_simple_elimination_ordering", lambda g: None)
    code, out = run_cli(
        capsys, "verify", "--class", "strongly-chordal", "--count", "2", "--format", "json"
    )
    assert code == 1
    records, summary = json_records(out)
    assert len(records) == 2 and summary["errors"] == 2
    for rec in records:
        assert rec["error"] == "interval graph failed the strongly chordal filter"
        assert not rec["passed"]


def test_construct_tree(capsys, tmp_path):
    path = tmp_path / "t.g6"
    path.write_text(emit_graph6(gen_named("P7")) + "\n")
    code, out = run_cli(capsys, "construct", "--class", "tree", str(path), "--format", "json")
    assert code == 0
    records, _ = json_records(out)
    cert = records[0]["certificate"]
    assert len(cert["D"]) == len(cert["P"]) == 3
    assert cert["valid"] is True


def test_construct_strongly_chordal_interval(capsys, tmp_path):
    from dompack.generators import gen_interval

    g = gen_interval(GenSpec("interval", 18, 321))
    path = tmp_path / "i.g6"
    path.write_text(emit_graph6(g) + "\n")
    code, out = run_cli(
        capsys, "construct", "--class", "strongly-chordal", str(path), "--format", "json"
    )
    assert code == 0
    records, _ = json_records(out)
    cert = records[0]["certificate"]
    assert len(cert["D"]) == len(cert["P"]) == records[0]["gamma"] == records[0]["rho"]


def test_construct_homogeneously_orderable(capsys, tmp_path):
    from dompack.generators import gen_distance_hereditary

    g = gen_distance_hereditary(GenSpec("distance-hereditary", 11, 17))
    # Instance 4 of `verify --class homogeneously-orderable --n 40 --seed 0`:
    # n = 33, gamma = rho = 6.
    n33 = "`CGh[A@AC_O@?GJ_Do@[BJ_Cm@w?A?@?A???J_DcB??@oNa?A????O?Q?_?Q????cB??a@_???????_@???A@A@GD"
    path = tmp_path / "dh.g6"
    path.write_text(emit_graph6(g) + "\n" + n33 + "\n")
    code, out = run_cli(
        capsys, "construct", "--class", "homogeneously-orderable", str(path), "--format", "json"
    )
    assert code == 0
    records, _ = json_records(out)
    for rec in records:
        cert = rec["certificate"]
        assert len(cert["D"]) <= 2 * len(cert["P"]) and cert["valid"] is True
        assert len(cert["P"]) == rec["rho"]
    assert (records[1]["n"], records[1]["gamma"], records[1]["rho"]) == (33, 6, 6)


def test_verify_homogeneously_orderable_at_n40(capsys):
    # Instance 11 once exceeded the h-extremal search's degree cap of 20.
    code, out = run_cli(
        capsys, "verify", "--class", "homogeneously-orderable", "--n", "40",
        "--count", "12", "--seed", "0", "--format", "json",
    )
    assert code == 0
    records, summary = json_records(out)
    assert len(records) == 12 and summary["violations"] == 0


def test_construct_tree_takes_gamma_and_rho_from_certificate(capsys, monkeypatch, tmp_path):
    # |P| <= rho <= gamma <= |D|, so a valid certificate with |D| = |P|
    # proves both values and nothing is solved.
    import dompack.cli
    from dompack.generators import all_trees

    def unexpected(*args, **kwargs):
        raise AssertionError("construct solved a graph its certificate settles")

    monkeypatch.setattr(dompack.cli, "exact_domination", unexpected)
    monkeypatch.setattr(dompack.cli, "exact_packing", unexpected)
    trees = [t for n in range(1, 9) for t in all_trees(n)]
    path = tmp_path / "trees.g6"
    path.write_text("".join(emit_graph6(t) + "\n" for t in trees))
    code, out = run_cli(capsys, "construct", "--class", "tree", str(path), "--format", "json")
    assert code == 0
    records, _ = json_records(out)
    assert len(records) == len(trees)
    assert all(rec["gamma"] == rec["rho"] == len(rec["certificate"]["D"]) for rec in records)


def test_construct_recognition_failure(capsys, tmp_path):
    path = tmp_path / "c6.g6"
    path.write_text(emit_graph6(gen_named("C6")) + "\n")
    code, out = run_cli(
        capsys, "construct", "--class", "chordal-bipartite", str(path), "--format", "json"
    )
    assert code == 1
    records, _ = json_records(out)
    assert records[0]["passed"] is False and "error" in records[0]


def test_failed_construct_record_is_replayable(capsys, tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text("C~\n")
    code, out = run_cli(capsys, "construct", "--class", "tree", str(path), "--format", "json")
    assert code == 1
    rec = json_records(out)[0][0]
    assert (rec["graph6"], rec["n"], rec["m"]) == ("C~", 4, 6)
    assert rec["wall_time"] > 0


def test_lemmacheck_all(capsys):
    for lemma in ("triangulate", "discharge", "charge-audit"):
        code, out = run_cli(
            capsys, "lemmacheck", "--lemma", lemma, "--count", "4", "--n", "18",
            "--seed", "9", "--format", "json",
        )
        assert code == 0, lemma
        _, summary = json_records(out)
        assert summary["failures"] == 0


def test_lemmacheck_records_carry_their_graph(capsys, monkeypatch):
    # The campaign passes (tests/test_planar.py keeps the input that once
    # blocked the chord rule as a literal), and every record, failed ones
    # included, names its input graph and its cost.
    code, out = run_cli(
        capsys, "lemmacheck", "--lemma", "triangulate", "--count", "200",
        "--seed", "0", "--format", "json",
    )
    assert code == 0
    records, _ = json_records(out)
    assert (records[100]["graph6"], records[100]["n"], records[100]["m"]) == (
        "J^KzBCk?oc?", 11, 22,
    )

    import dompack.cli
    from dompack.planar import TriangulationBlocked

    def blocked(emb, ind):
        raise TriangulationBlocked("forced")

    monkeypatch.setattr(dompack.cli, "triangulate_preserving_independent", blocked)
    code, out = run_cli(
        capsys, "lemmacheck", "--lemma", "triangulate", "--count", "5",
        "--seed", "0", "--format", "json",
    )
    assert code == 1
    failed, _ = json_records(out)
    assert not any(rec["passed"] for rec in failed)
    for rec in records + failed:
        g = parse_graph6(rec["graph6"])
        assert (rec["n"], rec["m"]) == (g.n, g.m)
        assert rec["wall_time"] > 0


def test_compute_takes_gamma_and_rho_from_one_place(capsys, monkeypatch, tmp_path):
    # Every graph on <= 5 vertices and C6 under `compute --fractional`: the
    # pass runs once per graph, each search at most once and only where the
    # pass leaves gamma = rho open, the sandwich solves nothing itself, and
    # the simplex runs exactly where gamma > rho.
    import dompack.cli
    import dompack.lp
    from dompack.generators import all_graphs
    from dompack.graph import VertexSet, _pair_fault
    from dompack.solvers import exact_domination, exact_packing

    calls = []

    def watched(name, fn):
        def wrapper(g, *args, **kwargs):
            result = fn(g, *args, **kwargs)
            calls.append((name, emit_graph6(g), result is not None))
            return result

        return wrapper

    for name in ("_pass_pair", "exact_domination", "exact_packing"):
        monkeypatch.setattr(dompack.cli, name, watched(name, getattr(dompack.cli, name)))
    for name in ("exact_domination", "exact_packing"):
        monkeypatch.setattr(dompack.lp, name, watched("lp." + name, getattr(dompack.lp, name)))
    monkeypatch.setattr(
        dompack.lp, "fractional_domination",
        watched("fractional_domination", dompack.lp.fractional_domination),
    )
    graphs = [g for n in range(1, 6) for g in all_graphs(n)] + [gen_named("C6")]
    path = tmp_path / "in.g6"
    path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    code, out = run_cli(capsys, "compute", str(path), "--fractional", "--format", "json")
    assert code == 0
    records, _ = json_records(out)
    assert len(records) == len(graphs)
    for g, rec in zip(graphs, records):
        g6 = emit_graph6(g)
        made = [(name, settled) for name, h, settled in calls if h == g6]
        settled = made[0] == ("_pass_pair", True)
        searched = [] if settled else [("exact_domination", True), ("exact_packing", True)]
        lp = [("fractional_domination", True)] if rec["gamma"] > rec["rho"] else []
        assert made == [("_pass_pair", settled)] + searched + lp, g6
        d = VertexSet(g.n, rec["gamma_witness"])
        p = VertexSet(g.n, rec["rho_witness"])
        assert _pair_fault(g, d, p) is None, g6
        assert (len(d), len(p)) == (rec["gamma"], rec["rho"]), g6
        assert (rec["gamma"], rec["rho"]) == (exact_domination(g).value, exact_packing(g).value)
    assert any(name == "exact_domination" for name, _, _ in calls)
    assert any(name == "fractional_domination" for name, _, _ in calls)
    _, again = run_cli(capsys, "compute", str(path), "--fractional", "--format", "json")
    assert strip_wall_time(again) == strip_wall_time(out)


def test_table_and_csv_formats(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(gen_named("C4")) + "\n")
    code, out = run_cli(capsys, "compute", str(path), "--format", "table")
    assert code == 0 and "gamma" in out.splitlines()[0]
    code, out = run_cli(capsys, "compute", str(path), "--format", "csv")
    assert out.splitlines()[0].startswith("graph6,")


def test_out_file(capsys, tmp_path):
    src = tmp_path / "g.g6"
    src.write_text(emit_graph6(gen_named("C4")) + "\n")
    dst = tmp_path / "records.jsonl"
    code = main(["compute", str(src), "--format", "json", "--out", str(dst)])
    assert code == 0
    lines = dst.read_text().strip().splitlines()
    assert json.loads(lines[0])["gamma"] == 2


def test_bad_out_path_fails_before_any_solve(capsys, monkeypatch, tmp_path):
    # Trees are settled by the pass pair and reach no search, so the pass is
    # watched as well as the searches.
    import dompack.cli

    calls = []
    for name in ("_pass_pair", "exact_domination", "exact_packing"):
        solve = getattr(dompack.cli, name)
        monkeypatch.setattr(
            dompack.cli, name, lambda *a, solve=solve, **k: calls.append(a) or solve(*a, **k)
        )
    monkeypatch.chdir(tmp_path)
    code = main(["verify", "--class", "tree", "--count", "5", "--out", "missing-dir/x.json"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write missing-dir/x.json")
    assert calls == []


@pytest.mark.parametrize("x_set", ["a", "0,9"])
def test_bad_x_set_fails_before_any_solve(capsys, monkeypatch, tmp_path, x_set):
    # C4 is left open by the pass, so a late --x-set check would run both
    # searches and the simplex first; "a" is no vertex list, and C4 has no
    # vertex 9.
    import dompack.cli

    calls = []
    for name in ("_pass_pair", "exact_domination", "exact_packing", "verify_sandwich"):
        solve = getattr(dompack.cli, name)
        monkeypatch.setattr(
            dompack.cli, name, lambda *a, solve=solve, **k: calls.append(a) or solve(*a, **k)
        )
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(gen_named("C4")) + "\n")
    code = main(["compute", str(path), "--fractional", "--x-set", x_set])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize(
    "source, out", [("g.g6", "g.g6"), ("g.g6", "./g.g6"), ("g.g6", "link.g6"), ("-", "g.g6")]
)
@pytest.mark.parametrize("command", [["compute"], ["construct", "--class", "tree"]])
def test_out_naming_the_input_is_a_usage_error(
    capsys, monkeypatch, tmp_path, command, source, out
):
    # Opening --out for writing would empty the input before it is read.
    monkeypatch.chdir(tmp_path)
    text = emit_graph6(gen_named("P4")) + "\n"
    (tmp_path / "g.g6").write_text(text)
    (tmp_path / "link.g6").symlink_to("g.g6")
    with open(tmp_path / "g.g6") as stdin:  # read by the "-" source
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(command + [source, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out") and captured.out == ""
    assert (tmp_path / "g.g6").read_text() == text


def test_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("DOMPACK_SEED", "31")
    _, out1 = run_cli(capsys, "verify", "--class", "tree", "--count", "3", "--format", "json")
    _, out2 = run_cli(capsys, "verify", "--class", "tree", "--count", "3", "--seed", "31", "--format", "json")
    recs1, _ = json_records(out1)
    recs2, _ = json_records(out2)
    assert [r["graph6"] for r in recs1] == [r["graph6"] for r in recs2]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "-"],
        ["construct", "--class", "tree", "-"],
        ["verify", "--class", "tree", "--count", "1", "--seed", "3"],
    ],
)
def test_a_seed_left_unread_is_not_checked(capsys, monkeypatch, argv):
    # compute and construct draw nothing at random, and an explicit --seed
    # overrides the environment: none of these runs reads DOMPACK_SEED.
    monkeypatch.setenv("DOMPACK_SEED", "abc")
    monkeypatch.setattr(sys, "stdin", io.StringIO(emit_graph6(gen_named("P4")) + "\n"))
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert len(json_records(out)[0]) == 1


@pytest.mark.parametrize("command", [["compute", "-"], ["construct", "--class", "tree", "-"]])
def test_unseeded_commands_take_no_seed(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "1"])
    assert exc.value.code == 2


def test_console_entry_point(src_env):
    result = subprocess.run(
        [sys.executable, "-m", "dompack.cli", "compute", "-", "--format", "json"],
        input="C~\n",
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout.splitlines()[0])["gamma"] == 1


def test_stdin_edge_json(src_env):
    result = subprocess.run(
        [sys.executable, "-m", "dompack.cli", "compute", "-", "--format", "json"],
        input='{"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}\n',
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout.splitlines()[0])["gamma"] == 2


def test_closed_pipe_stops_quietly(src_env):
    # The reader takes one line and closes the pipe, as `| head -1` does:
    # no error line, no traceback at exit, and SIGPIPE's status, not 2.
    proc = subprocess.Popen(
        [sys.executable, "-m", "dompack.cli", "verify", "--class", "tree",
         "--count", "3000", "--n", "6", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env,
    )
    assert json.loads(proc.stdout.readline())["n"] >= 2
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("via_out", [True, False], ids=["out", "stdout"])
def test_a_full_device_is_one_error_line(src_env, via_out):
    # Every write to /dev/full fails with ENOSPC, through --out or through a
    # redirected stdout alike: one error line and the usage status, 2, not
    # the failed-record status 1 and no traceback from closing the file.
    argv = [sys.executable, "-m", "dompack.cli", "lemmacheck", "--lemma", "charge-audit",
            "--count", "3"]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            argv + ["--out", "/dev/full"] if via_out else argv,
            stdout=subprocess.DEVNULL if via_out else full,
            stderr=subprocess.PIPE,
            text=True,
            env=src_env,
        )
    name = "/dev/full" if via_out else "stdout"
    assert result.stderr == f"error: cannot write {name}: No space left on device\n"
    assert result.returncode == 2


def test_stdin_graph6_on_60_vertices(capsys, monkeypatch):
    # graph6 writes n = 60 as '{'; the line is still graph6, not edge JSON.
    line = emit_graph6(Graph(60, [(i, i + 1) for i in range(59)]))
    assert line.startswith("{")
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, out = run_cli(capsys, "compute", "-", "--format", "json")
    assert code == 0
    records, _ = json_records(out)
    assert (records[0]["n"], records[0]["gamma"], records[0]["rho"]) == (60, 20, 20)


CLASSES = (
    "tree", "strongly-chordal", "chordal-bipartite", "homogeneously-orderable",
    "planar", "rook", "any",
)
PINNED_RUNS = (
    [["compute", "graphs.g6", "--fractional"], ["compute", "graphs.g6", "--x-set", "0"]]
    + [["construct", "--class", cls, "graphs.g6"] for cls in CLASSES[:4]]
    + [["verify", "--class", cls, "--count", "10", "--seed", "3"] for cls in CLASSES]
    + [
        ["lemmacheck", "--lemma", lemma, "--count", "10", "--seed", "2"]
        for lemma in ("triangulate", "discharge", "charge-audit")
    ]
)


# One round of the benchmark's `lemmas` workload at seed 1.
LEMMA_ROUND = (("triangulate", 200, 0), ("discharge", 70, 1), ("charge-audit", 400, 1))
# sha256 of LEMMA_ROUND's exit codes and JSON output, wall_time stripped: a
# faster planar layer must check the same instances with the same answers.
PINNED_LEMMA_ROUND_SHA256 = "eb4fde4b0297673c3a9324d864e6d65f76ad3ca91c160df1a503395ecea17d92"


def test_lemma_round_is_pinned(capsys):
    digest = hashlib.sha256()
    for lemma, count, seed in LEMMA_ROUND:
        argv = ["lemmacheck", "--lemma", lemma, "--count", str(count), "--seed", str(seed),
                "--format", "json"]
        code, out = run_cli(capsys, *argv)
        lines = [json.loads(line) for line in out.splitlines()]
        for rec in lines:
            rec.pop("wall_time", None)
        digest.update(json.dumps([argv, code, lines], sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_LEMMA_ROUND_SHA256


@pytest.fixture(scope="module")
def pinned_outputs(tmp_path_factory):
    """{format: [(argv, exit code, output)]}: PINNED_RUNS in each format,
    over every graph on <= 6 vertices and every tree on <= 10."""
    from dompack.generators import all_graphs, all_trees

    tmp_path = tmp_path_factory.mktemp("pinned")
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    graphs += [t for n in range(1, 11) for t in all_trees(n)]
    assert len(graphs) == 409
    (tmp_path / "graphs.g6").write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    runs = {"json": [], "table": [], "csv": []}
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DOMPACK_SEED", raising=False)
        for fmt, outputs in runs.items():
            for argv in PINNED_RUNS:
                argv = argv + ["--format", fmt, "--out", "out.txt"]
                outputs.append((argv, main(argv), (tmp_path / "out.txt").read_text()))
    return runs


def json_digest(pinned_outputs, dropped=()):
    """sha256 of the JSON runs' argv (without --out), exit codes and records,
    with wall_time and the `dropped` keys stripped from every record."""
    digest = hashlib.sha256()
    for argv, code, text in pinned_outputs["json"]:
        lines = [json.loads(line) for line in text.splitlines()]
        for rec in lines:
            for key in ("wall_time", *dropped):
                rec.pop(key, None)
        digest.update(json.dumps([argv[:-2], code, lines], sort_keys=True).encode())
    return digest.hexdigest()


# sha256 of PINNED_RUNS' exit codes and JSON output, wall_time stripped: any
# change to an answer, witness, ordering, field or exit status shows here.
PINNED_OUTPUT_SHA256 = "08cc185931ac886fe060407ab195cc9be988c4a6b6542617bd1a3b9dcf46952a"
# The same with the gamma and rho witnesses stripped as well: every value,
# field and exit status, whichever valid witnesses the CLI prints.
PINNED_VALUES_SHA256 = "9d7b233dbca9373752b0cc37fcf557d859593be3d6424361ecf7f4a44755cc9d"


def test_cli_output_is_pinned(pinned_outputs):
    assert json_digest(pinned_outputs) == PINNED_OUTPUT_SHA256


def test_cli_values_are_pinned(pinned_outputs):
    dropped = ("gamma_witness", "rho_witness")
    assert json_digest(pinned_outputs, dropped) == PINNED_VALUES_SHA256


# sha256 per format of PINNED_RUNS' exit codes and output, CSV's last column
# (wall_time) cut off: the table and CSV layouts, row by row.
PINNED_TEXT_SHA256 = {
    "table": "e42c41ba03b2ff96557cc99e9ad2cce5a5aadd96bfe36dd922d4c7d2a7a1f201",
    "csv": "6cbaf28c17019c4385c9c23ceee371de2a61c3a9e6bffbc3b34991965c367928",
}


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_table_and_csv_output_is_pinned(pinned_outputs, fmt):
    digest = hashlib.sha256()
    for argv, code, text in pinned_outputs[fmt]:
        lines = text.splitlines()
        if fmt == "csv":
            lines = [line if line.startswith("#") else line.rsplit(",", 1)[0] for line in lines]
        digest.update(json.dumps([argv, code, lines]).encode())
    assert digest.hexdigest() == PINNED_TEXT_SHA256[fmt]


def test_csv_rows_need_no_quoting(pinned_outputs):
    # Every CSV row splits on commas into exactly the columns it writes.
    from dompack.cli import _Output

    for _, _, text in pinned_outputs["csv"]:
        for line in text.splitlines():
            if not line.startswith("#"):
                assert len(line.split(",")) == len(_Output.COLUMNS), line
