import io
import json
import subprocess
import sys

import pytest

from dompack import emit_graph6, gen_named, parse_graph6
from dompack.cli import main
from dompack.generators import GenSpec, generate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


def test_compute_parse_failure(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("C\n")
    assert main(["compute", str(path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--class", "tree", "--n", "1"],
        ["verify", "--class", "strongly-chordal", "--n", "1"],
        ["verify", "--class", "homogeneously-orderable", "--n", "1"],
        ["verify", "--class", "any", "--n", "1"],
        ["verify", "--class", "chordal-bipartite", "--n", "3"],
        ["verify", "--class", "planar", "--n", "3"],
        ["verify", "--class", "tree", "--n", "-5"],
        ["verify", "--class", "rook", "--n", "-5"],
        ["verify", "--class", "tree", "--n", "0"],
        ["lemmacheck", "--lemma", "triangulate", "--n", "3"],
        ["lemmacheck", "--lemma", "charge-audit", "--n", "3"],
        ["lemmacheck", "--lemma", "discharge", "--n", "0"],
        ["compute", "-", "--x-set", "a"],
        ["verify", "--class", "tree", "--bound", "x"],
        ["search", "--target", "x"],
        ["compute", "missing.g6"],
        ["compute", "-", "--out", "missing-dir/out.json"],
        ["compute", "binary.dat"],
    ],
)
def test_bad_arguments_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    # Exit 1 means a bound was violated; bad input is exit 2 with a message.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary.dat").write_bytes(b"\xff\xfe\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("C~\n"))
    if argv[0] in ("verify", "lemmacheck"):
        argv = argv + ["--count", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    assert any("x_checks" in rec for rec in records)


def test_verify_records_replay(capsys):
    code, out = run_cli(
        capsys, "verify", "--class", "strongly-chordal", "--count", "6",
        "--seed", "11", "--format", "json",
    )
    records, _ = json_records(out)
    for rec in records:
        spec = GenSpec.from_json(json.dumps(rec["genspec"]))
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


def test_search_trivial_target(capsys):
    code, out = run_cli(
        capsys, "search", "--target", "1", "--n", "8", "--iterations", "40",
        "--seed", "2", "--format", "json",
    )
    assert code == 0
    _, summary = json_records(out)
    assert summary["found"] is True


def test_search_ratio_two(capsys):
    code, out = run_cli(
        capsys, "search", "--target", "2", "--n", "10", "--iterations", "2000",
        "--seed", "1", "--format", "json",
    )
    assert code == 0
    _, summary = json_records(out)
    assert summary["found"] is True
    from fractions import Fraction

    assert Fraction(summary["best_ratio"]) >= 2


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
    # Instance 100 of seed 0 once made the lowest-pair chord rule block; the
    # campaign now passes, and every record, failed ones included, names its
    # input graph and its cost.
    code, out = run_cli(
        capsys, "lemmacheck", "--lemma", "triangulate", "--count", "200",
        "--seed", "0", "--format", "json",
    )
    assert code == 0
    records, _ = json_records(out)
    assert (records[100]["graph6"], records[100]["n"], records[100]["m"]) == (
        "JZgjbCKOqc?", 11, 22,
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


def test_compute_fractional_solves_each_graph_once(capsys, monkeypatch, tmp_path):
    import dompack.cli
    import dompack.lp

    calls = {"exact_domination": 0, "exact_packing": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (dompack.cli, dompack.lp):
        for name in calls:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    graphs = [gen_named(name) for name in ("K1", "C4", "P7", "C6")]
    path = tmp_path / "in.g6"
    path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    code, out = run_cli(capsys, "compute", str(path), "--fractional", "--format", "json")
    assert code == 0
    assert len(json_records(out)[0]) == len(graphs)
    assert calls == {"exact_domination": len(graphs), "exact_packing": len(graphs)}


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


def test_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("DOMPACK_SEED", "31")
    _, out1 = run_cli(capsys, "verify", "--class", "tree", "--count", "3", "--format", "json")
    _, out2 = run_cli(capsys, "verify", "--class", "tree", "--count", "3", "--seed", "31", "--format", "json")
    recs1, _ = json_records(out1)
    recs2, _ = json_records(out2)
    assert [r["graph6"] for r in recs1] == [r["graph6"] for r in recs2]


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "dompack.cli", "compute", "-", "--format", "json"],
        input="C~\n",
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout.splitlines()[0])["gamma"] == 1


def test_stdin_edge_json():
    result = subprocess.run(
        [sys.executable, "-m", "dompack.cli", "compute", "-", "--format", "json"],
        input='{"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}\n',
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout.splitlines()[0])["gamma"] == 2
