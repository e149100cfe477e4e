"""Command-line surface: compute, verify, construct, search, lemmacheck.

Records are plain dicts built by `_record`, the one place a graph becomes a
record; each subcommand adds only its own fields.  Every record, failed ones
included, carries its graph's graph6, n and m, its GenSpec when `verify`
generated the graph (so it replays bit-exactly), and its wall_time.  A
record that holds gamma and rho solved each of them once (once more per X
set).  Records stream as JSON lines, an aligned table, or CSV; any bound
violation, invalid certificate, or lemma falsification makes the exit status
nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import codec
from .constructions import (
    chordal_bipartite_dompack,
    homogeneously_orderable_dompack,
    strongly_chordal_dompack,
    tree_dompack,
)
from .errors import DompackError
from .generators import GenSpec, derive_seed, gen_chordal_bipartite_with_stats, generate
from .graph import Graph, VertexSet, greedy_maximal_independent_set
from .lp import verify_sandwich
from .planar import (
    charge_audit,
    embed_maximal_planar,
    find_low_degree_edge,
    random_min_degree4_planar,
    random_planar_embedding,
    triangulate_preserving_independent,
)
from .recognition import (
    find_homogeneous_ordering,
    find_simple_elimination_ordering,
    is_chordal_bipartite,
    is_tree,
)
from .solvers import exact_domination, exact_packing

VERIFY_CLASSES = (
    "tree",
    "strongly-chordal",
    "chordal-bipartite",
    "homogeneously-orderable",
    "planar",
    "rook",
    "any",
)

DEFAULT_BOUNDS = {
    "tree": Fraction(1),
    "strongly-chordal": Fraction(1),
    "chordal-bipartite": Fraction(2),
    "homogeneously-orderable": Fraction(2),
    "planar": Fraction(7),
    "rook": Fraction(1),
    "any": Fraction(1),
}

DEFAULT_MAX_N = {
    "tree": 50,
    "strongly-chordal": 40,
    "chordal-bipartite": 16,
    "homogeneously-orderable": 14,
    "planar": 30,
    "rook": 25,
    "any": 12,
}

# The smallest --n each class's instance generator can draw from.
MIN_N = {
    "tree": 2,
    "strongly-chordal": 2,
    "chordal-bipartite": 4,
    "homogeneously-orderable": 2,
    "planar": 4,
    "rook": 4,
    "any": 2,
}


def _record(g: Graph | None, t0: float, **fields) -> dict:
    """One CLI record: the only place a graph becomes a record.

    The record carries the graph6, n and m of `g` ("", 0 and 0 when no graph
    was made), `passed` (True unless `fields` says otherwise), the
    subcommand's own `fields` and `wall_time`, the seconds since `t0`.
    Exact rationals are written as their string, for example "7/3".
    """
    rec = {"graph6": "", "n": 0, "m": 0, "passed": True}
    if g is not None:
        rec.update(graph6=codec.emit_graph6(g), n=g.n, m=g.m)
    for key, value in fields.items():
        rec[key] = str(value) if isinstance(value, Fraction) else value
    rec["wall_time"] = round(time.perf_counter() - t0, 6)
    return rec


def _failures(records: list[dict]) -> int:
    return sum(not rec["passed"] for rec in records)


def _emit(records: list[dict], summary: dict, args) -> None:
    fmt = args.format
    lines: list[str] = []
    if fmt == "json":
        for rec in records:
            lines.append(json.dumps(rec, sort_keys=True))
        lines.append(json.dumps({"summary": summary}, sort_keys=True))
    elif fmt == "csv":
        import csv as _csv
        import io

        cols = ["graph6", "n", "m", "gamma", "rho", "gamma_f", "ratio", "passed", "wall_time"]
        buf = io.StringIO()
        writer = _csv.writer(buf)
        writer.writerow(cols)
        for rec in records:
            writer.writerow([rec.get(c, "") for c in cols])
        lines = buf.getvalue().splitlines()
        lines.append("# " + json.dumps({"summary": summary}, sort_keys=True))
    else:
        header = f"{'graph6':<24} {'n':>3} {'m':>4} {'gamma':>5} {'rho':>4} {'gamma_f':>8} {'ratio':>6} {'pass':>5}"
        lines.append(header)
        lines.append("-" * len(header))
        for d in records:
            lines.append(
                f"{d.get('graph6', '')[:24]:<24} {d.get('n', ''):>3} {d.get('m', ''):>4} "
                f"{str(d.get('gamma', '')):>5} {str(d.get('rho', '')):>4} "
                f"{str(d.get('gamma_f', '')):>8} {str(d.get('ratio', '')):>6} "
                f"{str(d.get('passed', '')):>5}"
            )
        lines.append("summary: " + json.dumps(summary, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DompackError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _read_graphs(path: str) -> list[Graph]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except OSError as exc:
        raise DompackError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DompackError(f"cannot read {path}: not a text file") from None
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            graphs.append(codec.parse_graph(line))
    if not graphs:
        raise DompackError("no graphs found in input")
    return graphs


def _parse_x_set(text: str, g: Graph) -> VertexSet:
    try:
        members = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise DompackError(f"--x-set must list vertex indices, got {text!r}") from None
    return VertexSet(g.n, members)


def _parse_fraction(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DompackError(f"{option} must be a rational number, got {text!r}") from None


def _max_n(n: int | None, default: int, least: int) -> int:
    """The --n value, or `default` when it is not given; below `least` is an error."""
    if n is None:
        return default
    if n < least:
        raise DompackError(f"--n must be at least {least}, got {n}")
    return n


# -- compute -------------------------------------------------------------------


def cmd_compute(args) -> int:
    records = []
    for g in _read_graphs(args.input):
        t0 = time.perf_counter()
        gamma = exact_domination(g)
        rho = exact_packing(g)
        fields = {}
        if args.fractional:
            report = verify_sandwich(g, gamma=gamma.value, rho=rho.value)
            fields.update(gamma_f=report.gamma_f, passed=report.holds)
        if args.x_set:
            x = _parse_x_set(args.x_set, g)
            fields.update(
                gamma_x=exact_domination(g, x).value,
                rho_x=exact_packing(g, x).value,
                x_set=sorted(x),
            )
        records.append(_record(
            g, t0,
            gamma=gamma.value,
            rho=rho.value,
            ratio=Fraction(gamma.value, rho.value),
            gamma_witness=sorted(gamma.witness),
            rho_witness=sorted(rho.witness),
            **fields,
        ))
    violations = _failures(records)
    _emit(records, {"instances": len(records), "violations": violations}, args)
    return 1 if violations else 0


# -- verify --------------------------------------------------------------------


def _instance_spec(cls: str, index: int, seed: int, max_n: int, x_prob: float) -> GenSpec:
    sub = derive_seed(seed, index)
    rng = random.Random(sub)
    if cls == "tree":
        return GenSpec("tree", rng.randrange(2, max_n + 1), sub)
    if cls == "strongly-chordal":
        return GenSpec(
            "interval",
            rng.randrange(2, max_n + 1),
            sub,
            {"span": rng.choice([0.15, 0.3, 0.5])},
        )
    if cls == "chordal-bipartite":
        return GenSpec(
            "chordal-bipartite",
            rng.randrange(4, min(max_n, 16) + 1),
            sub,
            {"edge_prob": rng.choice([0.2, 0.3, 0.45])},
        )
    if cls == "homogeneously-orderable":
        return GenSpec("distance-hereditary", rng.randrange(2, max_n + 1), sub)
    if cls == "planar":
        n = rng.randrange(4, max_n + 1)
        return GenSpec("planar", n, sub, {"m": rng.randrange(0, 3 * n - 5), "x_prob": x_prob})
    if cls == "rook":
        k = 2 + index % max(1, int(math.isqrt(max_n)) - 1)
        return GenSpec("rook", k * k, sub, {"k": k, "l": k})
    if cls == "any":
        return GenSpec("gnp", rng.randrange(2, max_n + 1), sub, {"edge_prob": 0.5})
    raise DompackError(f"unknown class {cls!r}")


def _verify_one(payload: tuple) -> dict:
    spec_json, bound, x_samples = payload
    spec = GenSpec.from_json(spec_json)
    t0 = time.perf_counter()
    fields = {"genspec": json.loads(spec_json), "bound": bound}
    if spec.family == "chordal-bipartite":
        g, fields["gen_attempts"] = gen_chordal_bipartite_with_stats(spec)
    else:
        g = generate(spec)
    gamma = exact_domination(g).value
    rho = exact_packing(g).value
    passed = gamma <= bound * rho
    if x_samples:
        rng = random.Random(derive_seed(spec.seed, 991))
        x_prob = spec.params.get("x_prob", 0.25)
        x_checks = []
        for _ in range(x_samples):
            x = VertexSet(g.n, [v for v in range(g.n) if rng.random() < x_prob])
            gx = exact_domination(g, x).value
            rx = exact_packing(g, x).value
            passed = passed and gx <= bound * rx
            x_checks.append({"x": sorted(x), "gamma_x": gx, "rho_x": rx})
        fields["x_checks"] = x_checks
        if x_checks:
            first = x_checks[0]
            fields.update(gamma_x=first["gamma_x"], rho_x=first["rho_x"], x_set=first["x"])
    return _record(
        g, t0, gamma=gamma, rho=rho, ratio=Fraction(gamma, rho), passed=passed, **fields
    )


def cmd_verify(args) -> int:
    cls = args.cls
    bound = _parse_fraction(args.bound, "--bound") if args.bound else DEFAULT_BOUNDS[cls]
    max_n = _max_n(args.n, DEFAULT_MAX_N[cls], MIN_N[cls])
    payloads = [
        (
            _instance_spec(cls, i, args.seed, max_n, args.x_prob).to_json(),
            bound,
            args.x_samples if cls == "planar" else 0,
        )
        for i in range(args.count)
    ]
    if args.jobs > 1:
        # Imported here: multiprocessing adds ~1.4 MB of RSS to every other command.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_verify_one, payloads))
    else:
        records = [_verify_one(p) for p in payloads]

    violations = _failures(records)
    max_ratio = max((Fraction(rec["ratio"]) for rec in records), default=Fraction(0))
    summary = {
        "class": cls,
        "bound": str(bound),
        "instances": len(records),
        "violations": violations,
        "max_ratio": str(max_ratio),
    }
    attempts = [rec["gen_attempts"] for rec in records if "gen_attempts" in rec]
    if attempts:
        summary["generator_acceptance"] = round(len(attempts) / sum(attempts), 4)
    _emit(records, summary, args)
    return 1 if violations else 0


# -- construct -----------------------------------------------------------------


def cmd_construct(args) -> int:
    cls = args.cls
    records = []
    for g in _read_graphs(args.input):
        t0 = time.perf_counter()
        try:
            if cls == "tree":
                if not is_tree(g):
                    raise DompackError("input is not a tree")
                cert = tree_dompack(g, args.root)
            elif cls == "strongly-chordal":
                ordering = find_simple_elimination_ordering(g)
                if ordering is None:
                    raise DompackError("input is not strongly chordal")
                cert = strongly_chordal_dompack(g, ordering)
            elif cls == "chordal-bipartite":
                if not is_chordal_bipartite(g):
                    raise DompackError("input is not chordal bipartite")
                cert = chordal_bipartite_dompack(g)
            elif cls == "homogeneously-orderable":
                if find_homogeneous_ordering(g) is None:
                    raise DompackError("input is not homogeneously orderable")
                cert = homogeneously_orderable_dompack(g)
            else:
                raise DompackError(f"no constructive algorithm for class {cls!r}")
        except DompackError as exc:
            records.append(_record(g, t0, passed=False, error=str(exc)))
            continue
        records.append(_record(
            g, t0,
            certificate=json.loads(cert.to_json()),
            gamma=exact_domination(g).value,
            rho=exact_packing(g).value,
            bound=cert.bound_constant,
            passed=cert.valid and len(cert.d) <= cert.bound_constant * len(cert.p),
        ))
    failures = _failures(records)
    _emit(records, {"class": cls, "instances": len(records), "failures": failures}, args)
    return 1 if failures else 0


# -- search --------------------------------------------------------------------


def cmd_search(args) -> int:
    if args.n > 30:
        raise DompackError("extremal search is capped at n <= 30")
    target = _parse_fraction(args.target, "--target")
    rng = random.Random(args.seed)
    best_graph, best = None, {"ratio": Fraction(0)}
    t0 = time.perf_counter()

    iterations_left = args.iterations
    restart = 0
    while iterations_left > 0 and best["ratio"] < target:
        restart += 1
        emb = embed_maximal_planar(derive_seed(args.seed, restart), args.n)
        all_edges = sorted((min(u, v), max(u, v)) for u, v in emb.edges)
        keep = rng.uniform(0.7, 1.0)
        present = {e for e in all_edges if rng.random() < keep}

        def evaluate(graph: Graph):
            gamma = exact_domination(graph).value
            rho = exact_packing(graph).value
            # Climb key: first eliminate distant vertex pairs (rho drops to
            # 1 exactly when none remain, and that is where large ratios
            # live), then push gamma up.  The reported and target-tested
            # quantity is always the exact ratio.
            far = sum(
                graph.n - graph.second_masks[v].bit_count() for v in range(graph.n)
            )
            climb = (1, gamma) if far == 0 else (0, -far)
            return climb, {"gamma": gamma, "rho": rho, "ratio": Fraction(gamma, rho)}

        def consider(graph: Graph, solved: dict) -> None:
            nonlocal best_graph, best
            if solved["ratio"] > best["ratio"]:
                best_graph, best = graph, solved

        g = Graph(args.n, sorted(present))
        cur, solved = evaluate(g)
        consider(g, solved)
        stall = 0
        while iterations_left > 0 and best["ratio"] < target and stall < 12 * args.n:
            iterations_left -= 1
            e = all_edges[rng.randrange(len(all_edges))]
            nxt = set(present)
            if e in nxt:
                nxt.discard(e)
            else:
                nxt.add(e)
            g = Graph(args.n, sorted(nxt))
            climb, solved = evaluate(g)
            if climb >= cur:
                stall = stall + 1 if climb == cur else 0
                present, cur = nxt, climb
                consider(g, solved)
            else:
                stall += 1

    found = best["ratio"] >= target
    # n is the requested size, also when no iteration ran and best_graph is None.
    rec = _record(best_graph, t0, n=args.n, **best, target=str(target), found=found)
    _emit([rec], {"target": str(target), "found": found, "best_ratio": str(best["ratio"])}, args)
    return 0  # best-effort by design


# -- lemmacheck ----------------------------------------------------------------


def _connected_min_degree2_embedding(seed: int, n_max: int):
    for attempt in range(10_000):
        sub = derive_seed(seed, attempt)
        rng = random.Random(sub)
        n = rng.randrange(4, n_max + 1)
        m = rng.randrange(int(1.4 * n), 3 * n - 5)
        emb = random_planar_embedding(sub, n, m)
        g = emb.graph()
        if g.is_connected() and g.min_degree() >= 2:
            return emb, g
    raise DompackError("could not generate a connected min-degree-2 planar graph")


def cmd_lemmacheck(args) -> int:
    records = []
    n_max = _max_n(args.n, 40, 4)  # triangulate and charge-audit draw n from 4..n_max
    for i in range(args.count):
        sub = derive_seed(args.seed, 7_000_000 + i)
        t0 = time.perf_counter()
        g = None  # set as soon as the instance exists, so failures carry it
        try:
            if args.lemma == "triangulate":
                emb, g = _connected_min_degree2_embedding(sub, n_max)
                ind = greedy_maximal_independent_set(g)
                tri = triangulate_preserving_independent(emb, ind)
                ok = tri.is_triangulated()
                mg = tri.multigraph()
                ok = ok and not any(u in ind and v in ind for u, v in mg.edges)
                ok = ok and all(mg.degree(v) >= g.degree(v) for v in range(g.n))
                fields = {"independent_set": sorted(ind)}
            elif args.lemma == "discharge":
                g = random_min_degree4_planar(sub, 6 + (i % (max(n_max, 12) - 5)) + 6)
                edge = find_low_degree_edge(g)
                ok = edge is not None
                fields = {"edge": list(edge) if edge else None}
            elif args.lemma == "charge-audit":
                rng = random.Random(sub)
                n = rng.randrange(4, n_max + 1)
                emb = embed_maximal_planar(sub, n)
                g = emb.graph()
                low = VertexSet(g.n, [v for v in range(g.n) if emb.degree(v) <= 7])
                ind = greedy_maximal_independent_set(g, low)
                ledger = charge_audit(emb, ind)
                ok = ledger.total == Fraction(-12) and len(ledger.negative_vertices) > 0
                fields = {"total_charge": ledger.total, "transfers": len(ledger.transfers)}
            else:
                raise DompackError(f"unknown lemma {args.lemma!r}")
        except DompackError as exc:
            ok, fields = False, {"error": str(exc)}
        records.append(_record(g, t0, passed=ok, **fields))
    failures = _failures(records)
    summary = {"lemma": args.lemma, "instances": len(records), "failures": failures}
    _emit(records, summary, args)
    return 1 if failures else 0


# -- entry ---------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("DOMPACK_SEED", "0")),
        help="master seed (default: env DOMPACK_SEED or 0)",
    )
    parser.add_argument("--format", choices=("json", "table", "csv"), default="table")
    parser.add_argument("--out", help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dompack",
        description="domination/packing numbers: exact solvers, bounds, constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="gamma, rho (and gamma_f, X-variants) of input graphs")
    p.add_argument("input", nargs="?", default="-", help="file of graph6/JSON lines, or - for stdin")
    p.add_argument("--fractional", action="store_true", help="also compute gamma_f exactly")
    p.add_argument("--x-set", help="comma-separated vertices for gamma_X / rho_X")
    _add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="bound-verification campaign over generated instances")
    p.add_argument("--class", dest="cls", choices=VERIFY_CLASSES, required=True)
    p.add_argument("--bound", help="rational c to assert gamma <= c * rho (default per class)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n", type=int, help="max vertex count (default per class)")
    p.add_argument("--x-prob", type=float, default=0.25, help="planar: P(v in X)")
    p.add_argument("--x-samples", type=int, default=2, help="planar: random X sets per instance")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="run the class construction on input graphs")
    p.add_argument("--class", dest="cls", choices=VERIFY_CLASSES[:4], required=True)
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--root", type=int, default=0, help="root vertex for the tree construction")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="hill-climb planar instances toward a target gamma/rho")
    p.add_argument("--target", default="3", help="target ratio (rational, e.g. 5/2)")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--iterations", type=int, default=2000)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("lemmacheck", help="run executable lemma checks over generated instances")
    p.add_argument("--lemma", choices=("triangulate", "discharge", "charge-audit"), required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n", type=int, help="max vertex count")
    _add_common(p)
    p.set_defaults(func=cmd_lemmacheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DompackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
