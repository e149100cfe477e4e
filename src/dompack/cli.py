"""Command-line surface: compute, verify, construct, lemmacheck.

Records are plain dicts built by `_record`, the one place a graph becomes a
record; each subcommand adds only its own fields.  Every record, failed ones
included, carries its graph's graph6, n and m ("", 0 and 0 if none was made),
its wall_time and, from `verify`, its GenSpec (so it replays bit-exactly).  A
record that holds gamma and rho solved each of them at most once (once more
per X set).  Every gamma and rho, and each witness `compute` prints, comes
from `_gamma_rho`, the one caller of the solvers, which searches only when
no checked gamma = rho pair settles it.  `_Output` writes each record as soon
as it is made, as a JSON line, an aligned table row or a CSV row, and ends
with a summary, which returns the exit status: 1 when any record failed (a
bound violation, a construct input outside its class, a failed generator, or
a lemma falsification).  Bad input exits 2.  A reader that closes the pipe
ends the run quietly with 141.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import string
import sys
import time
from collections.abc import Iterator
from fractions import Fraction
from itertools import repeat

from . import codec
from .constructions import (
    _pass_pair,
    chordal_bipartite_dompack,
    homogeneously_orderable_dompack,
    strongly_chordal_dompack,
    tree_dompack,
)
from .errors import DompackError, GenerationBudgetError
from .generators import CB_MAX_N, GenSpec, derive_seed, gen_chordal_bipartite_with_stats, generate
from .graph import MAX_VERTICES, Graph, VertexSet, greedy_maximal_independent_set
from .lp import verify_sandwich
from .planar import (
    _edge_within,
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
)
from .solvers import SolveResult, exact_domination, exact_packing

# Per verify class: the GenSpec family its instances come from, the default
# bound c in gamma <= c * rho, the default --n, the smallest and largest --n
# (the smallest is also the least n an instance draws), and the default
# --x-samples.
CLASSES = {
    "tree": ("tree", Fraction(1), 50, 2, MAX_VERTICES, 0),
    "strongly-chordal": ("interval", Fraction(1), 40, 2, MAX_VERTICES, 0),
    "chordal-bipartite": ("chordal-bipartite", Fraction(2), 16, 4, CB_MAX_N, 0),
    "homogeneously-orderable": ("distance-hereditary", Fraction(2), 14, 2, MAX_VERTICES, 0),
    "planar": ("planar", Fraction(7), 30, 4, MAX_VERTICES, 2),
    "rook": ("rook", Fraction(1), 25, 4, MAX_VERTICES, 0),
    "any": ("gnp", Fraction(1), 12, 2, MAX_VERTICES, 0),
}
CONSTRUCT_CLASSES = ("tree", "strongly-chordal", "chordal-bipartite", "homogeneously-orderable")


def _record(g: Graph | None, t0: float, error: DompackError | None = None, **fields) -> dict:
    """One CLI record: the only place a graph becomes a record.

    The record carries the graph6, n and m of `g` ("", 0 and 0 when no graph
    was made), `passed` (True unless `error` or `fields` says otherwise), the
    subcommand's own `fields` and `wall_time`, the seconds since `t0`.  An
    `error` adds its text, and a spent sampler's attempts as gen_attempts.
    Exact rationals are written as their string, for example "7/3".
    """
    rec = {"graph6": "", "n": 0, "m": 0, "passed": True}
    if g is not None:
        rec.update(graph6=codec.emit_graph6(g), n=g.n, m=g.m)
    if error is not None:
        rec.update(passed=False, error=str(error))
        if isinstance(error, GenerationBudgetError):
            rec["gen_attempts"] = error.attempts
    for key, value in fields.items():
        rec[key] = str(value) if isinstance(value, Fraction) else value
    rec["wall_time"] = round(time.perf_counter() - t0, 6)
    return rec


class _Output:
    """Writes each record in --format as soon as it is made, then a summary.

    Counts the records and the failed ones (`passed` false) as it goes, so no
    command keeps its records.  The table or CSV header goes out with the
    first line; when an error stops a run, the records made so far stay
    written.  Table and CSV rows hold a record's `COLUMNS` ("" where absent);
    the table cuts graph6 to 24 characters and drops wall_time.  No column
    can hold a comma, a quote or a newline, so CSV needs no quoting: graph6
    uses characters 63-126, the rest are ints, "a/b", booleans and floats.
    """

    COLUMNS = ("graph6", "n", "m", "gamma", "rho", "gamma_f", "ratio", "passed", "wall_time")
    # A table row: every column but wall_time, under a header naming passed "pass".
    ROW = "{:<24.24} {:>3} {:>4} {:>5} {:>4} {:>8} {:>6} {:>5}"

    def __init__(self, args):
        self.records = self.failures = 0
        self._fmt = args.format
        self._stream = args.stream
        self._name = args.out or "stdout"
        self._header = ""
        if self._fmt == "csv":
            self._header = ",".join(self.COLUMNS) + "\n"
        elif self._fmt == "table":
            header = self.ROW.format(*self.COLUMNS[:-2], "pass")
            self._header = header + "\n" + "-" * len(header) + "\n"

    def _write(self, text: str, flush: bool = False) -> None:
        try:
            self._stream.write(self._header + text + "\n")
            if flush:
                self._stream.flush()
        except BrokenPipeError:
            raise  # the reader is gone, which is no input error: see main
        except OSError as exc:
            raise DompackError(f"cannot write {self._name}: {exc.strerror}") from None
        self._header = ""

    def record(self, rec: dict) -> None:
        self.records += 1
        self.failures += not rec["passed"]
        if self._fmt == "json":
            self._write(json.dumps(rec, sort_keys=True))
        else:
            row = [str(rec.get(c, "")) for c in self.COLUMNS]
            self._write(",".join(row) if self._fmt == "csv" else self.ROW.format(*row[:-1]))

    def summary(self, summary: dict) -> int:
        """Write the summary; the exit status, 1 when any record failed."""
        text = json.dumps({"summary": summary}, sort_keys=True)
        if self._fmt == "csv":
            text = "# " + text
        elif self._fmt == "table":
            text = "summary: " + json.dumps(summary, sort_keys=True)
        self._write(text, flush=True)
        return 1 if self.failures else 0


@contextlib.contextmanager
def _open_out(args):
    """Open --out before any instance is solved, so a bad path wastes no work.
    --out naming the input file, which opening would empty, is an error.
    Every run ends with the summary's flush, so output is left buffered only
    when an error stopped the run; when the close then fails to write it too
    (a full device), the first error is the one reported."""
    path, source = args.out, getattr(args, "input", None)
    if not path:
        yield sys.stdout
        return
    with contextlib.suppress(OSError):  # a missing file is not the input
        if source:
            held = os.fstat(sys.stdin.fileno()) if source == "-" else os.stat(source)
            if os.path.samestat(held, os.stat(path)):
                raise DompackError(f"--out {path} names the input file")
    try:
        stream = open(path, "w")
    except OSError as exc:
        raise DompackError(f"cannot write {path}: {exc.strerror}") from None
    try:
        yield stream
    except BaseException:
        with contextlib.suppress(OSError):
            stream.close()
        raise
    stream.close()


def _read_graphs(path: str) -> Iterator[Graph]:
    """The graphs of `path` ("-" for stdin), one per graph6 or JSON line.

    Each line is parsed only when the caller asks for its graph, so the
    records made before a malformed line stay written.  Input with no graph
    is an error once it is used up.
    """
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
    found = False
    # Lines end at "\n" or "\r" only: text mode maps "\r" in files, not on stdin.
    for line in text.replace("\r", "\n").split("\n"):
        line = line.strip(string.whitespace)
        if line and not line.startswith("#"):
            found = True
            yield codec.parse_graph(line)
    if not found:
        raise DompackError("no graphs found in input")


def _parse_x_set(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise DompackError(f"--x-set must list vertex indices, got {text!r}") from None


def _parse_fraction(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DompackError(f"{option} must be a rational number, got {text!r}") from None


def _in_range(option: str, value: float, least: float, most: float = math.inf) -> float:
    """`value` of `option`; outside [least, most] is a usage error."""
    if not least <= value <= most:
        bound = f"at least {least}" if most == math.inf else f"in [{least}, {most}]"
        raise DompackError(f"{option} must be {bound}, got {value}")
    return value


def _max_n(n: int | None, default: int, least: int, most: int = MAX_VERTICES) -> int:
    """The --n value, or `default` when it is not given; outside
    [least, most] is an error."""
    return default if n is None else _in_range("--n", n, least, most)


# -- compute -------------------------------------------------------------------


def _gamma_rho(g: Graph, x: VertexSet | None = None) -> tuple[SolveResult, SolveResult]:
    """gamma_X and rho_X of g with their witnesses: one checked pass pair
    (0 nodes) when it settles gamma_X = rho_X, else the two searches, the
    packing search stopped once it reaches gamma_X."""
    pair = _pass_pair(g, x)
    if pair is not None:
        return tuple(SolveResult(len(s), s, 0, True) for s in pair)
    gamma = exact_domination(g, x)
    return gamma, exact_packing(g, x, at_most=gamma.value)


def cmd_compute(args) -> int:
    out = _Output(args)
    members = None if args.x_set is None else _parse_x_set(args.x_set)
    for g in _read_graphs(args.input):
        t0 = time.perf_counter()
        x = None if members is None else VertexSet(g.n, members)
        gamma, rho = _gamma_rho(g)
        fields = {}
        if args.fractional:
            report = verify_sandwich(g, gamma=gamma, rho=rho)
            fields.update(gamma_f=report.gamma_f, passed=report.holds)
        if x is not None:
            gx, rx = _gamma_rho(g, x)
            fields.update(gamma_x=gx.value, rho_x=rx.value, x_set=sorted(x))
        out.record(_record(
            g, t0,
            gamma=gamma.value,
            rho=rho.value,
            ratio=Fraction(gamma.value, rho.value),
            gamma_witness=sorted(gamma.witness),
            rho_witness=sorted(rho.witness),
            **fields,
        ))
    return out.summary({"instances": out.records, "violations": out.failures})


# -- verify --------------------------------------------------------------------


def _instance_spec(cls: str, index: int, seed: int, max_n: int) -> GenSpec:
    family, _, _, least_n, _, _ = CLASSES[cls]
    sub = derive_seed(seed, index)
    if family == "rook":  # K_k x K_k, k from the index, nothing drawn
        k = 2 + index % max(1, math.isqrt(max_n) - 1)
        return GenSpec("rook", k * k, sub, {"k": k, "l": k})
    rng = random.Random(sub)
    n = rng.randrange(least_n, max_n + 1)
    params = {}
    if family == "interval":
        params = {"span": rng.choice([0.15, 0.3, 0.5])}
    elif family == "chordal-bipartite":
        params = {"edge_prob": rng.choice([0.2, 0.3, 0.45])}
    elif family == "planar":
        params = {"m": rng.randrange(0, 3 * n - 5)}
    elif family == "gnp":
        params = {"edge_prob": 0.5}
    return GenSpec(family, n, sub, params)


def _verify_one(spec: GenSpec, bound: Fraction, x_prob: float, x_samples: int) -> dict:
    t0 = time.perf_counter()
    fields = {"genspec": {**vars(spec), "params": dict(spec.params)}, "bound": bound}
    try:
        if spec.family == "chordal-bipartite":
            g, fields["gen_attempts"] = gen_chordal_bipartite_with_stats(spec)
        else:
            g = generate(spec)
    except DompackError as exc:  # fails this record only, which has no graph
        return _record(None, t0, error=exc, **fields)
    gamma, rho = (r.value for r in _gamma_rho(g))
    passed = gamma <= bound * rho
    if x_samples:
        rng = random.Random(derive_seed(spec.seed, 991))
        x_checks = []
        for _ in range(x_samples):
            x = VertexSet(g.n, [v for v in range(g.n) if rng.random() < x_prob])
            gx, rx = (r.value for r in _gamma_rho(g, x))
            passed = passed and gx <= bound * rx
            x_checks.append({"x": sorted(x), "gamma_x": gx, "rho_x": rx})
        fields["x_checks"] = x_checks
    return _record(
        g, t0, gamma=gamma, rho=rho, ratio=Fraction(gamma, rho), passed=passed, **fields
    )


def cmd_verify(args) -> int:
    cls = args.cls
    _, default_bound, default_n, least_n, most_n, default_x_samples = CLASSES[cls]
    bound = default_bound if args.bound is None else _parse_fraction(args.bound, "--bound")
    _in_range("--bound", bound, 1)  # rho <= gamma, so c < 1 fails every graph
    max_n = _max_n(args.n, default_n, least_n, most_n)
    _in_range("--count", args.count, 0)
    _in_range("--x-prob", args.x_prob, 0, 1)
    x_samples = default_x_samples if args.x_samples is None else args.x_samples
    _in_range("--x-samples", x_samples, 0)
    _in_range("--jobs", args.jobs, 1)
    seed = _seed(args)
    specs = [_instance_spec(cls, i, seed, max_n) for i in range(args.count)]
    out = _Output(args)
    worst = Fraction(0)
    errors = generated = attempts = 0  # error records; chordal-bipartite graphs, all attempts
    with contextlib.ExitStack() as stack:
        solve = map
        if args.jobs > 1:
            # Imported here: multiprocessing adds ~1.4 MB of RSS to every other command.
            from concurrent.futures import ProcessPoolExecutor

            solve = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs)).map
        for rec in solve(_verify_one, specs, repeat(bound), repeat(args.x_prob), repeat(x_samples)):
            out.record(rec)
            attempts += rec.get("gen_attempts", 0)
            if "error" in rec:
                errors += 1
                continue
            worst = max(worst, Fraction(rec["ratio"]))
            if "gen_attempts" in rec:
                generated += 1

    summary = {
        "class": cls,
        "bound": str(bound),
        "instances": out.records,
        "violations": out.failures - errors,
        "max_ratio": str(worst),
    }
    if errors:
        summary["errors"] = errors
    if attempts:
        summary["generator_acceptance"] = round(generated / attempts, 4)
    return out.summary(summary)


# -- construct -----------------------------------------------------------------


def cmd_construct(args) -> int:
    cls = args.cls
    _in_range("--root", args.root, 0)
    out = _Output(args)
    for g in _read_graphs(args.input):
        t0 = time.perf_counter()
        try:
            if cls == "tree":
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
        except DompackError as exc:
            out.record(_record(g, t0, error=exc))
            continue
        # A returned certificate is valid, and |P| <= rho <= gamma <= |D|.
        if len(cert.d) == len(cert.p):
            gamma = rho = len(cert.d)
        else:
            gamma, rho = (r.value for r in _gamma_rho(g))
        out.record(_record(
            g, t0, certificate=cert.to_dict(), gamma=gamma, rho=rho, bound=cert.bound_constant
        ))
    return out.summary({"class": cls, "instances": out.records, "failures": out.failures})


# -- lemmacheck ----------------------------------------------------------------


def _connected_min_degree2_embedding(seed: int, n_max: int):
    """The first draw for `seed` whose graph is connected with minimum degree
    >= 2, as an embedding and its graph.  Each draw is tested as the graph
    of a `planar` GenSpec before any embedding is built; only the accepted
    draw is grown again from its seed and frozen."""
    for attempt in range(10_000):
        sub = derive_seed(seed, attempt)
        rng = random.Random(sub)
        n = rng.randrange(4, n_max + 1)
        m = rng.randrange(int(1.4 * n), 3 * n - 5)
        g = generate(GenSpec("planar", n, sub, {"m": m}))
        if g.min_degree() >= 2 and g.is_connected():
            return random_planar_embedding(sub, n, m), g
    raise GenerationBudgetError("could not generate a connected min-degree-2 planar graph", 10_000)


def cmd_lemmacheck(args) -> int:
    out = _Output(args)
    n_max = _max_n(args.n, 40, 4)  # triangulate and charge-audit draw n from 4..n_max
    _in_range("--count", args.count, 0)
    seed = _seed(args)
    for i in range(args.count):
        sub = derive_seed(seed, 7_000_000 + i)
        t0 = time.perf_counter()
        g = None  # set as soon as the instance exists, so failures carry it
        try:
            if args.lemma == "triangulate":
                emb, g = _connected_min_degree2_embedding(sub, n_max)
                ind = greedy_maximal_independent_set(g)
                tri = triangulate_preserving_independent(emb, ind)
                ok = tri.is_triangulated() and not _edge_within(tri.edges, ind.mask)
                ok = ok and all(  # no vertex loses degree; closed masks hold v itself
                    len(darts) >= closed.bit_count() - 1
                    for darts, closed in zip(tri.rotation, g.closed_masks)
                )
                fields = {"independent_set": sorted(ind)}
            elif args.lemma == "discharge":
                g = random_min_degree4_planar(sub, 6 + (i % (max(n_max, 12) - 5)) + 6)
                edge = find_low_degree_edge(g)
                ok = edge is not None
                fields = {"edge": list(edge) if edge else None}
            else:  # charge-audit
                rng = random.Random(sub)
                n = rng.randrange(4, n_max + 1)
                emb = embed_maximal_planar(sub, n)
                g = emb.graph()
                low = sum(1 << v for v, darts in enumerate(emb.rotation) if len(darts) <= 7)
                ind = greedy_maximal_independent_set(g, VertexSet.from_mask(n, low))
                ledger = charge_audit(emb, ind)
                ok = ledger.total == -12 and len(ledger.negative_vertices) > 0
                fields = {"total_charge": ledger.total, "transfers": len(ledger.transfers)}
        except DompackError as exc:
            out.record(_record(g, t0, error=exc))
            continue
        out.record(_record(g, t0, passed=ok, **fields))
    return out.summary({"lemma": args.lemma, "instances": out.records, "failures": out.failures})


# -- entry ---------------------------------------------------------------------


def _seed(args) -> int:
    """The master seed: --seed, else env DOMPACK_SEED, else 0.

    Read when a seeded command runs, so a bad DOMPACK_SEED fails only the
    commands that would use it.
    """
    if args.seed is not None:
        return args.seed
    text = os.environ.get("DOMPACK_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise DompackError(f"DOMPACK_SEED must be an integer, got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser, *, seeded: bool = False) -> None:
    if seeded:
        parser.add_argument("--seed", type=int, help="master seed (default: env DOMPACK_SEED or 0)")
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
    p.add_argument("--class", dest="cls", choices=CLASSES, required=True)
    p.add_argument("--bound", help="rational c >= 1 to assert gamma <= c * rho (default per class)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n", type=int, help="max vertex count (default per class)")
    p.add_argument("--x-prob", type=float, default=0.25, help="P(v in X) in each X sample")
    p.add_argument("--x-samples", type=int, help="random X sets per instance (default per class)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="run the class construction on input graphs")
    p.add_argument("--class", dest="cls", choices=CONSTRUCT_CLASSES, required=True)
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--root", type=int, default=0, help="root vertex for the tree construction")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("lemmacheck", help="run executable lemma checks over generated instances")
    p.add_argument("--lemma", choices=("triangulate", "discharge", "charge-audit"), required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n", type=int, help="max vertex count")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_lemmacheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _open_out(args) as args.stream:
            return args.func(args)
    except DompackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (`dompack ... | head`): stop quietly with
        # the status of a writer killed by SIGPIPE.  As the Python docs on
        # SIGPIPE advise, stdout then points at devnull, so the flush at exit
        # cannot fail a second time.
        with contextlib.suppress(OSError, ValueError):  # stdout may have no file
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # 13 is SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
