"""Campaign benchmark for dompack: one workload, one seed, one process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 12 --trace 0

Runs the `dompack` CLI in-process through `dompack.cli.main`, from the `src`
directory next to this one.  Set-up (imports, input construction, warm-up
pass) is timed cold three times: once in this process and once each in two
fresh processes (`--setup-only`), and its median reported.  During the timed
phase a reference kernel runs in small slices between the program's
bytecodes (speed.py), and the records per CPU second are divided by the
machine's speed that it measures.  The timed phase repeats whole
rounds of the workload until the next round would end past `--seconds`.
After timing, every record of the first round is checked against
computations made apart from dompack (checks.py), and every later round must
repeat the first one record for record.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  Details of the run,
spans included when traced, go to `perfbench/out/`.
"""

from __future__ import annotations

import os

# One thread per process, also inside numpy and HiGHS; set before they load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
_WALL_TIME = re.compile(r'"wall_time": [-+.0-9e]+')


def load_program():
    """Import the CLI from this checkout's `src`; returns (module, seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import dompack.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import dompack from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: dompack was imported from {cli.__file__}, not {src}")
    return cli, time.perf_counter() - start


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MB.  VmHWM starts afresh
    at exec; ru_maxrss (the fallback off Linux) can carry the RSS of the
    parent that spawned this process."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(cli, op) -> tuple[int, str]:
    """One CLI invocation in-process, stdin and stdout redirected."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(op.argv + ["--format", "json"])
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def set_up(cli, workload: str, seed: int, tracer=None):
    """Builds the workload's inputs and runs the warm-up pass; returns
    (plan, seconds)."""
    from workloads import PLANS

    start = time.perf_counter()
    plan = PLANS[workload](seed)
    if tracer:
        tracer.phase = "warmup"
    for op in plan.warmup:
        run_op(cli, op)
    return plan, time.perf_counter() - start


def fresh_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, imports included, so that no cache or
    lazy import that an earlier set-up filled is reused."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a fresh process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def timed_phase(cli, ops, seconds: float):
    """Whole rounds until the next one would end past `seconds` (at least
    one).  Returns (outputs per round, op wall times per round, wall, cpu)."""
    outputs, op_seconds = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:
        results, times = [], []
        for op in ops:
            start = time.perf_counter()
            results.append(run_op(cli, op))
            times.append(time.perf_counter() - start)
        outputs.append(results)
        op_seconds.append(times)
        elapsed = time.perf_counter() - wall0
        if elapsed * (len(outputs) + 1) / len(outputs) > seconds:
            break
    return outputs, op_seconds, time.perf_counter() - wall0, time.process_time() - cpu0


def check(workload: str, plan, outputs) -> tuple[int, int, list[str]]:
    """(records per round, failed records per round, problems)."""
    import checks
    from workloads import KNOWN_FAILURES

    problems, records, known = [], {}, set()
    total = failed = 0
    for op, (rc, text) in zip(plan.ops, outputs[0]):
        lines = text.splitlines()
        try:
            recs = [json.loads(line) for line in lines[:-1]]
            json.loads(lines[-1])["summary"]  # every output ends with its summary
        except (ValueError, IndexError, KeyError):
            problems.append(f"{op.label}: unreadable output (exit {rc})")
            recs = []
        bad = 0
        for i, rec in enumerate(recs):
            if rec.get("passed"):
                continue
            bad += 1
            expected = KNOWN_FAILURES.get((op.label, i))
            if expected and expected in rec.get("error", ""):
                known.add((op.label, i))
            else:
                problems.append(f"{op.label} #{i}: failed: {rec.get('error', 'bound or check')}")
        if rc != (1 if bad else 0):
            problems.append(f"{op.label}: exit status {rc} with {bad} failed records")
        records[op.label] = recs
        total += len(recs)
        failed += bad
    report = checks.Report(known)
    checks.CHECKS[workload](plan, records, report)
    problems += report.finish()
    first = [(rc, _WALL_TIME.sub("", text)) for rc, text in outputs[0]]
    for n, results in enumerate(outputs[1:], start=2):
        for op, (rc, text), expected in zip(plan.ops, results, first):
            if (rc, _WALL_TIME.sub("", text)) != expected:
                problems.append(f"{op.label}: round {n} differs from round 1")
    return total, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "certify", "lemmas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up, print {\"setup_s\": ...} and exit")
    args = parser.parse_args(argv)

    cli, import_s = load_program()
    import spans
    import speed

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    plan, own_s = set_up(cli, args.workload, args.seed, tracer)
    setup_s = [import_s + own_s]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s[0]}))
        return 0
    if not tracer:
        setup_s += [fresh_setup_s(args.workload, args.seed) for _ in range(SETUP_REPS - 1)]

    if tracer:
        tracer.phase = "timed"
    # The traced run measures the program alone; its spans would take in the
    # reference slices.
    probe = None if tracer else speed.SpeedProbe()
    with probe or contextlib.nullcontext():
        outputs, op_seconds, wall, cpu = timed_phase(cli, plan.ops, args.seconds)
    if probe:
        cpu -= probe.ref_s
    peak_rss = peak_rss_mb()
    if tracer:
        tracer.phase = "check"

    start = time.perf_counter()
    per_round, failed, problems = check(args.workload, plan, outputs)
    check_s = time.perf_counter() - start
    rounds = len(outputs)
    attempted = per_round * rounds
    if tracer:
        metrics = tracer.layer_metrics(rounds, attempted, wall)
    else:
        metrics = {
            "instances_per_cpu_s": {"value": attempted / cpu / probe.speed, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "records_per_round": per_round,
        "timed_wall_s": wall,
        "timed_cpu_s": cpu,
        "records_per_cpu_s": attempted / cpu,
        "speed": probe.speed if probe else None,
        "reference_slices": probe.slices if probe else 0,
        "reference_s": probe.ref_s if probe else 0.0,
        "import_s": import_s,
        "setup_s": setup_s,
        "check_s": check_s,
        "ops": [op.label for op in plan.ops],
        "op_seconds": op_seconds,
        "problems": problems,
        "spans": tracer.spans if tracer else [],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))

    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed * rounds,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
