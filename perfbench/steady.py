"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

Runs BENCHMARK.json's command 10 times per workload in each of two sets, on
seeds 1..10 in the first set and 11..20 in the second, alternating workloads
so that a slow spell of the machine is shared out.  For every end-to-end
metric it prints each set's median and quartiles and the spread
(q3 - q1) / median, and says whether the two sets agree: every spread within
its bound (setup_s's aside: a cold set-up is noisier than the timed phase
and is gated on its median only), the two medians apart by no more than the
bound in either direction, the failed share the same in both sets, and every
run correct.  Exits 1 if they do not.  The figures also go to
perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 10


def invoke(workload: str, seed: int, trace: int = 0) -> dict:
    """One run of the benchmark command in a fresh process; its result line."""
    argv = SPEC["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    sets = [{w: [] for w in WORKLOADS} for _ in range(2)]
    for k, results in enumerate(sets):
        for i in range(RUNS):
            seed = k * RUNS + i + 1
            for w in WORKLOADS:
                res = invoke(w, seed)
                results[w].append(res)
                values = {m: round(v["value"], 4) for m, v in res["metrics"].items()}
                print(f"set {k + 1} seed {seed} {w}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} {values}",
                      file=sys.stderr, flush=True)

    agree = True
    summary = {}
    for w in WORKLOADS:
        print(f"\n{w}")
        runs = [r for results in sets for r in results[w]]
        if not all(r["correct"] for r in runs):
            print("  a run was not correct")
            agree = False
        shares = [
            {r["failed"] / r["attempted"] for r in results[w]} for results in sets
        ]
        same_share = len(shares[0] | shares[1]) == 1
        print(f"  failed share per set: {sorted(shares[0])} {sorted(shares[1])}"
              f" {'same' if same_share else 'DIFFERENT'}")
        agree = agree and same_share
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in results[w]]) for results in sets]
            (m1, _, _, s1), (m2, _, _, s2) = stats
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            ok = abs(m2 - m1) / m1 <= bound and (name == "setup_s" or max(s1, s2) <= bound)
            agree = agree and ok
            summary.setdefault(w, {})[name] = {
                "sets": [dict(zip(("median", "q1", "q3", "spread"), s)) for s in stats],
                "worse": worse,
                "bound": bound,
                "ok": ok,
            }
            cells = "  ".join(
                f"median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {sp:.3f}" for med, q1, q3, sp in stats
            )
            print(f"  {name:<20} {cells}  second worse by {worse:+.3f} "
                  f"(bound {bound}) {'ok' if ok else 'OUT OF BOUND'}")
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1))
    print("\nthe two sets agree" if agree else "\nthe two sets do NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
