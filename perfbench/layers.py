"""Per-layer report: traced runs per workload, plus the tracing overhead.

    python3 perfbench/layers.py

For each workload it makes 3 pairs of runs on seed 0, one with
`--trace 1` and one with `--trace 0`, alternating which goes first.  It
prints every per-layer metric of the first traced run (per round of the
workload), the end-to-end metrics of the first untraced run, the attempted
and failed counts, and the tracing overhead: the median wall time per round
of the traced runs minus that of the untraced runs, as a share of the
untraced.  The traced runs never produce the end-to-end numbers.
"""

from __future__ import annotations

import json
import statistics
import sys

from steady import ROOT, WORKLOADS, invoke

PAIRS = 3
SEED = 0


def wall_per_round(workload: str, seed: int, trace: int) -> float:
    detail = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    d = json.loads(detail.read_text())
    # The untraced runs interleave reference slices (speed.py); leave them out.
    return (d["timed_wall_s"] - d["reference_s"]) / d["rounds"]


def main() -> int:
    for w in WORKLOADS:
        results, per_round = {0: [], 1: []}, {0: [], 1: []}
        for k in range(PAIRS):
            for trace in (1, 0) if k % 2 == 0 else (0, 1):
                results[trace].append(invoke(w, SEED, trace))
                per_round[trace].append(wall_per_round(w, SEED, trace))
        traced, plain = results[1][0], results[0][0]
        correct = all(r["correct"] for runs in results.values() for r in runs)
        print(f"\n{w} (seed {SEED}): correct={correct} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for name, m in {**plain["metrics"], **traced["metrics"]}.items():
            v = m["value"]
            shown = f"{v:,.0f}" if float(v).is_integer() else f"{v:.6g}"
            print(f"  {name:<42} {shown:>14} {m['unit']}")
        t1, t0 = statistics.median(per_round[1]), statistics.median(per_round[0])
        print(f"  tracing overhead: {t1:.3f} s vs {t0:.3f} s per round, "
              f"median of {PAIRS} runs each ({(t1 - t0) / t0:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
