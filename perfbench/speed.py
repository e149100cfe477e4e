"""The machine's speed during the timed phase, from a reference kernel.

The reference machine's speed drifts by up to half within minutes (its cores
are shared), and a run's CPU time per record drifts with it: ten runs of the
same code had quartile spreads of 0.1 to 0.4 in records per CPU second.  A
fixed pure-Python kernel run in small slices between the program's own
bytecodes slows down and speeds up with the program.  In three 60 s
processes that alternated `compute --fractional` on 400 graphs with the
kernel, the program's mean CPU time per pass moved by 41% from one process
to another, and its ratio to the kernel's time by 4%.

`SpeedProbe` runs one slice of the kernel every `INTERVAL_S` of the process's
CPU time (SIGPROF), and sums the slices' CPU time apart from the program's.
`speed` is the kernel's slice rate as a multiple of `1 / REF_SLICE_S`.  The
kernel does not import dompack, so a change to dompack leaves it alone.
"""

from __future__ import annotations

import itertools
import random
import signal
import time

INTERVAL_S = 0.1
# CPU seconds of one slice at the reference machine's median speed (a 2-core
# x86 VM, Python 3.11), so that a rate divided by `speed` reads in that
# machine's seconds.
REF_SLICE_S = 0.008


def _reference_graphs() -> list[list[set[int]]]:
    """Fixed random graphs on 9 vertices, as closed neighbourhoods."""
    rng = random.Random(7)
    graphs = []
    for _ in range(60):
        adj = [{v} for v in range(9)]
        for u in range(9):
            for v in range(u + 1, 9):
                if rng.random() < 0.3:
                    adj[u].add(v)
                    adj[v].add(u)
        graphs.append(adj)
    return graphs


def reference_slice(graphs) -> int:
    """Sum of the domination numbers of `graphs`, by brute force: the same
    kind of set, tuple and call work that dompack's Python code does."""
    total = 0
    for adj in graphs:
        full = set(range(len(adj)))
        for k in range(1, len(adj) + 1):
            if any(set().union(*(adj[v] for v in c)) == full
                   for c in itertools.combinations(range(len(adj)), k)):
                total += k
                break
    return total


class SpeedProbe:
    """Context manager: interleaves reference slices with the code it wraps."""

    def __init__(self):
        self.graphs = _reference_graphs()
        self.slices = 0
        self.ref_s = 0.0

    def _slice(self, signum, frame) -> None:
        start = time.process_time()
        reference_slice(self.graphs)
        self.ref_s += time.process_time() - start
        self.slices += 1

    def __enter__(self):
        self._saved = signal.signal(signal.SIGPROF, self._slice)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._saved)

    @property
    def speed(self) -> float:
        """How many times faster than at `REF_SLICE_S` per slice."""
        return REF_SLICE_S * self.slices / self.ref_s
