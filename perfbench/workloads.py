"""The three campaign workloads: what one round runs.

A round is a fixed list of CLI invocations (`Op`s), and every run repeats
the same round, so each run attempts whole rounds of the same operations.
Inputs come from the benchmark's `--seed`, except two parts that always use
CLI seed 0 (README.md says why): the `verify` tree campaign, whose cost per
seed is too heavy-tailed to measure steadily, and the `lemmas` triangulate
campaign, which holds the one operation known to fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VERIFY_TREES = 150
VERIFY_PER_CLASS = 100
CERTIFY_SEEDED = 150  # per seeded family
LEMMA_COUNTS = {"triangulate": 200, "discharge": 70, "charge-audit": 400}
WARMUP_COUNT = 3  # instances per op in the warm-up pass

# The operation that fails today, on inputs that do not depend on --seed:
# (op label, record index) -> text the record's error must contain.
KNOWN_FAILURES = {("triangulate", 100): "admits no chord"}


@dataclass
class Op:
    label: str
    argv: list[str]
    stdin: str = ""


@dataclass
class Plan:
    ops: list[Op]
    warmup: list[Op]
    context: dict = field(default_factory=dict)


def encode_graph6(n: int, edges) -> str:
    """graph6 text of a simple graph on 0..n-1 (n <= 62)."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[k:k + 6] for k in range(0, len(bits), 6))
    return chr(63 + n) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


def _counted(argv: list[str], count: int) -> list[str]:
    out = list(argv)
    out[out.index("--count") + 1] = str(count)
    return out


def verify_plan(seed: int) -> Plan:
    def op(cls, count, cli_seed):
        return Op(cls, ["verify", "--class", cls, "--count", str(count), "--seed", str(cli_seed)])

    ops = [op("tree", VERIFY_TREES, 0)]
    for cls in ("strongly-chordal", "chordal-bipartite", "homogeneously-orderable", "planar"):
        ops.append(op(cls, VERIFY_PER_CLASS, seed))
    ops[-1].argv += ["--x-samples", "2"]
    warmup = [Op(o.label, _counted(o.argv, WARMUP_COUNT)) for o in ops]
    return Plan(ops, warmup)


def certify_plan(seed: int) -> Plan:
    """Corpus: every graph on <= 7 vertices, every tree on <= 12 vertices,
    and seeded interval, chordal-bipartite and distance-hereditary instances.
    `compute --fractional` runs over all of it, then `construct` over each
    class's members."""
    from dompack import generators
    from dompack.generators import GenSpec

    def encode(g):
        return encode_graph6(g.n, g.edges())

    graphs = {n: [encode(g) for g in generators.all_graphs(n)] for n in range(1, 8)}
    trees = {n: [encode(t) for t in generators.all_trees(n)] for n in range(1, 13)}
    rng = random.Random(seed)
    specs = {"strongly-chordal": [], "chordal-bipartite": [], "homogeneously-orderable": []}
    for _ in range(CERTIFY_SEEDED):
        specs["strongly-chordal"].append(GenSpec(
            "interval", rng.randrange(2, 41), rng.getrandbits(63),
            {"span": rng.choice([0.15, 0.3, 0.5])},
        ))
        specs["chordal-bipartite"].append(GenSpec(
            "chordal-bipartite", rng.randrange(4, 17), rng.getrandbits(63),
            {"edge_prob": rng.choice([0.2, 0.3, 0.45])},
        ))
        specs["homogeneously-orderable"].append(GenSpec(
            "distance-hereditary", rng.randrange(2, 15), rng.getrandbits(63),
        ))
    members = {"tree": [g6 for n in trees for g6 in trees[n]]}
    for cls, family in specs.items():
        members[cls] = [encode(generators.generate(spec)) for spec in family]
    corpus = [g6 for n in graphs for g6 in graphs[n]]
    corpus += [g6 for cls in members for g6 in members[cls]]

    ops = [Op("compute", ["compute", "-", "--fractional"], "\n".join(corpus))]
    ops += [Op(cls, ["construct", "--class", cls, "-"], "\n".join(members[cls])) for cls in members]
    warm = 10 * WARMUP_COUNT
    warmup = [Op(o.label, o.argv, "\n".join(o.stdin.splitlines()[:warm])) for o in ops]
    context = {
        "graphs": graphs,
        "trees": trees,
        "specs": specs,
        "members": members,
        "corpus": corpus,
    }
    return Plan(ops, warmup, context)


def lemmas_plan(seed: int) -> Plan:
    ops = []
    for lemma, count in LEMMA_COUNTS.items():
        cli_seed = 0 if lemma == "triangulate" else seed
        argv = ["lemmacheck", "--lemma", lemma, "--count", str(count), "--seed", str(cli_seed)]
        ops.append(Op(lemma, argv))
    warmup = [Op(o.label, _counted(o.argv, WARMUP_COUNT)) for o in ops]
    return Plan(ops, warmup)


PLANS = {"verify": verify_plan, "certify": certify_plan, "lemmas": lemmas_plan}
