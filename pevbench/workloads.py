"""The three seeded workloads: op streams with known answers.

An op is one thing a user does: `parteval.cli.main(argv)` run in-process
with stdout captured, or one public library call.  Each workload cycles
through a fixed schedule of op shapes (instance, size, answer); the
seed only picks the values inside each shape.  A fixed schedule keeps
the mix of cheap and expensive ops the same on every seed, so the
latency quantiles land inside an op class rather than on the edge
between two.  No two ops of one stream share their inputs.

Answers are known by construction (a target built as the blockwise
evaluation of a random partition, a spread of a coarse distribution)
or from the brute-force searches in `oracle`, which never call the
program's evaluation.

Op costs quoted in the schedule comments were measured on a 2-vCPU
Intel Xeon virtual machine (2.1 GHz) with Python 3.11.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle as O


@dataclass
class Op:
    shape: str
    key: str
    call: Callable[[], tuple]  # the timed action -> (exit code, output text, object)
    judge: Callable[[int, str, object], "str | None"]
    # A slower, brute-force judge (same signature as `judge` minus the
    # object) that the self-test runs to confirm the pinned answers.
    oracle: "Callable[[int, str], str | None] | None" = None
    # Whether the output bytes are pinned.  Library calls return objects,
    # not CLI output, so only their judge checks them.
    pinned: bool = True


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def cli_call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), None


def monoid_spec(n: int, op, identity: int) -> dict:
    """A monoid on 0..n-1 in the CLI's table format."""
    return {"elements": list(range(n)), "identity": identity,
            "op": [[op(a, b) for b in range(n)] for a in range(n)]}


C4 = dumps({"alg": {"cayley": monoid_spec(4, lambda a, b: (a + b) % 4, 0)}})
C6 = dumps({"alg": {"cayley": monoid_spec(6, lambda a, b: (a + b) % 6, 0)}})
MUL6_SPEC = monoid_spec(6, lambda a, b: a * b % 6, 1)  # commutative, not a group
MUL6 = dumps({"alg": {"table": MUL6_SPEC}})
LAW_ALGS = {"ms": "nat-add", "list": C4, "act": C6}


def convex(dim: int) -> str:
    return dumps({"alg": {"convex": {"dim": dim}}})


# ---------------------------------------------------------------------------
# Random building blocks (the benchmark's own, seeded by the caller's rng).


def pattern_atoms(rng, pattern, values):
    """Atoms with the given multiplicity pattern over distinct random values."""
    picked = rng.sample(values, len(pattern))
    return sorted(v for v, m in zip(picked, pattern) for _ in range(m))


def random_blocks(rng, atoms):
    """A random partition of the atoms into nonempty blocks."""
    k = rng.randint(1, len(atoms))
    blocks: dict = {}
    for a in atoms:
        blocks.setdefault(rng.randrange(k), []).append(a)
    return [tuple(b) for b in blocks.values()]


def random_cuts(rng, seq):
    """A random splitting of a sequence into contiguous blocks."""
    blocks, start = [], 0
    for gap in range(len(seq) - 1):
        if rng.random() < 0.5:
            blocks.append(tuple(seq[start : gap + 1]))
            start = gap + 1
    blocks.append(tuple(seq[start:]))
    return blocks


# ---------------------------------------------------------------------------
# check-enum: `pev check` on enumerable instances, plus `pev laws`.


class CheckEnum:
    """Decisions by whole-fiber enumeration; never touches the LP."""

    # (shape name, maker, parameter).  One cycle is 20 ops: 6 light ones
    # (under 10 ms), 6 at about 20 ms where the median falls, 4 at 30-75
    # ms, and 4 whole-fiber ops of 7 distinct or 8 repeated atoms at about
    # 150-180 ms, where p90 falls.
    SCHEDULE = (
        ("ms7d", "ms", (1, 1, 1, 1, 1, 1, 1)),
        ("act", "act", None),
        ("list9", "list", 9),
        ("ms6r", "ms", (2, 1, 1, 1, 1)),
        ("list10", "list", 10),
        ("laws-ms", "laws", "ms"),
        ("ms8r2222", "ms", (2, 2, 2, 2)),
        ("ms5d", "ms", (1, 1, 1, 1, 1)),
        ("tab6", "table", (2, 1, 1, 1, 1)),
        ("ms7r", "ms", (2, 2, 1, 1, 1)),
        ("laws-list", "laws", "list"),
        ("ms7d", "ms", (1, 1, 1, 1, 1, 1, 1)),
        ("ms6r", "ms", (2, 1, 1, 1, 1)),
        ("list8", "list", 8),
        ("tab7", "table", (2, 2, 1, 1, 1)),
        ("act", "act", None),
        ("ms6d", "ms", (1, 1, 1, 1, 1, 1)),
        ("ms8r3221", "ms", (3, 2, 2, 1)),
        ("laws-act", "laws", "act"),
        ("list9", "list", 9),
    )
    LAW_SAMPLES = 120
    WARMUP = (
        ["check", dumps(O.ms_envelope([1, 2])), dumps(O.ms_envelope([3])), "--alg", "nat-add"],
        ["check", dumps({"list": [1, 2]}), dumps({"list": [3]}), "--alg", C4],
        ["check", dumps({"act": {"g": 1, "x": 2}}), dumps({"act": {"g": 0, "x": 3}}), "--alg", C6],
        ["check", dumps(O.ms_envelope([2, 3])), dumps(O.ms_envelope([0])), "--alg", MUL6],
        ["laws", "ms", "--alg", "nat-add", "--samples", "6", "--seed", "0"],
    )

    def __init__(self, pe, cli, rng):
        self.cli = cli  # looked up per call, so tracing can wrap cli.main
        self.rng = rng
        self.toggle: dict = {}

    def want_yes(self, shape):
        # Alternate per shape so yes and no stay balanced on every seed.
        flip = self.toggle.get(shape, self.rng.random() < 0.5)
        self.toggle[shape] = not flip
        return flip

    def make(self, shape, kind, param):
        return getattr(self, "make_" + kind)(shape, param)

    def _check_op(self, shape, argv, expect_yes, reader, source, target, flatten, evaluate,
                  oracle):
        def judge(rc, out, _):
            return O.judge_check(rc, out, expect_yes, reader, source, target, flatten, evaluate)

        return Op(shape, " ".join(argv), lambda: cli_call(self.cli.main, argv), judge, oracle)

    def _no_target(self, atoms, blocks_of, fold, perturb, reachable):
        """A target with no witness; equal total to the yes targets 4 times in 5."""
        equal_total = self.rng.random() < 0.8
        for _ in range(200):
            base = [fold(b) for b in blocks_of(self.rng, atoms)]
            cand = perturb(self.rng, base, equal_total)
            if cand is not None and not reachable(atoms, cand, fold):
                return cand
        raise RuntimeError(f"no negative target found for {atoms}")

    def make_ms(self, shape, pattern):
        atoms = pattern_atoms(self.rng, pattern, range(1, 10))
        return self._ms_op(shape, atoms, sum, "nat-add", nat_perturb)

    def make_table(self, shape, pattern):
        atoms = pattern_atoms(self.rng, pattern, range(6))
        fold = O.table_fold(MUL6_SPEC["op"], 1)
        return self._ms_op(shape, atoms, fold, MUL6, table_perturb(fold))

    def _ms_op(self, shape, atoms, fold, alg, perturb):
        if self.want_yes(shape):
            yes = True
            target = tuple(sorted(fold(b) for b in random_blocks(self.rng, atoms)))
        else:
            yes = False
            target = tuple(sorted(
                self._no_target(atoms, random_blocks, fold, perturb, O.ms_reachable)
            ))
        argv = ["check", dumps(O.ms_envelope(atoms)), dumps(O.ms_envelope(target)), "--alg", alg]
        return self._check_op(shape, argv, yes, O.read_ms, tuple(atoms), target,
                              O.ms_flatten, O.ms_eval(fold),
                              verdict_oracle(lambda: O.ms_reachable(atoms, target, fold)))

    def make_list(self, shape, n):
        seq = tuple(self.rng.randrange(4) for _ in range(n))
        fold = O.cyclic_fold(4)
        if self.want_yes(shape):
            yes = True
            target = tuple(fold(b) for b in random_cuts(self.rng, seq))
        else:
            yes = False
            target = tuple(self._no_target(seq, random_cuts, fold, cyclic_perturb(4),
                                           O.list_reachable))
        argv = ["check", dumps({"list": list(seq)}), dumps({"list": list(target)}), "--alg", C4]
        return self._check_op(shape, argv, yes, O.read_list, seq, target,
                              O.list_flatten, O.list_eval(fold),
                              verdict_oracle(lambda: O.list_reachable(seq, target, fold)))

    def make_act(self, shape, _):
        rng = self.rng
        g, x, h = rng.randrange(6), rng.randrange(6), rng.randrange(6)
        yes = self.want_yes(shape)
        if yes:
            y = ((g - h) % 6 + x) % 6
        else:
            y = rng.choice([v for v in range(6) if (h + v) % 6 != (g + x) % 6])
        argv = ["check", dumps({"act": {"g": g, "x": x}}), dumps({"act": {"g": h, "x": y}}),
                "--alg", C6]
        return self._check_op(shape, argv, yes, O.read_act, (g, x), (h, y),
                              O.act_flatten(6), O.act_eval(6),
                              verdict_oracle(lambda: any(
                                  (k, (l + x) % 6) == (h, y)
                                  for k in range(6) for l in range(6) if (k + l) % 6 == g)))

    def make_laws(self, shape, instance):
        samples = self.LAW_SAMPLES
        argv = ["laws", instance, "--alg", LAW_ALGS[instance], "--samples", str(samples),
                "--seed", str(self.rng.randrange(10**9))]
        return Op(shape, " ".join(argv), lambda: cli_call(self.cli.main, argv),
                  lambda rc, out, _: O.judge_laws(rc, out, samples))


def verdict_oracle(reachable):
    def oracle(rc, out):
        return None if reachable() == (rc == 0) else "brute-force search disagrees"

    return oracle


def nat_perturb(rng, base, equal_total):
    if len(base) < 2 and equal_total:
        return None
    cand = list(base)
    i = rng.randrange(len(cand))
    cand[i] += 1
    if equal_total:
        j = rng.choice([k for k in range(len(cand)) if k != i])
        if cand[j] < 2:
            return None
        cand[j] -= 1
    return sorted(cand)


def table_perturb(fold):
    def perturb(rng, base, equal_total):
        cand = list(base)
        i = rng.randrange(len(cand))
        cand[i] = rng.choice([v for v in range(6) if v != cand[i]])
        if equal_total and fold(tuple(cand)) != fold(tuple(base)):
            return None
        return sorted(cand)

    return perturb


def cyclic_perturb(n):
    def perturb(rng, base, equal_total):
        if len(base) < 2 and equal_total:
            return None
        cand = list(base)
        i = rng.randrange(len(cand))
        cand[i] = (cand[i] + 1) % n
        if equal_total:
            j = rng.choice([k for k in range(len(cand)) if k != i])
            cand[j] = (cand[j] - 1) % n
        return cand

    return perturb


# ---------------------------------------------------------------------------
# graph-bar: reduction graphs, bar complexes, witness composition.


class GraphBar:
    """Whole fibers rebuilt per node and per cell, and large outputs."""

    # One cycle is 20 ops.  8 are light (compositions, small list graphs,
    # under 25 ms).  Three at about 50 ms (bar4r22 and two graph5d-dot),
    # whose cost hardly depends on the data, hold the median.  Five more
    # run at 65-160 ms.  Three bar5r32 complexes at about 195 ms hold p90:
    # a bar complex costs the same for any atoms of one multiplicity
    # pattern.  One 6-distinct-atom graph takes about 420 ms.
    SCHEDULE = (
        ("graph6d", "graph_ms", ((1, 1, 1, 1, 1, 1), False)),
        ("compose-ms", "compose", "ms"),
        ("bar4r22", "bar", (2, 2)),
        ("lgraph5", "graph_list", (5, False)),
        ("bar5r32", "bar", (3, 2)),
        ("graph5d-dot", "graph_ms", ((1, 1, 1, 1, 1), True)),
        ("compose-list", "compose", "list"),
        ("lgraph7", "graph_list", (7, False)),
        ("bar5r32", "bar", (3, 2)),
        ("lgraph6-dot", "graph_list", (6, True)),
        ("bar4r", "bar", (2, 1, 1)),
        ("compose-ms", "compose", "ms"),
        ("graph6r222", "graph_ms", ((2, 2, 2), False)),
        ("graph5d-dot", "graph_ms", ((1, 1, 1, 1, 1), True)),
        ("bar5r32", "bar", (3, 2)),
        ("lgraph5-dot", "graph_list", (5, True)),
        ("bar4d", "bar", (1, 1, 1, 1)),
        ("graph6r2211-dot", "graph_ms", ((2, 2, 1, 1), True)),
        ("compose-list", "compose", "list"),
        ("graph5r221-dot", "graph_ms", ((2, 2, 1), True)),
    )
    COMPOSE_SIZE = {"ms": 6, "list": 8}
    WARMUP = (
        ["graph", dumps(O.ms_envelope([1, 2])), "--alg", "nat-add"],
        ["graph", dumps(O.ms_envelope([1, 2])), "--alg", "nat-add", "--dot"],
        ["graph", dumps({"list": [1, 2]}), "--alg", C4],
        ["bar", dumps(O.ms_envelope([1, 2])), "--alg", "nat-add", "--level", "2"],
    )

    def __init__(self, pe, cli, rng):
        self.pe = pe
        self.cli = cli  # looked up per call, so tracing can wrap cli.main
        self.rng = rng
        self.algebras = {
            "ms": (pe.MULTISET, pe.nat_add_algebra()),
            "list": (pe.LIST, pe.monoid_algebra(pe.cyclic(4))),
        }

    def make(self, shape, kind, param):
        return getattr(self, "make_" + kind)(shape, param)

    def _graph_op(self, shape, argv, dot, read, label, seed, total_of, total_node, targets,
                  targets_of):
        def judge(rc, out, _):
            if rc != 0:
                return f"graph exit {rc}"
            nodes, edges = O.read_graph(out, dot, read, label)
            return O.judge_graph_nodes_edges(nodes, edges, seed, total_of, total_node, targets)

        def oracle(rc, out):
            nodes, edges = O.read_graph(out, dot, read, label)
            graph = {n: Counter() for n in nodes}
            for u, v, c in edges:
                graph[nodes[u]][nodes[v]] = c
            if graph != O.full_reduction_graph(seed, targets_of):
                return "graph differs from the brute-force closure"
            return None

        return Op(shape, " ".join(argv), lambda: cli_call(self.cli.main, argv), judge, oracle)

    def make_graph_ms(self, shape, param):
        pattern, dot = param
        atoms = tuple(pattern_atoms(self.rng, pattern, range(1, 10)))
        argv = ["graph", dumps(O.ms_envelope(atoms)), "--alg", "nat-add"] + (["--dot"] if dot else [])
        return self._graph_op(shape, argv, dot, O.read_ms, O.ms_label, atoms, sum,
                              (sum(atoms),), O.ms_targets(atoms, sum),
                              lambda node: O.ms_targets(node, sum))

    def make_graph_list(self, shape, param):
        n, dot = param
        seq = tuple(self.rng.randrange(4) for _ in range(n))
        fold = O.cyclic_fold(4)
        argv = ["graph", dumps({"list": list(seq)}), "--alg", C4] + (["--dot"] if dot else [])
        return self._graph_op(shape, argv, dot, O.read_list, O.list_label, seq, fold,
                              (fold(seq),), O.list_targets(seq, fold),
                              lambda node: O.list_targets(node, fold))

    def make_bar(self, shape, pattern):
        # Values up to 19: three bar5r32 per cycle need many distinct inputs.
        atoms = tuple(pattern_atoms(self.rng, pattern, range(1, 20)))
        argv = ["bar", dumps(O.ms_envelope(atoms)), "--alg", "nat-add", "--level", "2"]
        return Op(shape, " ".join(argv), lambda: cli_call(self.cli.main, argv),
                  lambda rc, out, _: O.judge_bar(rc, out, atoms, sum))

    def make_compose(self, shape, instance):
        # The pair is built here, from values the benchmark chooses, so the
        # inputs do not depend on how the program enumerates or samples.
        monad, algebra = self.algebras[instance]
        n = self.COMPOSE_SIZE[instance]
        if instance == "ms":
            atoms = sorted(self.rng.randint(1, 9) for _ in range(n))
            split, canon = random_blocks, O.ms_canon
            flatten, evaluate = O.ms_flatten, O.ms_eval(sum)
            sort = sorted
        else:
            atoms = [self.rng.randrange(4) for _ in range(n)]
            split, canon = random_cuts, O.list_canon
            flatten, evaluate = O.list_flatten, O.list_eval(O.cyclic_fold(4))
            sort = list
        k = tuple(sort(tuple(sort(b)) for b in split(self.rng, atoms)))  # atoms -> middle
        middle = evaluate(k)
        h = tuple(sort(tuple(sort(b)) for b in split(self.rng, middle)))  # middle -> target
        source, target = flatten(k), evaluate(h)
        pe = self.pe

        def witness(value):
            expr = pe.NestedExpression(monad, 2, monad.from_raw(value, 2))
            return pe.witness_from_value(expr, algebra)

        first, second = witness(k), witness(h)

        def call():
            w = pe.compose_witnesses(first, second)
            return 0, "", w

        def judge(rc, out, w):
            value = canon(w.value.payload, 2)
            if flatten(value) != source or evaluate(value) != target:
                return "composite does not run from the first source to the second target"
            return None

        return Op(shape, f"compose {instance} {k!r} {h!r}", call, judge, pinned=False)


# ---------------------------------------------------------------------------
# dist-lp: exact LP decisions on rational point distributions.

_DIVISORS = (1, 2, 3, 4, 6, 12)


def _coord(rng, span):
    d = rng.choice(_DIVISORS)
    return Fraction(rng.randint(-span * d, span * d), d)


def coarse_distribution(rng, k, dim):
    """k distinct points, weights with one denominator of at most 12."""
    points = set()
    while len(points) < k:
        points.add(tuple(_coord(rng, 6) for _ in range(dim)))
    den = rng.randint(max(k, 2), 12)
    cuts = sorted(rng.sample(range(1, den), k - 1))
    units = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return {pt: Fraction(u, den) for pt, u in zip(sorted(points), units)}


def spread(rng, coarse, per_block, dim):
    """A strict mean-preserving spread of `coarse` and the witness value.

    Each point b becomes per_block points: symmetric pairs b +/- delta
    with equal weight, plus b itself when per_block is odd, so every
    block has barycenter b.  Returns (fine distribution, witness value
    as [(block, weight)]).
    """
    value = []
    for b, w in sorted(coarse.items()):
        units = []
        if per_block % 2:
            units.append((b, rng.randint(1, 2)))
        for _ in range(per_block // 2):
            delta = (0,) * dim
            while not any(delta):
                delta = tuple(_coord(rng, 2) for _ in range(dim))
            e = rng.randint(1, 2)
            units.append((tuple(c + d for c, d in zip(b, delta)), e))
            units.append((tuple(c - d for c, d in zip(b, delta)), e))
        total = sum(u for _, u in units)
        value.append((O.dist_merge((pt, Fraction(u, total)) for pt, u in units), w))
    return O.dist_flatten(value), value


class DistLp:
    """Exact Fraction simplex; no fiber is ever built."""

    # (shape, maker, (coarse points, points per block, dimension)).  One
    # cycle is 20 ops: 3 kernel compositions (no LP), 4 LPs of 12-18
    # variables, 9 of 27-36 variables at 40-90 ms where the median falls,
    # and 4 of 32-48 variables (up to 15 source points) at 80-160 ms, where
    # p90 falls.  Simplex cost varies widely with the data even at one
    # size, so the stream needs many ops of each shape.
    SCHEDULE = (
        ("d1-yes-3x5", "check_yes", (3, 5, 1)),
        ("compose-3x2x1", "compose", (3, 2, 1)),
        ("d1-yes-3x3", "check_yes", (3, 3, 1)),
        ("d2-yes-2x3", "check_yes", (2, 3, 2)),
        ("sosd-no-3x3", "sosd_no", (3, 3, 1)),
        ("d2-no-3x4", "check_no", (3, 4, 2)),
        ("d1-no-2x3", "check_no", (2, 3, 1)),
        ("d2-yes-3x3", "check_yes", (3, 3, 2)),
        ("compose-3x2x2", "compose", (3, 2, 2)),
        ("sosd-yes-3x4", "sosd_yes", (3, 4, 1)),
        ("d1-no-3x3", "check_no", (3, 3, 1)),
        ("d1-yes-4x2", "check_yes", (4, 2, 1)),
        ("d2-no-2x3", "check_no", (2, 3, 2)),
        ("sosd-yes-3x3", "sosd_yes", (3, 3, 1)),
        ("compose-3x3x1", "compose", (3, 3, 1)),
        ("d1-no-3x5", "check_no", (3, 5, 1)),
        ("d2-no-3x3", "check_no", (3, 3, 2)),
        ("d1-yes-2x3", "check_yes", (2, 3, 1)),
        ("sosd-no-3x4", "sosd_no", (3, 4, 1)),
        ("d1-no-4x2", "check_no", (4, 2, 1)),
    )
    WARMUP = (
        ["check", dumps(O.dist_envelope({(Fraction(0),): Fraction(1, 2), (Fraction(2),): Fraction(1, 2)})),
         dumps(O.dist_envelope({(Fraction(1),): Fraction(1)})), "--alg", convex(1)],
        ["check", dumps(O.dist_envelope({(Fraction(0), Fraction(0)): Fraction(1, 2),
                                         (Fraction(2), Fraction(2)): Fraction(1, 2)})),
         dumps(O.dist_envelope({(Fraction(1), Fraction(1)): Fraction(1)})), "--alg", convex(2)],
        ["sosd", dumps(O.dist_envelope({(Fraction(0),): Fraction(1, 2), (Fraction(2),): Fraction(1, 2)})),
         dumps(O.dist_envelope({(Fraction(1),): Fraction(1)}))],
    )

    def __init__(self, pe, cli, rng):
        self.pe = pe
        self.cli = cli  # looked up per call, so tracing can wrap cli.main
        self.rng = rng
        self.algebras = {d: pe.convex_algebra(d) for d in (1, 2)}

    def make(self, shape, kind, param):
        return getattr(self, "make_" + kind)(shape, param)

    def _pair(self, k, per_block, dim):
        coarse = coarse_distribution(self.rng, k, dim)
        fine, _ = spread(self.rng, coarse, per_block, dim)
        return fine, coarse

    def _check(self, shape, source, target, dim, yes):
        argv = ["check", dumps(O.dist_envelope(source)), dumps(O.dist_envelope(target)),
                "--alg", convex(dim)]
        return Op(shape, " ".join(argv), lambda: cli_call(self.cli.main, argv),
                  lambda rc, out, _: O.judge_check(rc, out, yes, O.read_dist, source, target,
                                                   O.dist_flatten, O.dist_eval))

    def make_check_yes(self, shape, param):
        fine, coarse = self._pair(*param)
        return self._check(shape, fine, coarse, param[2], True)

    def make_check_no(self, shape, param):
        # The reverse of a strict spread: the coarse side cannot reach the fine one.
        fine, coarse = self._pair(*param)
        return self._check(shape, coarse, fine, param[2], False)

    def _sosd(self, shape, p, q, yes):
        argv = ["sosd", dumps(O.dist_envelope(p)), dumps(O.dist_envelope(q))]
        verdict = "yes" if yes else "no"
        expected = f"sosd: {verdict}\nlp: {verdict}\n"

        def judge(rc, out, _):
            if rc != (0 if yes else 1) or out != expected:
                return f"sosd exit {rc}, expected {verdict} from both routes"
            return None

        return Op(shape, " ".join(argv), lambda: cli_call(self.cli.main, argv), judge)

    def make_sosd_yes(self, shape, param):
        fine, coarse = self._pair(*param)
        return self._sosd(shape, fine, coarse, True)

    def make_sosd_no(self, shape, param):
        fine, coarse = self._pair(*param)
        return self._sosd(shape, coarse, fine, False)

    def make_compose(self, shape, param):
        k, per_block, dim = param
        pe = self.pe
        r = coarse_distribution(self.rng, k, dim)
        q, second_value = spread(self.rng, r, per_block, dim)
        p, first_value = spread(self.rng, q, per_block, dim)
        algebra = self.algebras[dim]

        def witness(value):
            outer = [(pe.DIST.mix(sorted(inner.items()), 0), w) for inner, w in value]
            expr = pe.NestedExpression(pe.DIST, 2, pe.DIST.mix(outer, 1))
            return pe.witness_from_value(expr, algebra)

        first, second = witness(first_value), witness(second_value)

        def call():
            w = pe.compose_dist_witnesses(first, second)
            return 0, "", w

        def judge(rc, out, w):
            value = [(dict(inner), wt) for inner, wt in w.value.payload]
            if O.dist_flatten(value) != p or O.dist_eval(value) != r:
                return "composite does not run from the first source to the second target"
            return None

        key = f"compose-dist {sorted(p.items())!r} {sorted(q.items())!r} {sorted(r.items())!r}"
        return Op(shape, key, call, judge, pinned=False)


WORKLOADS = {"check-enum": CheckEnum, "graph-bar": GraphBar, "dist-lp": DistLp}


def stream(gen):
    """Endless ops cycling through the workload's schedule, each input used once."""
    seen = set()
    for shape, kind, param in itertools.cycle(gen.SCHEDULE):
        for _ in range(100):
            op = gen.make(shape, kind, param)
            if op.key not in seen:
                break
        else:
            raise RuntimeError(f"shape {shape} ran out of distinct inputs")
        seen.add(op.key)
        yield op
