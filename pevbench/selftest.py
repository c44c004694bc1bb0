"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 pevbench/selftest.py

1. The same seed generates byte-identical inputs; another seed does not.
2. On the main seed, the pinned output digests are what the program
   prints now, and a brute-force oracle that never calls parteval agrees
   with those answers: the check-enum verdicts, and every node and edge
   count of the graph-bar reduction graphs.
3. With evaluation swapped for `parteval.faults.corrupted_eval`, the
   correctness gate reports failed ops on every workload.
4. On dist-lp, where the CLI refuses a corrupted algebra outright, the
   witness checks themselves reject a wrong but well-formed witness:
   one whose blocks are regrouped, one with a point moved, and one that
   states another target.

Exits 0 when all pass.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter

import oracle as O
import run
import workloads as W

MAIN_SEED = 1


def first_ops(workload, seed, n):
    _, stream = run.setup(workload, seed)
    return list(itertools.islice(stream, n))


def test_same_seed_same_inputs():
    for workload in W.WORKLOADS:
        a = [op.key.encode() for op in first_ops(workload, 7, 30)]
        b = [op.key.encode() for op in first_ops(workload, 7, 30)]
        c = [op.key.encode() for op in first_ops(workload, 8, 30)]
        assert a == b, f"{workload}: seed 7 gave different inputs on a second pass"
        assert a != c, f"{workload}: seeds 7 and 8 gave the same inputs"
        assert len(set(a)) == len(a), f"{workload}: an input repeats within a stream"
    return "same seed, same input bytes (30 ops of each workload)"


def test_oracle_agrees_with_pins():
    checked = Counter()
    for workload, count in (("check-enum", 60), ("graph-bar", 40)):
        pins = run.load_pins(workload, MAIN_SEED)
        assert len(pins) >= count, f"no pins for {workload} seed {MAIN_SEED}; run pevbench/pin.py"
        for i, op in enumerate(first_ops(workload, MAIN_SEED, count)):
            rc, out, obj = op.call()
            assert not op.pinned or run.digest(out) == pins[i], \
                f"{workload} op {i} ({op.shape}) differs from its pin"
            assert op.judge(rc, out, obj) is None, f"{workload} op {i} ({op.shape}) fails its check"
            if op.oracle is not None:
                reason = op.oracle(rc, out)
                assert reason is None, f"{workload} op {i} ({op.shape}): {reason}"
                checked[workload] += 1
    return (f"pins match and the brute-force oracle agrees on {checked['check-enum']} "
            f"check-enum and {checked['graph-bar']} graph-bar ops")


def test_corrupted_eval_fails_gate():
    failed = {}
    for workload in W.WORKLOADS:
        _, stream = run.setup(workload, MAIN_SEED)
        cli = sys.modules["parteval.cli"]
        corrupt = sys.modules["parteval.faults"].corrupted_eval
        honest = cli.parse_algebra
        cli.parse_algebra = lambda data, key: corrupt(honest(data, key))
        ops = [op for op in itertools.islice(stream, 40) if not op.key.startswith("compose")]
        results = [run.run_op(op, None)[2] for op in ops]
        failed[workload] = sum(r is not None for r in results) / len(results)
        assert failed[workload] > 0, f"{workload}: corrupted evaluation went unnoticed"
    return "corrupted_eval drives the failed share to " + ", ".join(
        f"{w} {share:.2f}" for w, share in failed.items())


def wrong_dist_witnesses(out):
    """Variants of a dist `pev check` witness, each wrong in one way."""
    body = json.loads(out)
    env = body["witness"]["value"]
    value = O.read_dist(env, 2)

    def emit(**fields):
        return json.dumps(dict(body, witness=dict(body["witness"], **fields)))

    def encode(value):
        return dict(env, dist=[[O.dist_envelope(inner)["dist"], [w.numerator, w.denominator]]
                               for inner, w in value])

    # Two blocks pooled into one: still flattens to the source, but the
    # two target points it should evaluate to become their average.
    (a, wa), (b, wb) = value[0], value[1]
    pooled = O.dist_merge([(pt, v * wa / (wa + wb)) for pt, v in a.items()]
                          + [(pt, v * wb / (wa + wb)) for pt, v in b.items()])
    yield "evaluate", emit(value=encode([(pooled, wa + wb)] + value[2:]))
    # One point of the first block moved by one along the first axis.
    pt, v = next(iter(sorted(a.items())))
    moved = O.dist_merge([(q, u) for q, u in a.items() if q != pt]
                         + [((pt[0] + 1,) + pt[1:], v)])
    yield "flatten", emit(value=encode([(moved, wa)] + value[1:]))
    # The right value, with a stated target that is not the input.
    target = O.read_dist(body["witness"]["target"], 1)
    shifted = {(q[0] + 1,) + q[1:]: u for q, u in target.items()}
    yield "boundaries", emit(target=O.dist_envelope(shifted))


def test_wrong_dist_witness_fails_gate():
    checked = 0
    for op in first_ops("dist-lp", MAIN_SEED, 40):
        if "-yes-" not in op.shape or not op.shape.startswith("d"):
            continue
        rc, out, obj = op.call()
        assert rc == 0 and op.judge(rc, out, obj) is None, f"{op.shape}: honest witness fails"
        for fault, wrong in wrong_dist_witnesses(out):
            reason = op.judge(rc, wrong, obj)
            assert reason is not None and fault in reason, \
                f"{op.shape}: a witness that fails to {fault} got {reason!r}"
            checked += 1
    assert checked, "no dist-lp check ops with a witness"
    return f"{checked} wrong dist witnesses rejected by the witness checks"


def main() -> int:
    if not (run.ROOT / "src" / "parteval" / "__init__.py").is_file():
        print("selftest: src/parteval is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    status = 0
    for test in (test_same_seed_same_inputs, test_oracle_agrees_with_pins,
                 test_corrupted_eval_fails_gate, test_wrong_dist_witness_fails_gate):
        try:
            print(f"PASS {test.__name__}: {test()}")
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
