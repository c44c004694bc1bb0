"""Record the output digests that later runs compare against.

    python3 pevbench/pin.py --workload check-enum --seeds 0 1 2

For each seed, runs the first PIN_OPS ops of the workload's stream,
checks every answer, and stores the first bytes of the SHA-256 of each
op's output in pins/<workload>.json: dashes for the library calls,
whose result is an object that only their judge checks.  It refuses to
pin an op whose answer fails its check.  Re-pin only when the
benchmark's inputs change; the program's output bytes are meant to stay
fixed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import run

# About the number of ops one 30-second run reaches on the machine the
# pins were recorded on; later ops of a run get the answer checks only.
PIN_OPS = {"check-enum": 600, "graph-bar": 330, "dist-lp": 600}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PIN_OPS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    path = run.PINS / f"{args.workload}.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    for seed in args.seeds:
        _, stream = run.setup(args.workload, seed)
        digests = []
        for i, op in enumerate(itertools.islice(stream, PIN_OPS[args.workload])):
            _, _, reason, digest = run.run_op(op, None)
            if reason is not None:
                print(f"{args.workload} seed {seed} op {i} ({op.shape}) fails: {reason}",
                      file=sys.stderr)
                return 1
            digests.append(digest if op.pinned else "-" * run.DIGEST_LEN)
        pins[str(seed)] = "".join(digests)
        print(f"{args.workload} seed {seed}: pinned {len(digests)} ops")
    run.PINS.mkdir(exist_ok=True)
    path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
