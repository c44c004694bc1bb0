"""Run every workload on two seeds, each run in its own process.

    python3 pevbench/report.py --seeds 1 2718 --seconds 30 > pevbench/RESULTS.md

For each workload and seed it makes one timed run (--trace 0) and one
traced run (--trace 1) of pevbench/run.py and prints a Markdown table:
every metric by name, with its unit, one column per seed.  The first
seed is the one the benchmark was tuned on; a second, fresh seed lets a
later claim be re-checked on inputs nobody tuned for.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("check-enum", "graph-bar", "dist-lp")


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2718])
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    print("# pevbench results\n")
    print(f"Produced by `python3 pevbench/report.py --seeds {' '.join(map(str, args.seeds))} "
          f"--seconds {args.seconds}` on {cpu_model()}, Python {platform.python_version()}. "
          "Times are scaled to the reference speed (see README.md). "
          "One timed run and one traced run per workload and seed; single runs, so "
          "compare medians of repeated runs before claiming a change.\n")
    for workload in WORKLOADS:
        results = {s: (one_run(workload, s, args.seconds, 0), one_run(workload, s, args.seconds, 1))
                   for s in args.seeds}
        print(f"## {workload}\n")
        print("| metric | unit | " + " | ".join(f"seed {s}" for s in args.seeds) + " |")
        print("|---|---|" + "---|" * len(args.seeds))
        for part, label in ((0, "attempted ops"), (1, "traced ops (x2)")):
            print(f"| {label} | count | "
                  + " | ".join(f"{results[s][part]['attempted']} ({results[s][part]['failed']} failed)"
                               for s in args.seeds) + " |")
        for part in (0, 1):
            for name, entry in results[args.seeds[0]][part]["metrics"].items():
                cells = " | ".join(f"{results[s][part]['metrics'][name]['value']:.6g}" for s in args.seeds)
                print(f"| {name} | {entry['unit']} | {cells} |")
        print()
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
