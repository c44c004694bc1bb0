"""Benchmark for parteval: one workload per invocation, closed loop.

    python3 pevbench/run.py --workload check-enum --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
One caller in one thread makes a call, waits for it, and makes the
next.  Each call is one user action (see workloads.py) and each answer
is checked against a known one, plus, for the seeds in pins/, the
digest of the output bytes recorded from the program as first
benchmarked.

--trace 0 reports the end-to-end metrics: ops per second and latency
quantiles, set-up time (median of several set-ups), peak memory, and
the share of ops answered correctly.  The timed phase lasts `--seconds`
of wall time spent in ops; ops and set-ups are timed on the process's
CPU clock (see `cpu_ns`) and scaled to a fixed host speed, measured by
a reference task run before every op (see `host_scale`).
--trace 1 runs a fixed list of ops (the first TRACE_OPS of the stream),
each once with the program's public functions wrapped and once without,
and reports per-layer busy time and counts plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import random
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns, process_time_ns

ROOT = Path(__file__).resolve().parent.parent
# Set-ups per timed run.  The first provides the op stream; the rest are
# spread evenly over the timed phase, between ops, so that their median
# sees the same mix of fast and slow spells of a shared host as the ops do.
SETUPS = 40
PINS = Path(__file__).resolve().parent / "pins"
DIGEST_LEN = 8
TRACE_OPS = {"check-enum": 60, "graph-bar": 40, "dist-lp": 40}
# The reference task's CPU time at the speed that times are scaled to,
# and how many reference timings on each side of an op set its scale.
REF_NS = 2_800_000
SPEED_WINDOW = 5


# Unit of every metric, as BENCHMARK.json declares it.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def cpu_ns() -> int:
    """CPU time of this process and of its reaped children, in ns.

    Ops and set-ups are timed on this clock.  They run single-threaded,
    in-process and without I/O, so their CPU time is their wall time less
    the spells when the process is not running at all.  On a shared
    virtual machine those spells (hypervisor steal) stretch a wall-clock
    op several-fold at random, and no change to the program can move
    them.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def reference_task():
    """A fixed piece of pure-Python work: about 2.8 ms of CPU time on a
    2-vCPU Intel Xeon virtual machine (2.1 GHz) with Python 3.11.

    Exact elimination on a rational 7x8 matrix, then tuple sorting, dict
    updates and JSON output: the kinds of work the program's ops spend
    their time on.  It calls nothing of the program's.
    """
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 5 + 1) for j in range(n + 1)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    seen: dict = {}
    for i in range(300):
        key = tuple(sorted((i % 5, i % 3, i % 7, i % 11)))
        seen[key] = seen.get(key, 0) + 1
    return json.dumps(sorted(seen.items())), m


def reference_ns() -> int:
    """CPU time of one reference task, with the collector held off."""
    gc.disable()
    try:
        c0 = cpu_ns()
        reference_task()
        return cpu_ns() - c0
    finally:
        gc.enable()


def host_scale(refs: list) -> list:
    """Per-op factors that put CPU times at the speed where REF_NS holds.

    A shared host's speed drifts by 15-25% over tens of seconds, even on
    the CPU clock (other tenants share the core's caches and execution
    units), which moves every op of a run alike.  The reference task runs
    before each op; an op's factor is REF_NS over the median of the
    reference timings around it.  A change to the program moves the ops
    and not the reference task, so it shows in full.
    """
    w = SPEED_WINDOW
    return [REF_NS / statistics.median(refs[max(0, i - w) : i + w + 1])
            for i in range(len(refs))]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_LEN]


def setup(workload: str, seed: int):
    """Import, algebra and monoid construction, and a warm-up pass.

    Returns the seconds it took and the workload's op stream.  Inputs are
    generated lazily, between ops and outside every clock: generating them
    is the benchmark's work, and its cost depends on the seed, not on the
    program.
    """
    import workloads as W

    t0 = cpu_ns()
    for name in [n for n in sys.modules if n == "parteval" or n.startswith("parteval.")]:
        del sys.modules[name]
    pe = importlib.import_module("parteval")
    cli = importlib.import_module("parteval.cli")
    cls = W.WORKLOADS[workload]
    gen = cls(pe, cli, random.Random(f"pevbench:{workload}:{seed}"))
    for argv in cls.WARMUP:
        rc, _, _ = W.cli_call(cli.main, argv)
        if rc not in (0, 1):
            raise RuntimeError(f"warm-up {argv[0]} exited {rc}")
    return (cpu_ns() - t0) / 1e9, W.stream(gen)


def run_op(op, pin):
    """Time one op, then judge it.

    Returns (CPU ns, wall ns, failure reason or None, digest).  `pin` is
    the op's pinned digest, or None to skip the comparison.
    """
    w0 = perf_counter_ns()
    c0 = cpu_ns()
    try:
        rc, out, obj = op.call()
    except Exception as exc:  # the program raised: a failed op, not a benchmark error
        reason = f"raised {type(exc).__name__}: {exc}"
        return cpu_ns() - c0, perf_counter_ns() - w0, reason, None
    cpu = cpu_ns() - c0
    wall = perf_counter_ns() - w0
    d = digest(out)
    try:
        reason = op.judge(rc, out, obj)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is None and pin is not None and pin != d:
        reason = "output bytes differ from the pinned digest"
    return cpu, wall, reason, d


def load_pins(workload: str, seed: int) -> list:
    """Pinned digests of the first ops of a seed's stream, or [] if unpinned."""
    path = PINS / f"{workload}.json"
    if not path.is_file():
        return []
    packed = json.loads(path.read_text()).get(str(seed), "")
    return [packed[i : i + DIGEST_LEN] for i in range(0, len(packed), DIGEST_LEN)]


class Tally:
    def __init__(self, pins):
        self.pins = pins
        self.lat: list = []
        self.failures: list = []

    def run(self, i, op):
        """Run op i; record its CPU time, return its wall time."""
        pin = self.pins[i] if op.pinned and i < len(self.pins) else None
        cpu, wall, reason, _ = run_op(op, pin)
        self.lat.append(cpu)
        if reason is not None:
            self.failures.append((i, op.shape, reason))
        return wall

    def report(self, metrics):
        for i, shape, reason in self.failures[:20]:
            print(f"  FAILED op {i} ({shape}): {reason}")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {UNITS[name]}")


def timed_run(workload: str, seed: int, seconds: int):
    dt, stream = setup(workload, seed)
    # (CPU seconds, index of the op it preceded) of each set-up.
    setups = [(dt, 0)]
    tally = Tally(load_pins(workload, seed))
    refs = []
    # The run lasts `seconds` of wall time spent in ops, however much of
    # it the host steals; the metrics come from the ops' CPU time.
    budget = seconds * 1_000_000_000
    elapsed = 0
    gc.collect()
    for i, op in enumerate(stream):
        refs.append(reference_ns())
        elapsed += tally.run(i, op)
        if elapsed >= budget:
            break
        if elapsed * SETUPS >= budget * len(setups):
            # A fresh import: the stream keeps calling the first one.
            setups.append((setup(workload, seed)[0], i + 1))
            gc.collect()
    n = len(tally.lat)
    scale = host_scale(refs)
    lat = [c * f for c, f in zip(tally.lat, scale)]
    busy = sum(lat)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": n / (busy / 1e9),
        "op_ms_p50": statistics.median(lat) / 1e6,
        "op_ms_p90": statistics.quantiles(lat, n=10)[8] / 1e6,
        "setup_s": statistics.median(dt * scale[min(i, n - 1)] for dt, i in setups),
        "peak_rss_mib": peak_kib / 1024,
        "ok_ratio": (n - len(tally.failures)) / n,
    }
    print(f"{workload} seed {seed}: {n} ops in {elapsed / 1e9:.2f} s of wall time, "
          f"{sum(tally.lat) / 1e9:.2f} s of CPU time "
          f"({n - int(n * 0.9)} beyond p90); {len(setups)} set-ups; "
          f"reference task {statistics.median(refs) / 1e6:.3f} ms "
          f"(times scaled to {REF_NS / 1e6:g} ms)")
    tally.report(metrics)
    return tally, metrics


def traced_run(workload: str, seed: int):
    """Each op of a fixed list runs traced, then again untraced.

    Alternating op by op keeps the two passes under the same machine
    conditions; the traced call comes first, so it is the one that meets
    the program in the state the timed run would.
    """
    import tracing as T

    _, stream = setup(workload, seed)
    ops = list(itertools.islice(stream, TRACE_OPS[workload]))
    pins = load_pins(workload, seed)
    tracer = T.Tracer()
    traced, plain = Tally(pins), Tally(pins)
    gc.collect()
    for i, op in enumerate(ops):
        tracer.install()
        tracer.active = True
        try:
            traced.run(i, op)
        finally:
            tracer.active = False
            tracer.uninstall()
        plain.run(i, op)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(traced.lat) / sum(plain.lat)
    print(f"{workload} seed {seed}: {len(ops)} ops, each traced then untraced "
          f"({sum(traced.lat) / 1e9:.2f} s traced, {sum(plain.lat) / 1e9:.2f} s untraced)")
    traced.report(metrics)
    traced.lat += plain.lat
    traced.failures += plain.failures
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("check-enum", "graph-bar", "dist-lp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "parteval" / "__init__.py").is_file():
        print(f"pevbench: {ROOT / 'src' / 'parteval'} is missing; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.trace:
        tally, metrics = traced_run(args.workload, args.seed)
    else:
        tally, metrics = timed_run(args.workload, args.seed, args.seconds)
    failed = len(tally.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(tally.lat),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
