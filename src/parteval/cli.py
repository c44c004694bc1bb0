"""The `pev` command-line front end.

Five subcommands: `check` decides the partial-evaluation relation
between two expressions, `graph` exports the reduction graph of a
seed, `bar` exports a truncated simplicial complex, `laws` runs the
monad and algebra law suites, and `sosd` cross-checks second-order
stochastic dominance against the linear-programming decision.

Exit codes: 0 = yes, 1 = no, 2 = bad input or limit, 3 = an internal
consistency check failed (a bug, not a property of the input).  All
output is byte-deterministic given the inputs, seed, and limits.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from .bar import build_truncated_complex
from .core import (
    AlgebraInstance,
    NestedExpression,
    check_algebra_laws,
    check_monad_laws,
    functor_apply,
)
from .engine import (
    DEFAULT_FIBER_LIMIT,
    DEFAULT_NODE_CAP,
    enumerate_witnesses,
    reduction_graph,
    validate_witness,
)
from .errors import (
    CarrierMismatch,
    ConditioningUndefined,
    DepthMismatch,
    DimensionMismatch,
    DomainMismatch,
    EnumerationLimitExceeded,
    IndexOutOfRange,
    InvalidDilation,
    MalformedExpression,
    NotComposable,
    PartialFunction,
    PevError,
    PreconditionViolated,
    UnsupportedInstance,
)
from .faults import corrupted_eval, corrupted_mult
from .formats import (
    complex_skeleton_dot,
    complex_to_json,
    detect_instance,
    dumps,
    graph_to_dot,
    graph_to_json,
    law_report_to_json,
    parse_algebra,
    parse_expression,
    witness_to_json,
)
from .instances import DIST, as_fraction, convex_algebra
from .sampling import law_samples
from .stochastics import decide_pev, sosd_1d

DEFAULT_LP_CAP = 400

INSTANCE_KEYS = ("ms", "list", "act", "dist")

# Errors in this tuple are the caller's fault (exit 2); anything else
# derived from PevError signals an internal bug (exit 3).
_INPUT_ERRORS = (
    MalformedExpression,
    DepthMismatch,
    CarrierMismatch,
    PartialFunction,
    EnumerationLimitExceeded,
    UnsupportedInstance,
    NotComposable,
    IndexOutOfRange,
    DimensionMismatch,
    PreconditionViolated,
    ConditioningUndefined,
    InvalidDilation,
    DomainMismatch,
)


@dataclass(frozen=True)
class JobConfig:
    """One resolved job: a command plus everything it needs to run."""

    command: str
    instance: str | None = None
    algebra_spec: dict | None = None
    inputs: tuple[str, ...] = ()
    fiber_limit: int = DEFAULT_FIBER_LIMIT
    node_cap: int = DEFAULT_NODE_CAP
    lp_cap: int = DEFAULT_LP_CAP
    output: str = "text"
    level: int = 2
    samples: int = 200
    seed: int = 0
    corrupt: str | None = None

    _REQUIRED_INPUTS = {"check": 2, "graph": 1, "bar": 1, "laws": 0, "sosd": 2}
    _NEEDS_ALGEBRA = ("check", "graph", "bar", "laws")

    def __post_init__(self):
        if self.command not in self._REQUIRED_INPUTS:
            raise MalformedExpression(f"unknown command {self.command!r}")
        if len(self.inputs) != self._REQUIRED_INPUTS[self.command]:
            raise MalformedExpression(
                f"{self.command} takes {self._REQUIRED_INPUTS[self.command]} "
                f"expression argument(s)"
            )
        for name, value in (
            ("fiber limit", self.fiber_limit),
            ("node cap", self.node_cap),
            ("LP cap", self.lp_cap),
            ("sample count", self.samples),
        ):
            if value < 1:
                raise MalformedExpression(f"{name} must be positive, got {value}")
        if self.command in self._NEEDS_ALGEBRA and self.algebra_spec is None:
            raise MalformedExpression(f"{self.command} needs --alg")
        if not 0 <= self.level <= 2:
            raise MalformedExpression(f"--level must be 0, 1, or 2, got {self.level}")
        if self.output not in ("text", "json", "dot"):
            raise MalformedExpression(f"unknown output format {self.output!r}")


def _load_json(source: str) -> dict:
    """Accept inline JSON, or a path to a JSON file, bare or as @path."""
    try:
        if source.lstrip().startswith("{"):
            return json.loads(source)
        path = source[1:] if source.startswith("@") else source
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedExpression(f"bad JSON in {source!r}: {exc}") from exc
    except OSError as exc:
        raise MalformedExpression(f"cannot read {source!r}: {exc}") from exc


def _algebra_data(value: str) -> dict:
    if value == "nat-add":
        return {"alg": "nat-add"}
    return _load_json(value)


def _load_pair(cfg: JobConfig):
    """Parse two expression files sharing one instance and algebra."""
    p_data = _load_json(cfg.inputs[0])
    q_data = _load_json(cfg.inputs[1])
    key = detect_instance(p_data)
    if detect_instance(q_data) != key:
        raise MalformedExpression("the two expressions use different instances")
    if cfg.instance is not None and cfg.instance != key:
        raise MalformedExpression(
            f"expressions are tagged {key!r}, not {cfg.instance!r}"
        )
    algebra = parse_algebra(cfg.algebra_spec, key)
    p = parse_expression(p_data, algebra.monad, algebra.carrier)
    q = parse_expression(q_data, algebra.monad, algebra.carrier)
    return key, algebra, p, q


def _load_seed(cfg: JobConfig):
    data = _load_json(cfg.inputs[0])
    key = detect_instance(data)
    if cfg.instance is not None and cfg.instance != key:
        raise MalformedExpression(
            f"expression is tagged {key!r}, not {cfg.instance!r}"
        )
    algebra = parse_algebra(cfg.algebra_spec, key)
    return key, algebra, parse_expression(data, algebra.monad, algebra.carrier)


def cmd_check(cfg: JobConfig) -> int:
    key, algebra, p, q = _load_pair(cfg)
    if key == "dist":
        size = len(p.payload) * len(q.payload)
        if size > cfg.lp_cap:
            raise EnumerationLimitExceeded(
                f"LP would have {size} variables, over the cap {cfg.lp_cap}"
            )
        witness = decide_pev(p, q, algebra)
    else:
        hits = enumerate_witnesses(p, q, algebra, limit=cfg.fiber_limit)
        witness = hits[0] if hits else None
    if witness is None:
        print("no partial evaluation")
        return 1
    if not (validate_witness(witness) and witness.source == p and witness.target == q):
        print(f"internal error: witness fails its boundaries: {witness}", file=sys.stderr)
        return 3
    print(dumps(witness_to_json(witness)))
    return 0


def cmd_graph(cfg: JobConfig) -> int:
    _, algebra, seed = _load_seed(cfg)
    graph = reduction_graph(seed, algebra, cfg.fiber_limit, cfg.node_cap)
    if cfg.output == "dot":
        sys.stdout.write(graph_to_dot(graph))
    else:
        print(dumps(graph_to_json(graph)))
    return 0


def cmd_bar(cfg: JobConfig) -> int:
    _, algebra, seed = _load_seed(cfg)
    complex_ = build_truncated_complex(
        seed,
        algebra,
        max_level=cfg.level,
        fiber_limit=cfg.fiber_limit,
        node_cap=cfg.node_cap,
    )
    if not complex_.check_incidence():
        print("internal error: incidence arrays disagree", file=sys.stderr)
        return 3
    if cfg.output == "dot":
        sys.stdout.write(complex_skeleton_dot(complex_))
    else:
        print(dumps(complex_to_json(complex_)))
    return 0


def cmd_laws(cfg: JobConfig) -> int:
    algebra = parse_algebra(cfg.algebra_spec, cfg.instance)
    rng = random.Random(cfg.seed)
    samples = law_samples(algebra, rng, cfg.samples)
    monad = algebra.monad
    if cfg.corrupt == "mult":
        monad = corrupted_mult(monad)
        samples = [NestedExpression(monad, x.depth, x.payload) for x in samples]
        algebra = AlgebraInstance(
            monad, algebra.carrier, f"corrupt-mult({algebra.name})",
            algebra.eval_payload,
        )
    elif cfg.corrupt == "eval":
        algebra = corrupted_eval(algebra)
    monad_report = check_monad_laws(monad, samples)
    algebra_report = check_algebra_laws(algebra, samples)
    passed = monad_report.all_passed and algebra_report.all_passed
    if cfg.output == "json":
        print(
            dumps(
                {
                    "all_passed": passed,
                    "monad": law_report_to_json(monad_report),
                    "algebra": law_report_to_json(algebra_report),
                }
            )
        )
    else:
        print("monad laws:")
        for result in monad_report.results:
            print("  " + result.line())
        print("algebra laws:")
        for result in algebra_report.results:
            print("  " + result.line())
    return 0 if passed else 1


def cmd_sosd(cfg: JobConfig) -> int:
    p_data = _load_json(cfg.inputs[0])
    q_data = _load_json(cfg.inputs[1])
    if detect_instance(p_data) != "dist" or detect_instance(q_data) != "dist":
        raise MalformedExpression("sosd compares two dist expressions")
    p = parse_expression(p_data, DIST)
    q = parse_expression(q_data, DIST)
    sosd_verdict = sosd_1d(p, q)

    def as_point(a):
        return a if isinstance(a, tuple) else (as_fraction(a),)

    p_points = functor_apply(as_point, p)
    q_points = functor_apply(as_point, q)
    size = len(p_points.payload) * len(q_points.payload)
    if size > cfg.lp_cap:
        raise EnumerationLimitExceeded(
            f"LP would have {size} variables, over the cap {cfg.lp_cap}"
        )
    lp_verdict = decide_pev(p_points, q_points, convex_algebra(1)) is not None
    print(f"sosd: {'yes' if sosd_verdict else 'no'}")
    print(f"lp: {'yes' if lp_verdict else 'no'}")
    if sosd_verdict != lp_verdict:
        print("internal error: the two decision routes disagree", file=sys.stderr)
        return 3
    return 0 if sosd_verdict else 1


_DISPATCH = {
    "check": cmd_check,
    "graph": cmd_graph,
    "bar": cmd_bar,
    "laws": cmd_laws,
    "sosd": cmd_sosd,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pev",
        description="Decide, enumerate, and export partial evaluations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def alg_flag(p, required=True):
        p.add_argument(
            "--alg",
            required=required,
            help="algebra: a JSON file, inline JSON, or the shorthand nat-add",
        )

    def instance_flag(p):
        p.add_argument(
            "--instance",
            choices=INSTANCE_KEYS,
            help="assert the instance instead of trusting the envelope",
        )

    check = sub.add_parser("check", help="decide whether p reduces to q")
    check.add_argument("p", help="source expression (file or inline JSON)")
    check.add_argument("q", help="target expression (file or inline JSON)")
    alg_flag(check)
    instance_flag(check)
    check.add_argument("--fiber-limit", type=int, default=DEFAULT_FIBER_LIMIT)
    check.add_argument("--lp-cap", type=int, default=DEFAULT_LP_CAP)

    graph = sub.add_parser("graph", help="export the reduction graph of a seed")
    graph.add_argument("seed", help="seed expression (file or inline JSON)")
    alg_flag(graph)
    instance_flag(graph)
    graph.add_argument("--fiber-limit", type=int, default=DEFAULT_FIBER_LIMIT)
    graph.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    graph.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")

    bar = sub.add_parser("bar", help="export a truncated simplicial complex")
    bar.add_argument("seed", help="seed expression (file or inline JSON)")
    alg_flag(bar)
    instance_flag(bar)
    bar.add_argument("--level", type=int, default=2, help="truncation level, 0 to 2")
    bar.add_argument("--fiber-limit", type=int, default=DEFAULT_FIBER_LIMIT)
    bar.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    bar.add_argument("--dot", action="store_true", help="emit the 1-skeleton as DOT")

    laws = sub.add_parser("laws", help="run the monad and algebra law suites")
    laws.add_argument("instance", choices=INSTANCE_KEYS)
    alg_flag(laws)
    laws.add_argument("--samples", type=int, default=200)
    laws.add_argument("--seed", type=int, default=0)
    laws.add_argument("--json", action="store_true")
    laws.add_argument(
        "--corrupt",
        choices=("mult", "eval"),
        help="swap in a faulty flattening or evaluation and watch the laws fail",
    )

    sosd = sub.add_parser(
        "sosd", help="cross-check stochastic dominance against the LP decision"
    )
    sosd.add_argument("p", help="first 1-D distribution (file or inline JSON)")
    sosd.add_argument("q", help="second 1-D distribution (file or inline JSON)")
    sosd.add_argument("--lp-cap", type=int, default=DEFAULT_LP_CAP)

    return parser


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    if args.command == "check":
        return JobConfig(
            command="check",
            instance=args.instance,
            algebra_spec=_algebra_data(args.alg),
            inputs=(args.p, args.q),
            fiber_limit=args.fiber_limit,
            lp_cap=args.lp_cap,
        )
    if args.command == "graph":
        return JobConfig(
            command="graph",
            instance=args.instance,
            algebra_spec=_algebra_data(args.alg),
            inputs=(args.seed,),
            fiber_limit=args.fiber_limit,
            node_cap=args.node_cap,
            output="dot" if args.dot else "json",
        )
    if args.command == "bar":
        return JobConfig(
            command="bar",
            instance=args.instance,
            algebra_spec=_algebra_data(args.alg),
            inputs=(args.seed,),
            level=args.level,
            fiber_limit=args.fiber_limit,
            node_cap=args.node_cap,
            output="dot" if args.dot else "json",
        )
    if args.command == "laws":
        return JobConfig(
            command="laws",
            instance=args.instance,
            algebra_spec=_algebra_data(args.alg),
            samples=args.samples,
            seed=args.seed,
            output="json" if args.json else "text",
            corrupt=args.corrupt,
        )
    return JobConfig(
        command="sosd",
        inputs=(args.p, args.q),
        lp_cap=args.lp_cap,
    )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return _DISPATCH[config.command](config)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PevError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
