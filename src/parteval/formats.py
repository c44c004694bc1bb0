"""JSON and DOT codecs for the command-line surface.

One self-describing envelope per instance: {"ms": ...}, {"list": ...},
{"act": ...}, {"dist": ...}, each optionally carrying "depth" for
nested values (default 1).  Rational numbers in weight or coordinate
position always serialize as [numerator, denominator] pairs and never
as decimals; parsing also accepts plain integers and "n/d" strings
there.  Distribution outcomes may be point arrays, string labels, or
integers.

All serializers emit sorted keys and fixed separators, so equal values
produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bar import TruncatedComplex
from .core import AlgebraInstance, LawReport, NestedExpression
from .engine import ReductionGraph, Witness, witness_from_value
from .errors import MalformedExpression, UnsupportedInstance
from .instances import (
    DIST,
    LIST,
    MULTISET,
    ActionMonad,
    Monoid,
    as_fraction,
    commutative_monoid_algebra,
    convex_algebra,
    monoid_algebra,
    nat_add_algebra,
    self_action_algebra,
)

ENVELOPE_KEYS = ("ms", "list", "act", "dist")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rational_to_json(v) -> list:
    f = Fraction(v)
    return [f.numerator, f.denominator]


def _label_to_json(a):
    """Atoms in multiset/list/action position: naturals or labels."""
    if isinstance(a, bool):
        raise MalformedExpression("booleans are not valid atoms")
    if isinstance(a, int):
        return a
    if isinstance(a, Fraction) and a.denominator == 1:
        return int(a)
    if isinstance(a, str):
        return a
    raise MalformedExpression(f"atom {a!r} has no file representation here")


def _outcome_to_json(a):
    """Atoms in distribution position: points, labels, or integers."""
    if isinstance(a, tuple):
        return [_rational_to_json(c) for c in a]
    if isinstance(a, bool):
        raise MalformedExpression("booleans are not valid atoms")
    if isinstance(a, str):
        return a
    if isinstance(a, int):
        return a
    if isinstance(a, Fraction) and a.denominator == 1:
        return int(a)
    raise MalformedExpression(
        f"outcome {a!r} does not round-trip; use a 1-dimensional point"
    )


def _label_from_json(v):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise MalformedExpression(f"expected an integer or label atom: {v!r}")
    return v


def _outcome_from_json(v):
    if isinstance(v, list):
        return tuple(as_fraction(c) for c in v)
    if isinstance(v, bool):
        raise MalformedExpression("booleans are not valid atoms")
    if isinstance(v, (int, str)):
        return v
    raise MalformedExpression(f"bad distribution outcome: {v!r}")


def envelope_key(monad) -> str:
    if monad == MULTISET:
        return "ms"
    if monad == LIST:
        return "list"
    if monad == DIST:
        return "dist"
    if isinstance(monad, ActionMonad):
        return "act"
    raise UnsupportedInstance(f"{monad.tag} has no file format")


def _payload_to_json(monad, payload, depth):
    if monad == MULTISET:
        if depth == 0:
            return _label_to_json(payload)
        return [
            [_payload_to_json(monad, child, depth - 1), m] for child, m in payload
        ]
    if monad == LIST:
        if depth == 0:
            return _label_to_json(payload)
        return [_payload_to_json(monad, child, depth - 1) for child in payload]
    if monad == DIST:
        if depth == 0:
            return _outcome_to_json(payload)
        return [
            [_payload_to_json(monad, child, depth - 1), _rational_to_json(w)]
            for child, w in payload
        ]
    if isinstance(monad, ActionMonad):
        if depth == 0:
            return _label_to_json(payload)
        g, child = payload
        return {"g": _label_to_json(g), "x": _payload_to_json(monad, child, depth - 1)}
    raise UnsupportedInstance(f"{monad.tag} has no file format")


def _payload_from_json(monad, data, depth):
    if monad == MULTISET:
        if depth == 0:
            return _label_from_json(data)
        if not isinstance(data, list):
            raise MalformedExpression("multiset body must be an array of [child, mult]")
        pairs = []
        for entry in data:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise MalformedExpression(f"bad multiset entry: {entry!r}")
            child, m = entry
            if isinstance(m, bool) or not isinstance(m, int):
                raise MalformedExpression(f"multiplicity must be an integer: {m!r}")
            pairs.append((_payload_from_json(monad, child, depth - 1), m))
        return MULTISET.bag(pairs, depth - 1)
    if monad == LIST:
        if depth == 0:
            return _label_from_json(data)
        if not isinstance(data, list):
            raise MalformedExpression("list body must be an array")
        return tuple(_payload_from_json(monad, c, depth - 1) for c in data)
    if monad == DIST:
        if depth == 0:
            return _outcome_from_json(data)
        if not isinstance(data, list):
            raise MalformedExpression("dist body must be an array of [outcome, weight]")
        pairs = []
        for entry in data:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise MalformedExpression(f"bad distribution entry: {entry!r}")
            child, w = entry
            pairs.append((_payload_from_json(monad, child, depth - 1), as_fraction(w)))
        return DIST.mix(pairs, depth - 1)
    if isinstance(monad, ActionMonad):
        if depth == 0:
            return _label_from_json(data)
        if not (isinstance(data, dict) and set(data) == {"g", "x"}):
            raise MalformedExpression("action body must be {\"g\": ..., \"x\": ...}")
        return (
            _label_from_json(data["g"]),
            _payload_from_json(monad, data["x"], depth - 1),
        )
    raise UnsupportedInstance(f"{monad.tag} has no file format")


def expression_to_json(x: NestedExpression) -> dict:
    out = {envelope_key(x.monad): _payload_to_json(x.monad, x.payload, x.depth)}
    if x.depth != 1:
        out["depth"] = x.depth
    return out


def detect_instance(data: dict) -> str:
    if not isinstance(data, dict):
        raise MalformedExpression("expression files hold a JSON object")
    keys = [k for k in ENVELOPE_KEYS if k in data]
    if len(keys) != 1:
        raise MalformedExpression(
            f"expected exactly one of {', '.join(ENVELOPE_KEYS)}; got {sorted(data)}"
        )
    return keys[0]


def parse_expression(data: dict, monad, carrier=None) -> NestedExpression:
    key = detect_instance(data)
    if key != envelope_key(monad):
        raise MalformedExpression(
            f"expression is tagged {key!r} but the context expects "
            f"{envelope_key(monad)!r}"
        )
    depth = data.get("depth", 1)
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise MalformedExpression(f"bad depth: {depth!r}")
    payload = _payload_from_json(monad, data[key], depth)
    if monad == DIST:
        total = sum((w for _, w in payload), Fraction(0))
        if total != 1:
            raise MalformedExpression(f"distribution weights sum to {total}, not 1")
    monad.check_payload(payload, depth, carrier)
    return NestedExpression(monad, depth, payload)


# ---------------------------------------------------------------------------
# Algebra descriptors.


def _monoid_from_json(spec: dict, default_name: str) -> Monoid:
    if not isinstance(spec, dict):
        raise MalformedExpression("monoid spec must be an object")
    for field in ("elements", "identity", "op"):
        if field not in spec:
            raise MalformedExpression(f"monoid spec is missing {field!r}")
    elements = [_label_from_json(e) for e in spec["elements"]]
    identity = _label_from_json(spec["identity"])
    op = spec["op"]
    if not (isinstance(op, list) and len(op) == len(elements)):
        raise MalformedExpression("op must be a square matrix over the elements")
    table = {}
    for row_el, row in zip(elements, op):
        if not (isinstance(row, list) and len(row) == len(elements)):
            raise MalformedExpression("op must be a square matrix over the elements")
        for col_el, value in zip(elements, row):
            table[(row_el, col_el)] = _label_from_json(value)
    return Monoid(spec.get("name", default_name), elements, table, identity)


def parse_algebra(data: dict, instance_key: str) -> AlgebraInstance:
    """Build the algebra named by an {"alg": ...} object for an instance."""
    if not isinstance(data, dict) or "alg" not in data:
        raise MalformedExpression("algebra files hold {\"alg\": ...}")
    spec = data["alg"]
    if spec == "nat-add":
        if instance_key != "ms":
            raise MalformedExpression("nat-add is a multiset algebra")
        return nat_add_algebra()
    if isinstance(spec, dict) and set(spec) == {"convex"}:
        body = spec["convex"]
        if not (isinstance(body, dict) and isinstance(body.get("dim"), int)) or isinstance(
            body.get("dim"), bool
        ) or body["dim"] < 1:
            raise MalformedExpression("convex algebras need a positive integer dim")
        if instance_key != "dist":
            raise MalformedExpression("convex algebras evaluate distributions")
        return convex_algebra(body["dim"])
    if isinstance(spec, dict) and set(spec) == {"table"}:
        if instance_key != "ms":
            raise MalformedExpression("table algebras fold multisets")
        return commutative_monoid_algebra(_monoid_from_json(spec["table"], "table"))
    if isinstance(spec, dict) and set(spec) == {"cayley"}:
        monoid = _monoid_from_json(spec["cayley"], "cayley")
        if instance_key == "list":
            return monoid_algebra(monoid)
        if instance_key == "act":
            return self_action_algebra(monoid)
        raise MalformedExpression("cayley algebras serve list or act instances")
    raise MalformedExpression(f"unknown algebra spec: {spec!r}")


# ---------------------------------------------------------------------------
# Structured outputs.


def witness_to_json(w: Witness) -> dict:
    return {
        "witness": {
            "instance": envelope_key(w.algebra.monad),
            "algebra": w.algebra.name,
            "value": expression_to_json(w.value),
            "source": expression_to_json(w.source),
            "target": expression_to_json(w.target),
        }
    }


def parse_witness(data: dict, algebra: AlgebraInstance) -> Witness:
    """Rebuild and re-validate a serialized witness."""
    if not isinstance(data, dict) or "witness" not in data:
        raise MalformedExpression("witness files hold {\"witness\": ...}")
    body = data["witness"]
    value = parse_expression(body["value"], algebra.monad)
    w = witness_from_value(value, algebra)
    for field, expected in (("source", w.source), ("target", w.target)):
        if field in body and parse_expression(body[field], algebra.monad) != expected:
            raise MalformedExpression(f"witness {field} does not match its value")
    return w


def graph_to_json(g: ReductionGraph) -> dict:
    index = {node: i for i, node in enumerate(g.nodes)}
    return {
        "algebra": g.algebra.name,
        "nodes": [expression_to_json(n) for n in g.nodes],
        "edges": [[index[u], index[v], count] for u, v, count in g.edges],
    }


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: ReductionGraph) -> str:
    label = {node: _dot_quote(str(node)) for node in g.nodes}
    lines = ["digraph reduction {"]
    lines.extend(f"  {label[node]};" for node in g.nodes)
    for u, v, count in g.edges:
        lines.append(f"  {label[u]} -> {label[v]} [label={count}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def complex_to_json(c: TruncatedComplex) -> dict:
    return {
        "algebra": c.algebra.name,
        "max_level": c.max_level,
        "levels": [
            [expression_to_json(x) for x in level] for level in c.levels
        ],
        "faces": [[list(row) for row in lvl] for lvl in c.faces],
        "degeneracies": [[list(row) for row in lvl] for lvl in c.degeneracies],
    }


def complex_skeleton_dot(c: TruncatedComplex) -> str:
    """The 1-skeleton: vertices and edges with multiplicity labels."""
    lines = ["digraph skeleton {"]
    for node in c.levels[0]:
        lines.append(f"  {_dot_quote(str(node))};")
    if c.max_level >= 1:
        counts: dict = {}
        for row in c.faces[1]:
            counts[(row[0], row[1])] = counts.get((row[0], row[1]), 0) + 1
        for (src, tgt), count in sorted(counts.items()):
            lines.append(
                f"  {_dot_quote(str(c.levels[0][src]))} -> "
                f"{_dot_quote(str(c.levels[0][tgt]))} [label={count}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def law_report_to_json(report: LawReport) -> dict:
    return {
        "all_passed": report.all_passed,
        "results": [
            {
                "law": r.law,
                "passed": r.passed,
                "checked": r.checked,
                "counterexample": None
                if r.counterexample is None
                else str(r.counterexample),
            }
            for r in report.results
        ],
    }
