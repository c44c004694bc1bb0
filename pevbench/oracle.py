"""Reference semantics written without parteval, used to judge its answers.

Nothing here imports parteval.  Expressions are read from the CLI's JSON
envelopes (or from payload tuples) into plain canonical forms:

* a depth-1 multiset is a sorted tuple of atoms, repeats spelled out;
  depth k+1 is a sorted tuple of depth-k forms;
* a depth-k list is a tuple of depth-(k-1) forms;
* a distribution is a dict from point tuples to Fraction weights.

The evaluators (sum, table fold, cyclic fold, self action, barycenter)
and the partition searches are small brute-force versions of what the
library does, so a wrong library answer cannot be confirmed by the
library itself.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# Algebras as plain folds over a block (a tuple of atoms).


def cyclic_fold(n: int):
    def fold(block):
        return sum(block) % n

    return fold


def table_fold(op, identity):
    def fold(block):
        acc = identity
        for a in block:
            acc = op[acc][a]
        return acc

    return fold


# ---------------------------------------------------------------------------
# JSON envelopes to canonical forms.


def ms_canon(data, depth: int):
    """Body of an {"ms": ...} envelope at the given depth."""
    if depth == 0:
        return data
    items = []
    for child, mult in data:
        items.extend([ms_canon(child, depth - 1)] * mult)
    return tuple(sorted(items))


def list_canon(data, depth: int):
    if depth == 0:
        return data
    return tuple(list_canon(c, depth - 1) for c in data)


def ms_envelope(atoms) -> dict:
    counts = Counter(atoms)
    return {"ms": [[a, counts[a]] for a in sorted(counts)]}


def frac(pair) -> Fraction:
    return Fraction(pair[0], pair[1])


def dist_canon(data) -> dict:
    """Body of a depth-1 {"dist": ...} envelope: point -> weight."""
    out: dict = {}
    for pt, w in data:
        key = tuple(frac(c) for c in pt)
        out[key] = out.get(key, Fraction(0)) + frac(w)
    return out


def dist_envelope(dist: dict) -> dict:
    return {
        "dist": [
            [[[c.numerator, c.denominator] for c in pt], [w.numerator, w.denominator]]
            for pt, w in sorted(dist.items())
        ]
    }


def barycenter(dist: dict) -> tuple:
    dim = len(next(iter(dist)))
    return tuple(sum((pt[i] * w for pt, w in dist.items()), Fraction(0)) for i in range(dim))


def dist_merge(pairs) -> dict:
    out: dict = {}
    for pt, w in pairs:
        out[pt] = out.get(pt, Fraction(0)) + w
    return out


# ---------------------------------------------------------------------------
# Partition searches.


def set_partitions(items):
    """Every partition of a sequence into nonempty blocks (Bell many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def ms_fiber(atoms) -> set:
    """Distinct depth-2 multiset forms flattening to the atoms."""
    return {
        tuple(sorted(tuple(sorted(b)) for b in part))
        for part in set_partitions(sorted(atoms))
    }


def ms_targets(atoms, fold) -> Counter:
    """How many distinct fiber elements evaluate to each target."""
    return Counter(
        tuple(sorted(fold(b) for b in value)) for value in ms_fiber(atoms)
    )


def ms_reachable(atoms, target, fold) -> bool:
    """Is there a partition of atoms whose block folds are the target multiset?"""

    @lru_cache(maxsize=None)
    def search(rest, need):
        if not rest:
            return not need
        if len(rest) < len(need) or not need:
            return False
        first, others = rest[0], rest[1:]
        tried = set()
        for r in range(len(others) + 1):
            for picked in itertools.combinations(range(len(others)), r):
                block = (first,) + tuple(others[i] for i in picked)
                if block in tried:
                    continue
                tried.add(block)
                v = fold(block)
                if v in need:
                    left = list(need)
                    left.remove(v)
                    remaining = tuple(
                        others[i] for i in range(len(others)) if i not in picked
                    )
                    if search(remaining, tuple(left)):
                        return True
        return False

    return search(tuple(sorted(atoms)), tuple(sorted(target)))


def list_splits(seq):
    """Every splitting of a sequence into contiguous nonempty blocks."""
    n = len(seq)
    for mask in range(1 << max(n - 1, 0)):
        blocks, start = [], 0
        for gap in range(n - 1):
            if mask >> gap & 1:
                blocks.append(tuple(seq[start : gap + 1]))
                start = gap + 1
        blocks.append(tuple(seq[start:]))
        yield tuple(blocks)


def list_targets(seq, fold) -> Counter:
    return Counter(tuple(fold(b) for b in split) for split in list_splits(seq))


def list_reachable(seq, target, fold) -> bool:
    """Left-to-right DP over contiguous block boundaries."""
    n, m = len(seq), len(target)
    reach = {(0, 0)}
    for i in range(n):
        for j in range(m):
            if (i, j) not in reach:
                continue
            for end in range(i + 1, n + 1):
                if fold(seq[i:end]) == target[j]:
                    reach.add((end, j + 1))
    return (n, m) in reach


# ---------------------------------------------------------------------------
# Judging CLI output.  Each checker returns None when the output is right
# and a short reason otherwise.

NO_OUTPUT = "no partial evaluation\n"


def judge_check(rc, out, expect_yes, reader, source, target, flatten, evaluate):
    """Shared shape of `pev check`: witness JSON on yes, a fixed line on no."""
    if not expect_yes:
        if rc != 1 or out != NO_OUTPUT:
            return f"expected no, got exit {rc}"
        return None
    if rc != 0:
        return f"expected a witness, got exit {rc}"
    body = json.loads(out)["witness"]
    value = reader(body["value"], 2)
    if reader(body["source"], 1) != source or reader(body["target"], 1) != target:
        return "witness boundaries are not the inputs"
    if flatten(value) != source:
        return "witness does not flatten to the source"
    if evaluate(value) != target:
        return "witness does not evaluate to the target"
    return None


def read_ms(env, depth):
    if env.get("depth", 1) != depth:
        raise ValueError("unexpected depth")
    return ms_canon(env["ms"], depth)


def read_list(env, depth):
    if env.get("depth", 1) != depth:
        raise ValueError("unexpected depth")
    return list_canon(env["list"], depth)


def read_act(env, depth):
    if env.get("depth", 1) != depth:
        raise ValueError("unexpected depth")
    body, out = env["act"], []
    for _ in range(depth):
        out.append(body["g"])
        body = body["x"]
    return tuple(out) + (body,)


def ms_flatten(value):
    return tuple(sorted(a for block in value for a in block))


def ms_eval(fold):
    return lambda value: tuple(sorted(fold(block) for block in value))


def list_flatten(value):
    return tuple(a for block in value for a in block)


def list_eval(fold):
    return lambda value: tuple(fold(block) for block in value)


def act_flatten(n):
    return lambda value: ((value[0] + value[1]) % n, value[2])


def act_eval(n):
    return lambda value: (value[0], (value[1] + value[2]) % n)


def read_dist(env, depth):
    if env.get("depth", 1) != depth:
        raise ValueError("unexpected depth")
    if depth == 1:
        return dist_canon(env["dist"])
    return [(dist_canon(inner), frac(w)) for inner, w in env["dist"]]


def dist_flatten(value):
    return dist_merge(
        (pt, w * v) for inner, w in value for pt, v in inner.items()
    )


def dist_eval(value):
    return dist_merge((barycenter(inner), w) for inner, w in value)


_LAW_LINE = re.compile(r"  PASS ([a-z-]+) \((\d+) values\)")


def judge_laws(rc, out, samples):
    """`pev laws` on a lawful algebra: every law passes on the right count."""
    if rc != 0:
        return f"laws exit {rc}"
    lines = out.splitlines()
    if len(lines) != 7 or lines[0] != "monad laws:" or lines[4] != "algebra laws:":
        return "unexpected laws report layout"
    expected = {
        "associativity": samples // 3,
        "right-unit": samples,
        "left-unit": samples,
        "eval-mult": (samples + 1) // 3,
    }
    seen = []
    for line in lines[1:4] + lines[5:]:
        m = _LAW_LINE.fullmatch(line)
        if m is None:
            return f"law line fails: {line!r}"
        law, checked = m.group(1), int(m.group(2))
        seen.append(law)
        if law in expected and checked != expected[law]:
            return f"{law} checked {checked} values, expected {expected[law]}"
        if checked < 1:
            return f"{law} checked nothing"
    if seen != ["associativity", "right-unit", "left-unit", "eval-unit", "eval-mult"]:
        return "laws out of order"
    return None


def judge_graph_nodes_edges(nodes, edges, seed, total_of, total_node, seed_targets):
    """Invariants of a reduction graph given as canonical nodes and edges.

    nodes: list of canonical depth-1 forms; edges: (u, v, count) by index.
    """
    if len(set(nodes)) != len(nodes):
        return "duplicate nodes"
    index = {n: i for i, n in enumerate(nodes)}
    if seed not in index or total_node not in index:
        return "seed or fully evaluated node missing"
    total = total_of(seed)
    if any(total_of(n) != total for n in nodes):
        return "a node breaks the total evaluation law"
    succ: dict = {}
    for u, v, c in edges:
        if not (0 <= u < len(nodes) and 0 <= v < len(nodes)) or c < 1:
            return "bad edge"
        if v in succ.setdefault(u, {}):
            return "duplicate edge"
        succ[u][v] = c
    t = index[total_node]
    for i in range(len(nodes)):
        if i not in succ.get(i, {}) or t not in succ.get(i, {}):
            return "a node lacks its self-loop or its total edge"
    s = index[seed]
    got = Counter({nodes[v]: c for v, c in succ.get(s, {}).items()})
    if got != seed_targets:
        return "seed out-edges differ from the partition oracle"
    reached, frontier = {s}, [s]
    while frontier:
        u = frontier.pop()
        for v in succ.get(u, {}):
            if v not in reached:
                reached.add(v)
                frontier.append(v)
    if len(reached) != len(nodes):
        return "unreachable nodes"
    return None


_DOT_NODE = re.compile(r'  "([^"]*)";')
_DOT_EDGE = re.compile(r'  "([^"]*)" -> "([^"]*)" \[label=(\d+)\];')


def parse_dot(text, parse_label):
    lines = text.split("\n")
    if lines[0] != "digraph reduction {" or lines[-2:] != ["}", ""]:
        raise ValueError("not a reduction digraph")
    nodes, edges, index = [], [], {}
    for line in lines[1:-2]:
        m = _DOT_NODE.fullmatch(line)
        if m:
            index[m.group(1)] = len(nodes)
            nodes.append(parse_label(m.group(1)))
            continue
        m = _DOT_EDGE.fullmatch(line)
        if m is None:
            raise ValueError(f"bad DOT line {line!r}")
        edges.append((index[m.group(1)], index[m.group(2)], int(m.group(3))))
    return nodes, edges


def read_graph(out, dot, read, label):
    """Nodes (canonical forms) and (u, v, count) edges of `pev graph` output."""
    if dot:
        return parse_dot(out, label)
    data = json.loads(out)
    return [read(n, 1) for n in data["nodes"]], [tuple(e) for e in data["edges"]]


def ms_label(text):
    inner = text[1:-1]
    return tuple(sorted(int(a) for a in inner.split(", "))) if inner else ()


def list_label(text):
    inner = text[1:-1]
    return tuple(int(a) for a in inner.split(", ")) if inner else ()


def judge_bar(rc, out, seed, fold):
    """`pev bar --level 2` over nat-add: recompute every face and degeneracy."""
    if rc != 0:
        return f"bar exit {rc}"
    data = json.loads(out)
    if data["max_level"] != 2 or len(data["levels"]) != 3:
        return "unexpected complex shape"
    levels = [
        [read_ms(env, lvl + 1) for env in level]
        for lvl, level in enumerate(data["levels"])
    ]
    index = [{x: i for i, x in enumerate(level)} for level in levels]
    if any(len(ix) != len(level) for ix, level in zip(index, levels)):
        return "duplicate cells"
    total = fold(seed)
    if seed not in index[0] or any(fold(x) != total for x in levels[0]):
        return "vertices break the total evaluation law"

    def sorted_tuple(xs):
        return tuple(sorted(xs))

    faces1 = [
        (index[0].get(ms_flatten(x)), index[0].get(ms_eval(fold)(x)))
        for x in levels[1]
    ]
    faces2 = [
        (
            index[1].get(sorted_tuple(b for inner in x for b in inner)),
            index[1].get(sorted_tuple(ms_flatten(inner) for inner in x)),
            index[1].get(sorted_tuple(ms_eval(fold)(inner) for inner in x)),
        )
        for x in levels[2]
    ]
    degs0 = [(index[1].get(sorted_tuple((a,) for a in x)),) for x in levels[0]]
    degs1 = [
        (
            index[2].get(sorted_tuple((b,) for b in x)),
            index[2].get(sorted_tuple(sorted_tuple((a,) for a in b) for b in x)),
        )
        for x in levels[1]
    ]
    recorded_faces = [[tuple(r) for r in lvl] for lvl in data["faces"]]
    recorded_degs = [[tuple(r) for r in lvl] for lvl in data["degeneracies"]]
    if recorded_faces != [[], faces1, faces2]:
        return "face table differs from recomputed faces"
    if recorded_degs != [degs0, degs1, []]:
        return "degeneracy table differs from recomputed degeneracies"
    return None


def full_reduction_graph(seed, targets_of):
    """Brute-force BFS closure: canonical node -> Counter of targets."""
    graph, frontier = {}, [seed]
    while frontier:
        node = frontier.pop()
        if node in graph:
            continue
        graph[node] = targets_of(node)
        frontier.extend(t for t in graph[node] if t not in graph)
    return graph
