"""Partial-evaluation witnesses and the rewriting structure they induce.

A witness that p partially evaluates to q is a doubly nested value k:
flattening k gives back p, while evaluating the inner containers gives
q.  Intuitively k records how p's terms were grouped and each group
replaced by its result.  Witnesses compose through three-layer fillers,
and enumerating all witnesses out of an expression yields a reduction
graph whose abstract-rewriting properties can be checked directly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass

from .core import (
    AlgebraInstance,
    NestedExpression,
    atom_key,
    eta_at,
    ev_under,
    mu_at,
)
from .errors import (
    EnumerationLimitExceeded,
    FillerNotFound,
    InvalidWitness,
    NotComposable,
    UnsupportedInstance,
)
from .instances import DIST, LIST, MULTISET, TERMINAL, ActionMonad

DEFAULT_FIBER_LIMIT = 10
DEFAULT_NODE_CAP = 10_000
DEFAULT_FILLER_LIMIT = 10_000


@dataclass(frozen=True)
class Witness:
    """Evidence that `source` partially evaluates to `target`.

    value is the depth-2 expression with mu(value) == source and
    (evaluate under one layer)(value) == target.
    """

    value: NestedExpression
    source: NestedExpression
    target: NestedExpression
    algebra: AlgebraInstance

    def __str__(self):
        return f"{self.source} -> {self.target} via {self.value}"


# Optional audit trail: tests can collect every witness the library
# constructs and re-verify global laws over the whole batch.  Off by
# default, not thread safe, never used by library code itself.
_audit_log: list[Witness] | None = None


@contextmanager
def audit_witnesses():
    global _audit_log
    previous = _audit_log
    _audit_log = []
    try:
        yield _audit_log
    finally:
        _audit_log = previous


def _record(w: Witness) -> Witness:
    if _audit_log is not None:
        _audit_log.append(w)
    return w


def identity_witness(p: NestedExpression, algebra: AlgebraInstance) -> Witness:
    """The do-nothing witness: every atom becomes its own group."""
    _require_depth1(p, algebra)
    return _record(Witness(eta_at(p, 1), p, p, algebra))


def total_evaluation_witness(p: NestedExpression, algebra: AlgebraInstance) -> Witness:
    """The all-at-once witness: one group holding everything."""
    _require_depth1(p, algebra)
    target = algebra.total_target(algebra.eval(p))
    return _record(Witness(eta_at(p, 0), p, target, algebra))


def validate_witness(w: Witness) -> bool:
    """Check both boundary equations by direct computation."""
    if w.value.monad != w.algebra.monad or w.value.depth != 2:
        return False
    if w.source.depth != 1 or w.target.depth != 1:
        return False
    return mu_at(w.value, 0) == w.source and ev_under(w.value, w.algebra, 1) == w.target


def witness_from_value(
    value: NestedExpression, algebra: AlgebraInstance
) -> Witness:
    """Wrap a depth-2 value as the witness of its own boundaries."""
    if value.depth != 2 or value.monad != algebra.monad:
        raise InvalidWitness("expected a depth-2 value of the algebra's instance")
    w = Witness(value, mu_at(value, 0), ev_under(value, algebra, 1), algebra)
    return _record(w)


def enumerate_witnesses(
    p: NestedExpression,
    q: NestedExpression,
    algebra: AlgebraInstance,
    limit: int = DEFAULT_FIBER_LIMIT,
) -> list[Witness]:
    """All witnesses from p to q, in canonical order.

    Works on the instances with finite fibers (multiset, list, action,
    terminal).  The search is directed at q: multisets build only the
    partitions whose blocks evaluate to values q still needs, lists cut
    left to right so that block j folds to q's j-th atom, and the other
    instances filter their small fibers.  `limit` caps the size of p for
    multisets and lists.  Distributions have infinitely many candidate
    groupings; UnsupportedInstance points the caller at the LP decision
    procedure.
    """
    _require_depth1(p, algebra)
    _require_depth1(q, algebra)
    monad = algebra.monad
    return [
        _record(Witness(NestedExpression(monad, 2, payload), p, q, algebra))
        for payload in monad.mu_fiber_to(p.payload, q.payload, algebra.eval_payload, limit)
    ]


def check_total_evaluation_law(w: Witness) -> bool:
    """Source and target of a valid witness evaluate to the same result."""
    if not validate_witness(w):
        raise InvalidWitness(f"boundary equations fail for {w}")
    return w.algebra.eval(w.source) == w.algebra.eval(w.target)


# ---------------------------------------------------------------------------
# Composition via fillers.
#
# Composing k : p -> q with h : q -> r means producing a triple-nested
# value a whose outer flattening is k.value and whose twice-nested
# evaluation is h.value; flattening a's inner layers then yields the
# composite witness value.  Each enumerable instance admits a canonical
# such a, built by matching k's groups against the slots of h's groups.


def compose_witnesses(first: Witness, second: Witness) -> Witness:
    """Composite witness first.source -> second.target."""
    _require_composable(first, second)
    monad = first.algebra.monad
    if monad == DIST:
        from .stochastics import compose_dist_witnesses

        return compose_dist_witnesses(first, second)
    filler = canonical_filler(first, second)
    rho = mu_at(filler, 1)
    composite = Witness(rho, first.source, second.target, first.algebra)
    if not validate_witness(composite):
        raise FillerNotFound(f"composite of {first} and {second} fails its boundaries")
    return _record(composite)


def canonical_filler(first: Witness, second: Witness) -> NestedExpression:
    """The canonical depth-3 filler over an enumerable instance.

    Satisfies: flattening the outer two layers gives first.value, and
    evaluating under two layers gives second.value.
    """
    _require_composable(first, second)
    monad = first.algebra.monad
    if monad == MULTISET:
        n_outer, groups = _multiset_groups(first, second)
        assignment: dict = {i: [] for i in range(n_outer)}
        for _, blocks, slots in groups:
            for blk, slot in zip(blocks, slots):
                assignment[slot[0]].append(blk)
        return _multiset_filler_from_assignment(assignment)
    if monad == LIST:
        return _list_filler(first, second)
    if isinstance(monad, ActionMonad):
        h1, (l1, x) = first.value.payload
        m, (l2, y) = second.value.payload
        return NestedExpression(monad, 3, (m, (l2, (l1, x))))
    if monad == TERMINAL:
        return NestedExpression(TERMINAL, 3, TERMINAL.POINT)
    raise UnsupportedInstance(f"no filler enumeration for {monad.tag}")


def enumerate_fillers(
    first: Witness, second: Witness, limit: int = DEFAULT_FILLER_LIMIT
) -> list[NestedExpression]:
    """All value-preserving matchings between the two witnesses.

    Multisets admit one filler per family of bijections between
    equal-result groups, so repeated groups yield repeated (equal)
    fillers; lists, actions, and the terminal instance are rigid and
    give exactly one.  Bijections that differ only by swapping equal
    blocks give equal fillers: each such filler is built once and
    repeated as often as the bijections that give it, so the list has
    one entry per bijection (in no promised order).
    """
    _require_composable(first, second)
    monad = first.algebra.monad
    if monad == MULTISET:
        n_outer, groups = _multiset_groups(first, second)
        count = 1
        for _, blocks, _ in groups:
            for i in range(2, len(blocks) + 1):
                count *= i
            if count > limit:
                raise EnumerationLimitExceeded(
                    f"filler count exceeds {limit}; tighten the inputs"
                )
        out = []
        per_group = [
            list(dict.fromkeys(itertools.permutations(blocks)))
            for _, blocks, _ in groups
        ]
        repeats = count // math.prod(len(orders) for orders in per_group)
        for combo in itertools.product(*per_group):
            assignment: dict = {i: [] for i in range(n_outer)}
            for (_, _, slots), blocks in zip(groups, combo):
                for blk, slot in zip(blocks, slots):
                    assignment[slot[0]].append(blk)
            out.extend([_multiset_filler_from_assignment(assignment)] * repeats)
        return out
    return [canonical_filler(first, second)]


def _multiset_groups(first: Witness, second: Witness):
    """Group first's blocks and second's element slots by shared value.

    Returns (outer block count, groups) where each group is a
    (value key, blocks, slots) triple: blocks are depth-1 payloads of
    first.value evaluating to the shared value, slots are (outer index,
    value) occurrences inside second.value, both canonically ordered
    and of equal length.
    """
    algebra = first.algebra
    blocks = []
    for blk, m in first.value.payload:
        blocks.extend([blk] * m)
    evals = [algebra.eval_payload(blk) for blk in blocks]

    slots = []
    outer_index = 0
    for inner, m in second.value.payload:
        for _ in range(m):
            for atom, k in inner:
                for _ in range(k):
                    slots.append((outer_index, atom))
            outer_index += 1

    by_value: dict = {}
    for blk, v in zip(blocks, evals):
        by_value.setdefault(atom_key(v), [[], []])[0].append(blk)
    for slot in slots:
        entry = by_value.get(atom_key(slot[1]))
        if entry is None:
            raise FillerNotFound("slot value missing among block evaluations")
        entry[1].append(slot)

    groups = []
    for vkey in sorted(by_value):
        blks, slts = by_value[vkey]
        if len(blks) != len(slts):
            raise FillerNotFound("block and slot counts disagree")
        blks.sort(key=lambda b: MULTISET.key(b, 1))
        slts.sort(key=lambda s: s[0])
        groups.append((vkey, blks, slts))
    return outer_index, groups


def _multiset_filler_from_assignment(assignment):
    outer_pairs = []
    for outer_index in sorted(assignment):
        group = MULTISET.bag(((blk, 1) for blk in assignment[outer_index]), 1)
        outer_pairs.append((group, 1))
    payload = MULTISET.bag(outer_pairs, 2)
    return NestedExpression(MULTISET, 3, payload)


def _list_filler(first: Witness, second: Witness) -> NestedExpression:
    blocks = list(first.value.payload)
    parts = []
    start = 0
    for chunk in second.value.payload:
        width = len(chunk)
        parts.append(tuple(blocks[start : start + width]))
        start += width
    if start != len(blocks):
        raise FillerNotFound("list block alignment failed")
    return NestedExpression(LIST, 3, tuple(parts))


def _require_depth1(p: NestedExpression, algebra: AlgebraInstance):
    if p.monad != algebra.monad:
        raise UnsupportedInstance(
            f"expression instance {p.monad.tag} does not match algebra {algebra.name}"
        )
    if p.depth != 1:
        raise InvalidWitness("expected a depth-1 expression")


def _require_composable(first: Witness, second: Witness):
    if first.algebra is not second.algebra and (
        first.algebra.monad != second.algebra.monad
        or first.algebra.name != second.algebra.name
    ):
        raise NotComposable("witnesses belong to different algebras")
    if first.target != second.source:
        raise NotComposable(
            f"target {first.target} does not meet source {second.source}"
        )


# ---------------------------------------------------------------------------
# Reduction graphs.


@dataclass(frozen=True)
class ReductionGraph:
    """All expressions reachable from a seed, with witness-counted edges."""

    algebra: AlgebraInstance
    nodes: tuple[NestedExpression, ...]
    edges: tuple[tuple[NestedExpression, NestedExpression, int], ...]

    def edge_count(self, u: NestedExpression, v: NestedExpression) -> int:
        for a, b, n in self.edges:
            if a == u and b == v:
                return n
        return 0


def _fiber_table(
    seed: NestedExpression, algebra: AlgebraInstance, fiber_limit: int, node_cap: int
):
    """One breadth-first pass over the fibers of everything reachable.

    Returns (nodes, rows): the nodes sorted by key, and for the node at
    rank r, rows[r] lists (payload, target rank) for each payload of its
    mu-fiber, in fiber order.  Each node's key and each payload's
    target are computed exactly once.
    """
    _require_depth1(seed, algebra)
    monad = algebra.monad
    evaluate = algebra.eval_payload
    nodes = [seed]
    ids = {seed.key(): 0}
    rows = []
    queue = deque([0])
    while queue:
        row = []
        for payload in monad.mu_fiber(nodes[queue.popleft()].payload, fiber_limit):
            target = monad.fmap(evaluate, payload, 2, 0)
            tkey = monad.key(target, 1)
            j = ids.get(tkey)
            if j is None:
                if len(nodes) >= node_cap:
                    raise EnumerationLimitExceeded(
                        f"reduction graph exceeds {node_cap} nodes"
                    )
                j = ids[tkey] = len(nodes)
                nodes.append(NestedExpression(monad, 1, target))
                queue.append(j)
            row.append((payload, j))
        rows.append(row)
    # Ids follow discovery order; renumber them by key.
    order = [ids[k] for k in sorted(ids)]
    rank = {i: r for r, i in enumerate(order)}
    return (
        [nodes[i] for i in order],
        [[(payload, rank[j]) for payload, j in rows[i]] for i in order],
    )


def reduction_graph(
    seed: NestedExpression,
    algebra: AlgebraInstance,
    fiber_limit: int = DEFAULT_FIBER_LIMIT,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ReductionGraph:
    """Breadth-first closure of the one-step relation out of `seed`.

    Nodes are sorted by key; an edge u -> v counts the payloads of u's
    mu-fiber that evaluate blockwise to v, and edges are sorted by
    (u, v).  Both come from one pass over the fibers (`_fiber_table`),
    which builds each fiber and evaluates each payload once.
    Self-loops and an edge to the fully evaluated expression appear at
    every node because the trivial witnesses always lie in the fiber.
    """
    nodes, rows = _fiber_table(seed, algebra, fiber_limit, node_cap)
    counts = Counter((u, v) for u, row in enumerate(rows) for _, v in row)
    edges = tuple((nodes[u], nodes[v], n) for (u, v), n in sorted(counts.items()))
    return ReductionGraph(algebra, tuple(nodes), edges)


@dataclass(frozen=True)
class ArsReport:
    """Abstract-rewriting facts about a finite reduction graph."""

    reflexive: bool
    confluent: bool
    transitive: bool
    reflexive_failure: tuple | None = None
    confluent_failure: tuple | None = None
    transitive_failure: tuple | None = None

    @property
    def all_hold(self) -> bool:
        return self.reflexive and self.confluent and self.transitive


def check_ars_properties(graph: ReductionGraph) -> ArsReport:
    """Decide reflexivity, confluence, and transitivity on the edge set.

    Confluence asks every two-edge fork for a common successor; on an
    honestly built graph the fully evaluated expression always joins,
    but synthetic graphs may fail any of the three.
    """
    succ: dict = {n.key(): set() for n in graph.nodes}
    by_key = {n.key(): n for n in graph.nodes}
    for u, v, _ in graph.edges:
        succ.setdefault(u.key(), set()).add(v.key())
        by_key.setdefault(u.key(), u)
        by_key.setdefault(v.key(), v)

    reflexive_failure = None
    for n in graph.nodes:
        if n.key() not in succ[n.key()]:
            reflexive_failure = (n,)
            break

    transitive_failure = None
    for u in graph.nodes:
        for vk in succ[u.key()]:
            for wk in succ.get(vk, ()):
                if wk not in succ[u.key()]:
                    transitive_failure = (u, by_key[vk], by_key[wk])
                    break
            if transitive_failure:
                break
        if transitive_failure:
            break

    confluent_failure = None
    for s in graph.nodes:
        outs = sorted(succ[s.key()])
        for tk, uk in itertools.combinations(outs, 2):
            if not (succ.get(tk, set()) & succ.get(uk, set())):
                confluent_failure = (s, by_key[tk], by_key[uk])
                break
        if confluent_failure:
            break

    return ArsReport(
        reflexive_failure is None,
        confluent_failure is None,
        transitive_failure is None,
        reflexive_failure,
        confluent_failure,
        transitive_failure,
    )
