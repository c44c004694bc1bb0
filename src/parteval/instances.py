"""The concrete monad instances and their standard algebras.

Multisets model unordered formal sums, lists model ordered ones, the
action instance pairs a monoid element with a point it will act on, the
distribution instance carries finite rational mixtures, and the terminal
instance collapses everything to a single token (useful as the degenerate
sanity case: its partial-evaluation relation is plain equality).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import (
    AlgebraInstance,
    Carrier,
    FiniteCarrier,
    MonadInstance,
    NaturalsCarrier,
    NestedExpression,
    PointCarrier,
    atom_key,
    expression,
    mu_at,
    render_atom,
)
from .errors import (
    CarrierMismatch,
    DimensionMismatch,
    EnumerationLimitExceeded,
    MalformedExpression,
    UnsupportedInstance,
)


def _check_atom(payload, carrier):
    atom_key(payload)  # raises MalformedExpression on unsupported types
    if carrier is not None and not carrier.contains(payload):
        raise CarrierMismatch(f"atom {payload!r} outside carrier")


class MultisetMonad(MonadInstance):
    tag = "multiset"

    def bag(self, pairs, child_depth):
        """Canonical bag from (child, multiplicity) pairs: merge, sort."""
        merged: dict = {}
        for child, mult in pairs:
            if not isinstance(mult, int) or mult <= 0:
                raise MalformedExpression(f"multiplicity must be positive: {mult!r}")
            k = self.key(child, child_depth)
            if k in merged:
                merged[k][1] += mult
            else:
                merged[k] = [child, mult]
        return tuple((c, m) for _, (c, m) in sorted(merged.items(), key=lambda kv: kv[0]))

    def from_raw(self, raw, depth):
        if depth == 0:
            return raw
        children = [self.from_raw(c, depth - 1) for c in raw]
        return self.bag(((c, 1) for c in children), depth - 1)

    def fmap(self, f, payload, depth, result_child_depth):
        return self.bag(((f(c), m) for c, m in payload), result_child_depth)

    def unit(self, payload):
        return ((payload, 1),)

    def mult(self, payload, depth):
        pairs = []
        for inner, m in payload:
            for child, k in inner:
                pairs.append((child, m * k))
        return self.bag(pairs, depth - 2)

    def key(self, payload, depth):
        if depth == 0:
            return atom_key(payload)
        return tuple((self.key(c, depth - 1), m) for c, m in payload)

    def iter_children(self, payload, depth):
        return (c for c, _ in payload)

    def check_payload(self, payload, depth, carrier=None):
        if depth == 0:
            _check_atom(payload, carrier)
            return
        if not isinstance(payload, tuple):
            raise MalformedExpression("multiset payload must be a tuple of pairs")
        last_key = None
        for entry in payload:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise MalformedExpression(f"bad multiset entry: {entry!r}")
            child, m = entry
            if not isinstance(m, int) or m <= 0:
                raise MalformedExpression(f"bad multiplicity: {m!r}")
            self.check_payload(child, depth - 1, carrier)
            k = self.key(child, depth - 1)
            if last_key is not None and not last_key < k:
                raise MalformedExpression("multiset entries not strictly sorted")
            last_key = k

    def render(self, payload, depth):
        if depth == 0:
            return render_atom(payload)
        items = []
        for child, m in payload:
            items.extend([self.render(child, depth - 1)] * m)
        return "{" + ", ".join(items) + "}"

    # -- fiber enumeration ---------------------------------------------

    def mu_fiber(self, payload, limit=10):
        """All partitions of the bag into nonempty blocks, canonical order.

        The count grows like the Bell numbers, so total multiplicity is
        capped.  Empty blocks are excluded; admitting them would make
        the fiber infinite.
        """
        return self._partitions(payload, None, None, limit)

    def mu_fiber_to(self, payload, target_payload, evaluate, limit=10):
        """The partitions whose blocks evaluate to the target bag.

        A backtracking search over the partitions mu_fiber lists: a block
        is kept only while the target still needs its value, so most of
        the fiber is never built.
        """
        return self._partitions(payload, target_payload, evaluate, limit)

    def _partitions(self, payload, target_payload, evaluate, limit):
        """Each partition of the bag exactly once, canonically ordered.

        Blocks are count vectors over the distinct atoms, chosen in
        non-increasing lexicographic order as in Knuth's Algorithm M
        (TAOCP 4A, 7.2.1.5), so every block holds the least atom still
        unplaced.  With a target, the open slots are the target values
        not yet matched: a block needs an open slot for its value
        (compared by atom_key), fewer atoms than open slots is a dead
        end, and the last slot takes all the atoms that are left.
        """
        total = sum(m for _, m in payload)
        if total > limit:
            raise EnumerationLimitExceeded(
                f"multiset of size {total} exceeds the fiber limit {limit}"
            )
        atoms = [a for a, _ in payload]
        blocks: dict = {}  # count vector -> (sort key, block payload, value key)

        def block(v):
            entry = blocks.get(v)
            if entry is None:
                pairs = tuple((atoms[j], c) for j, c in enumerate(v) if c)
                # Atom indices order blocks exactly as their keys would.
                order = tuple((j, c) for j, c in enumerate(v) if c)
                value = None if evaluate is None else atom_key(evaluate(pairs))
                entry = blocks[v] = (order, pairs, value)
            return entry

        def assemble(chosen):
            # Equal blocks are adjacent in a non-increasing sequence.
            runs: list = []
            for v in chosen:
                if runs and runs[-1][0] == v:
                    runs[-1][1] += 1
                else:
                    runs.append([v, 1])
            entries = sorted(block(v)[:2] + (m,) for v, m in runs)
            return (
                tuple((order, m) for order, _, m in entries),
                tuple((pairs, m) for _, pairs, m in entries),
            )

        slot_of, need = {}, None
        if target_payload is not None:
            slot_of = {atom_key(a): s for s, (a, _) in enumerate(target_payload)}
            need = tuple(m for _, m in target_payload)
        found = []
        # A state: remaining counts, their sum, the last block, the target
        # counts not yet matched (None without a target), the blocks so far.
        stack = [(tuple(m for _, m in payload), total, None, need, ())]
        while stack:
            rem, left, prev, need, chosen = stack.pop()
            slots = None if need is None else sum(need)
            if left == 0:
                if not slots:
                    found.append(assemble(chosen))
                continue
            if slots is not None and not 0 < slots <= left:
                continue
            i = next(j for j, c in enumerate(rem) if c)
            if slots == 1:
                candidates = (rem,)
            else:
                candidates = (
                    (0,) * i + tail
                    for tail in itertools.product(
                        range(rem[i], 0, -1), *(range(c, -1, -1) for c in rem[i + 1 :])
                    )
                )
            for v in candidates:
                if prev is not None and v > prev:
                    continue
                size = sum(v)
                next_need = None
                if slots is not None:
                    s = slot_of.get(block(v)[2]) if left - size >= slots - 1 else None
                    if s is None or not need[s]:
                        continue
                    next_need = need[:s] + (need[s] - 1,) + need[s + 1 :]
                rest = tuple(r - c for r, c in zip(rem, v))
                stack.append((rest, left - size, v, next_need, chosen + (v,)))
        found.sort(key=lambda kp: kp[0])
        return [p for _, p in found]


class ListMonad(MonadInstance):
    tag = "list"

    def from_raw(self, raw, depth):
        if depth == 0:
            return raw
        return tuple(self.from_raw(c, depth - 1) for c in raw)

    def fmap(self, f, payload, depth, result_child_depth):
        return tuple(f(c) for c in payload)

    def unit(self, payload):
        return (payload,)

    def mult(self, payload, depth):
        return tuple(itertools.chain.from_iterable(payload))

    def key(self, payload, depth):
        if depth == 0:
            return atom_key(payload)
        return tuple(self.key(c, depth - 1) for c in payload)

    def iter_children(self, payload, depth):
        return iter(payload)

    def check_payload(self, payload, depth, carrier=None):
        if depth == 0:
            _check_atom(payload, carrier)
            return
        if not isinstance(payload, tuple):
            raise MalformedExpression("list payload must be a tuple")
        for child in payload:
            self.check_payload(child, depth - 1, carrier)

    def render(self, payload, depth):
        if depth == 0:
            return render_atom(payload)
        return "[" + ", ".join(self.render(c, depth - 1) for c in payload) + "]"

    def mu_fiber(self, payload, limit=10):
        """All splittings into contiguous nonempty blocks: 2^(n-1) of them."""
        return self._splits(payload, None, None, limit)

    def mu_fiber_to(self, payload, target_payload, evaluate, limit=10):
        """The splittings whose j-th block folds to the target's j-th atom."""
        return self._splits(payload, target_payload, evaluate, limit)

    def _splits(self, payload, target, evaluate, limit):
        """Splittings found left to right, in canonical order.

        A block's key is a prefix of every longer block's from the same
        start, so trying shorter blocks first emits splittings sorted.
        With a target, each later slot keeps at least one element and
        the last slot takes the rest.
        """
        n = len(payload)
        if n > limit:
            raise EnumerationLimitExceeded(
                f"list of length {n} exceeds the fiber limit {limit}"
            )
        found = []
        folds: dict = {}
        stack = [(0, ())]
        while stack:
            start, blocks = stack.pop()
            if start == n:
                if target is None or len(blocks) == len(target):
                    found.append(blocks)
                continue
            if target is None:
                ends = range(n, start, -1)
            else:
                later = len(target) - len(blocks) - 1
                ends = () if later < 0 else (n,) if later == 0 else range(n - later, start, -1)
            # Pushed longest first, so the shortest block is tried first.
            for end in ends:
                if target is not None:
                    if (start, end) not in folds:
                        folds[start, end] = evaluate(payload[start:end])
                    if folds[start, end] != target[len(blocks)]:
                        continue
                stack.append((end, blocks + (payload[start:end],)))
        return found


class Monoid:
    """Finite monoid given by a Cayley table, validated on construction."""

    def __init__(self, name: str, elements, table, identity):
        self.name = name
        self.elements = tuple(sorted(elements, key=atom_key))
        if len(frozenset(self.elements)) != len(self.elements):
            raise MalformedExpression("duplicate monoid elements")
        self._table = dict(table)
        self.identity = identity
        if identity not in frozenset(self.elements):
            raise MalformedExpression("identity not among the elements")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self._table:
                    raise MalformedExpression(f"table missing entry ({a!r}, {b!r})")
                if self._table[(a, b)] not in frozenset(self.elements):
                    raise MalformedExpression("table not closed")
        for a in self.elements:
            if self.op(identity, a) != a or self.op(a, identity) != a:
                raise MalformedExpression("identity law fails in table")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.op(self.op(a, b), c) != self.op(a, self.op(b, c)):
                        raise MalformedExpression(
                            f"associativity fails at ({a!r}, {b!r}, {c!r})"
                        )
        self._inverse = {}
        for a in self.elements:
            for b in self.elements:
                if self.op(a, b) == identity and self.op(b, a) == identity:
                    self._inverse[a] = b
                    break
        self.is_group = len(self._inverse) == len(self.elements)

    def op(self, a, b):
        return self._table[(a, b)]

    def inverse(self, a):
        if not self.is_group:
            raise UnsupportedInstance(f"{self.name} is not a group")
        return self._inverse[a]

    def is_commutative(self) -> bool:
        return all(
            self.op(a, b) == self.op(b, a)
            for a in self.elements
            for b in self.elements
        )

    def __repr__(self):
        return f"Monoid({self.name}, n={len(self.elements)})"


def cyclic(n: int, name: str | None = None) -> Monoid:
    """The cyclic group of order n, written additively on 0..n-1."""
    elems = range(n)
    table = {(a, b): (a + b) % n for a in elems for b in elems}
    return Monoid(name or f"C{n}", elems, table, 0)


class ActionMonad(MonadInstance):
    """Pairs (g, x): a pending monoid element waiting to act on a value."""

    def __init__(self, monoid: Monoid):
        self.monoid = monoid
        self.tag = f"action:{monoid.name}"

    def from_raw(self, raw, depth):
        if depth == 0:
            return raw
        if not (isinstance(raw, (tuple, list)) and len(raw) == 2):
            raise MalformedExpression(f"action value must be a (g, x) pair: {raw!r}")
        g, sub = raw
        return (g, self.from_raw(sub, depth - 1))

    def fmap(self, f, payload, depth, result_child_depth):
        g, child = payload
        return (g, f(child))

    def unit(self, payload):
        return (self.monoid.identity, payload)

    def mult(self, payload, depth):
        g, (h, sub) = payload
        return (self.monoid.op(g, h), sub)

    def key(self, payload, depth):
        if depth == 0:
            return atom_key(payload)
        g, child = payload
        return (atom_key(g), self.key(child, depth - 1))

    def iter_children(self, payload, depth):
        yield payload[1]

    def check_payload(self, payload, depth, carrier=None):
        if depth == 0:
            _check_atom(payload, carrier)
            return
        if not (isinstance(payload, tuple) and len(payload) == 2):
            raise MalformedExpression(f"bad action payload: {payload!r}")
        g, child = payload
        if g not in frozenset(self.monoid.elements):
            raise MalformedExpression(f"{g!r} is not an element of {self.monoid.name}")
        self.check_payload(child, depth - 1, carrier)

    def render(self, payload, depth):
        if depth == 0:
            return render_atom(payload)
        g, child = payload
        return f"({g}, {self.render(child, depth - 1)})"

    def mu_fiber(self, payload, limit=10):
        """All two-step factorizations (h, (l, x)) with h*l = g.

        For a group the second factor is forced, so there are exactly
        |G| of them; a plain monoid needs the full table scan.
        """
        g, x = payload
        M = self.monoid
        if M.is_group:
            pairs = [(h, M.op(M.inverse(h), g)) for h in M.elements]
        else:
            pairs = [
                (h, l)
                for h in M.elements
                for l in M.elements
                if M.op(h, l) == g
            ]
        fibers = [(h, (l, x)) for h, l in pairs]
        fibers.sort(key=lambda p: self.key(p, 2))
        return fibers


class DistributionMonad(MonadInstance):
    """Finitely supported mixtures with exact rational weights."""

    tag = "dist"

    def mix(self, pairs, child_depth):
        """Merge (child, weight) pairs, dropping zeros; weights exact."""
        merged: dict = {}
        for child, w in pairs:
            w = Fraction(w)
            if w < 0:
                raise MalformedExpression(f"negative weight {w}")
            if w == 0:
                continue
            k = self.key(child, child_depth)
            if k in merged:
                entry = merged[k]
                merged[k] = (entry[0], entry[1] + w)
            else:
                merged[k] = (child, w)
        return tuple(cw for _, cw in sorted(merged.items(), key=lambda kv: kv[0]))

    def from_raw(self, raw, depth):
        if depth == 0:
            if isinstance(raw, list):
                return tuple(as_fraction(c) for c in raw)
            return raw
        entries = []
        for item in raw:
            if not (isinstance(item, (tuple, list)) and len(item) == 2):
                raise MalformedExpression(f"distribution entry must pair value and weight: {item!r}")
            child_raw, w = item
            entries.append((self.from_raw(child_raw, depth - 1), as_fraction(w)))
        payload = self.mix(entries, depth - 1)
        if sum((w for _, w in payload), Fraction(0)) != 1:
            raise MalformedExpression("distribution weights must sum to 1")
        return payload

    def fmap(self, f, payload, depth, result_child_depth):
        return self.mix(((f(c), w) for c, w in payload), result_child_depth)

    def unit(self, payload):
        return ((payload, Fraction(1)),)

    def mult(self, payload, depth):
        pairs = []
        for inner, w in payload:
            for child, v in inner:
                pairs.append((child, w * v))
        return self.mix(pairs, depth - 2)

    def key(self, payload, depth):
        if depth == 0:
            return atom_key(payload)
        return tuple((self.key(c, depth - 1), w) for c, w in payload)

    def iter_children(self, payload, depth):
        return (c for c, _ in payload)

    def check_payload(self, payload, depth, carrier=None):
        if depth == 0:
            _check_atom(payload, carrier)
            return
        if not isinstance(payload, tuple):
            raise MalformedExpression("distribution payload must be a tuple of pairs")
        total = Fraction(0)
        last_key = None
        for entry in payload:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise MalformedExpression(f"bad distribution entry: {entry!r}")
            child, w = entry
            if not isinstance(w, Fraction) or w <= 0:
                raise MalformedExpression(f"weights must be positive Fractions: {w!r}")
            total += w
            self.check_payload(child, depth - 1, carrier)
            k = self.key(child, depth - 1)
            if last_key is not None and not last_key < k:
                raise MalformedExpression("distribution entries not strictly sorted")
            last_key = k
        if total != 1:
            raise MalformedExpression(f"weights sum to {total}, not 1")

    def render(self, payload, depth):
        if depth == 0:
            return render_atom(payload)
        parts = []
        for child, w in payload:
            body = self.render(child, depth - 1)
            if depth >= 2:
                body = f"({body})"
            parts.append(f"{w} @ {body}")
        return " + ".join(parts)

    def mu_fiber(self, payload, limit=10):
        raise UnsupportedInstance(
            "distribution mu-fibers are infinite; use the LP decision procedure"
        )


class TerminalMonad(MonadInstance):
    """The one-point instance: every container is the same token."""

    tag = "terminal"
    POINT = "*"

    def from_raw(self, raw, depth):
        if depth == 0:
            return raw
        return self.POINT

    def fmap(self, f, payload, depth, result_child_depth):
        return self.POINT

    def unit(self, payload):
        return self.POINT

    def mult(self, payload, depth):
        return self.POINT

    def key(self, payload, depth):
        if depth == 0:
            return atom_key(payload)
        return self.POINT

    def iter_children(self, payload, depth):
        return iter(())

    def check_payload(self, payload, depth, carrier=None):
        if depth == 0:
            _check_atom(payload, carrier)
            return
        if payload != self.POINT:
            raise MalformedExpression("terminal payloads are the single token '*'")

    def render(self, payload, depth):
        if depth == 0:
            return render_atom(payload)
        return self.POINT

    def mu_fiber(self, payload, limit=10):
        return [self.POINT]


MULTISET = MultisetMonad()
LIST = ListMonad()
DIST = DistributionMonad()
TERMINAL = TerminalMonad()


def as_fraction(v) -> Fraction:
    """Exact rational from an int, Fraction, or (numerator, denominator)."""
    if isinstance(v, bool):
        raise MalformedExpression("booleans are not rationals")
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, (tuple, list)) and len(v) == 2:
        return Fraction(int(v[0]), int(v[1]))
    if isinstance(v, str):
        return Fraction(v)
    raise MalformedExpression(f"not a rational: {v!r}")


def point(*coords) -> tuple:
    return tuple(as_fraction(c) for c in coords)


# ---------------------------------------------------------------------------
# Distribution helpers at the expression level.


def dist_pushforward(f, p: NestedExpression) -> NestedExpression:
    """Image distribution: weights of merged preimages add up."""
    if p.monad != DIST:
        raise UnsupportedInstance("expects a distribution")
    from .core import functor_apply

    return functor_apply(f, p)


def dist_average(xi: NestedExpression) -> NestedExpression:
    """Flatten a distribution of distributions into its mixture."""
    if xi.monad != DIST or xi.depth < 2:
        raise UnsupportedInstance("expects a depth-2 distribution")
    return mu_at(xi, 0)


def barycenter(algebra: "ConvexAlgebra", p: NestedExpression) -> tuple:
    """Exact convex combination of the support points."""
    return algebra.eval(p)


# ---------------------------------------------------------------------------
# Algebras.


def nat_add_algebra() -> AlgebraInstance:
    """Multisets of naturals evaluated by addition."""

    def ev(payload):
        return sum(a * m for a, m in payload)

    return AlgebraInstance(MULTISET, NaturalsCarrier(), "nat-add", ev)


def commutative_monoid_algebra(monoid: Monoid) -> AlgebraInstance:
    """Multisets over a finite commutative monoid, evaluated by folding."""
    if not monoid.is_commutative():
        raise MalformedExpression(
            f"{monoid.name} is not commutative; a multiset evaluation would be ambiguous"
        )

    def ev(payload):
        acc = monoid.identity
        for a, m in payload:
            for _ in range(m):
                acc = monoid.op(acc, a)
        return acc

    return AlgebraInstance(
        MULTISET, FiniteCarrier(monoid.elements), f"msum-{monoid.name}", ev
    )


def monoid_algebra(monoid: Monoid) -> AlgebraInstance:
    """Lists over a finite monoid, evaluated by left-to-right folding."""

    def ev(payload):
        acc = monoid.identity
        for a in payload:
            acc = monoid.op(acc, a)
        return acc

    return AlgebraInstance(LIST, FiniteCarrier(monoid.elements), f"fold-{monoid.name}", ev)


def action_algebra(monoid: Monoid, carrier_elements, action_table) -> AlgebraInstance:
    """A monoid action on a finite set; evaluation applies the action.

    action_table maps (g, x) to g acting on x.  Identity and
    compatibility laws are verified up front.
    """
    carrier = FiniteCarrier(carrier_elements)
    table = dict(action_table)
    members = frozenset(carrier.elements)
    for g in monoid.elements:
        for x in carrier.elements:
            if (g, x) not in table or table[(g, x)] not in members:
                raise MalformedExpression(f"action table bad at ({g!r}, {x!r})")
    for x in carrier.elements:
        if table[(monoid.identity, x)] != x:
            raise MalformedExpression("identity must act trivially")
    for g in monoid.elements:
        for h in monoid.elements:
            for x in carrier.elements:
                if table[(monoid.op(g, h), x)] != table[(g, table[(h, x)])]:
                    raise MalformedExpression(
                        f"action not compatible at ({g!r}, {h!r}, {x!r})"
                    )

    def ev(payload):
        g, x = payload
        return table[(g, x)]

    return AlgebraInstance(
        ActionMonad(monoid), carrier, f"act-{monoid.name}", ev
    )


def self_action_algebra(monoid: Monoid) -> AlgebraInstance:
    """The monoid acting on itself by left multiplication."""
    table = {
        (g, x): monoid.op(g, x) for g in monoid.elements for x in monoid.elements
    }
    return action_algebra(monoid, monoid.elements, table)


class ConvexAlgebra(AlgebraInstance):
    """Rational points of a fixed dimension, evaluated by barycenter.

    An optional admissibility predicate restricts the usable points; the
    default admits all of rational space, which is trivially closed
    under convex combination.
    """

    def __init__(self, dimension: int, admissible=None, name: str | None = None):
        self.dimension = dimension
        self.admissible = admissible

        def ev(payload):
            coords = [Fraction(0)] * dimension
            for pt, w in payload:
                if len(pt) != dimension:
                    raise DimensionMismatch(
                        f"point {pt!r} has dimension {len(pt)}, expected {dimension}"
                    )
                for i, c in enumerate(pt):
                    coords[i] += w * Fraction(c)
            return tuple(coords)

        super().__init__(
            DIST, PointCarrier(dimension), name or f"barycenter-q{dimension}", ev
        )

    def contains_point(self, pt) -> bool:
        if not self.carrier.contains(pt):
            return False
        return True if self.admissible is None else bool(self.admissible(pt))


def convex_algebra(dimension: int, admissible=None) -> ConvexAlgebra:
    return ConvexAlgebra(dimension, admissible)


def terminal_algebra(atom="pt") -> AlgebraInstance:
    """The only algebra the terminal instance has: a one-point carrier."""
    return AlgebraInstance(
        TERMINAL, FiniteCarrier((atom,)), f"terminal-{atom}", lambda payload: atom
    )


# Convenience builders used heavily in tests and the CLI.


def multiset_expression(atoms, carrier: Carrier | None = None) -> NestedExpression:
    return expression(MULTISET, 1, list(atoms), carrier)


def list_expression(atoms, carrier: Carrier | None = None) -> NestedExpression:
    return expression(LIST, 1, list(atoms), carrier)


def action_expression(monoid: Monoid, g, x) -> NestedExpression:
    return expression(ActionMonad(monoid), 1, (g, x))


def distribution(pairs, dim: int | None = None) -> NestedExpression:
    """Depth-1 distribution from (atom, weight) pairs; scalars become
    1-dimensional points when dim is given."""
    prepared = []
    for a, w in pairs:
        if dim is not None and not isinstance(a, tuple):
            a = (Fraction(a),)
        prepared.append((a, w))
    return expression(DIST, 1, prepared)


def dirac(atom) -> NestedExpression:
    return expression(DIST, 1, [(atom, 1)])
