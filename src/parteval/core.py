"""Carriers, nested expressions, and the monad/algebra interfaces.

A monad instance is one container shape (bag, sequence, scaled pair,
rational mixture, point) together with a unit that wraps a value in a
trivial container and a multiplication that flattens two container
layers into one.  Values are immutable payloads tagged with an explicit
nesting depth; payloads are kept in a canonical form so that structural
equality is decidable and deterministic.

All arithmetic is exact: atoms are integers, strings, or tuples of
rationals, weights are `fractions.Fraction`, and nothing in this package
touches floating point.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .errors import (
    CarrierMismatch,
    DepthMismatch,
    MalformedExpression,
    PartialFunction,
    UnsupportedInstance,
)

Atom = Any


def atom_key(a: Atom):
    """Sort key giving a total order across all supported atom types.

    Numbers come first (compared exactly), then strings, then rational
    points.  Within one carrier the atoms are homogeneous anyway; the
    type rank only matters for mixed synthetic data.
    """
    if isinstance(a, bool):
        raise MalformedExpression("booleans are not valid atoms")
    if isinstance(a, (int, Fraction)):
        return (0, Fraction(a))
    if isinstance(a, str):
        return (1, a)
    if isinstance(a, tuple):
        if any(isinstance(c, bool) or not isinstance(c, (int, Fraction)) for c in a):
            raise MalformedExpression(f"bad point atom: {a!r}")
        return (2, tuple(Fraction(c) for c in a))
    raise MalformedExpression(f"unsupported atom type: {a!r}")


def render_atom(a: Atom) -> str:
    if isinstance(a, tuple):
        if len(a) == 1:
            return str(a[0])
        return "(" + ", ".join(str(c) for c in a) + ")"
    return str(a)


class Carrier(ABC):
    """A set of atoms with decidable membership and a canonical order."""

    @abstractmethod
    def contains(self, atom: Atom) -> bool: ...

    @abstractmethod
    def sample(self, rng: random.Random) -> Atom: ...


class FiniteCarrier(Carrier):
    """Explicit finite atom set."""

    def __init__(self, elements: Iterable[Atom]):
        elems = tuple(elements)
        if len(frozenset(elems)) != len(elems):
            raise MalformedExpression("duplicate atoms in carrier")
        self.elements = tuple(sorted(elems, key=atom_key))
        self._members = frozenset(self.elements)

    def contains(self, atom):
        try:
            return atom in self._members
        except TypeError:
            return False

    def sample(self, rng):
        return rng.choice(self.elements)

    def __repr__(self):
        return f"FiniteCarrier({list(self.elements)!r})"


class NaturalsCarrier(Carrier):
    """Non-negative integers, membership decided lazily."""

    def __init__(self, sample_bound: int = 10):
        self.sample_bound = sample_bound

    def contains(self, atom):
        return isinstance(atom, int) and not isinstance(atom, bool) and atom >= 0

    def sample(self, rng):
        return rng.randrange(self.sample_bound)

    def __repr__(self):
        return "NaturalsCarrier()"


class PointCarrier(Carrier):
    """Rational points of a fixed dimension."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise MalformedExpression("dimension must be positive")
        self.dimension = dimension

    def contains(self, atom):
        return (
            isinstance(atom, tuple)
            and len(atom) == self.dimension
            and all(
                isinstance(c, (int, Fraction)) and not isinstance(c, bool)
                for c in atom
            )
        )

    def sample(self, rng):
        return tuple(
            Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            for _ in range(self.dimension)
        )

    def __repr__(self):
        return f"PointCarrier(dim={self.dimension})"


class MonadInstance(ABC):
    """One container shape with unit and flattening.

    Payload layout per instance, at nesting depth k >= 1 (depth 0 means a
    bare atom):

    * multiset: sorted tuple of (child, multiplicity) pairs
    * list: tuple of children
    * action: (monoid element, child) pair
    * dist: sorted tuple of (child, positive Fraction) pairs summing to 1
    * terminal: the token "*" regardless of depth

    Instances compare equal by tag so that separately constructed copies
    of the same instance interoperate.
    """

    tag: str

    def __eq__(self, other):
        return isinstance(other, MonadInstance) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"<monad {self.tag}>"

    @abstractmethod
    def from_raw(self, raw, depth: int):
        """Canonicalize nested plain-python data into a payload."""

    @abstractmethod
    def fmap(self, f, payload, depth: int, result_child_depth: int):
        """Map f over the children one layer down, recanonicalizing."""

    @abstractmethod
    def unit(self, payload):
        """Wrap a payload in a one-element container."""

    @abstractmethod
    def mult(self, payload, depth: int):
        """Flatten the outer two container layers into one (depth >= 2)."""

    @abstractmethod
    def key(self, payload, depth: int):
        """Canonical comparison key; injective for fixed instance/depth."""

    @abstractmethod
    def iter_children(self, payload, depth: int) -> Iterator:
        """Distinct children one layer down."""

    @abstractmethod
    def check_payload(self, payload, depth: int, carrier: Carrier | None = None):
        """Raise MalformedExpression/CarrierMismatch unless canonical."""

    @abstractmethod
    def render(self, payload, depth: int) -> str: ...

    def mu_fiber(self, payload, limit: int = 10) -> list:
        """All depth-2 payloads flattening to the given depth-1 payload.

        Enumerable instances override this.  Blocks are required to be
        nonempty, which is what keeps the fiber finite.
        """
        raise UnsupportedInstance(f"no finite mu-fiber enumeration for {self.tag}")

    def mu_fiber_to(self, payload, target_payload, evaluate, limit: int = 10) -> list:
        """The fiber payloads whose blockwise evaluation is target_payload.

        Distinct and in canonical order, like mu_fiber.  This default
        filters the whole fiber; instances with large fibers override it
        with a search that only builds groupings the target can use.
        """
        return [
            f
            for f in self.mu_fiber(payload, limit)
            if self.fmap(evaluate, f, 2, 0) == target_payload
        ]


@dataclass(frozen=True)
class NestedExpression:
    """A depth-k element of the k-fold nested container of an instance."""

    monad: MonadInstance
    depth: int
    payload: Any

    def key(self):
        return self.monad.key(self.payload, self.depth)

    def __str__(self):
        return self.monad.render(self.payload, self.depth)

    def __repr__(self):
        return f"Expr[{self.monad.tag}:{self.depth}]({self})"


def expression(
    monad: MonadInstance, depth: int, raw, carrier: Carrier | None = None
) -> NestedExpression:
    """Build a canonical expression from plain nested data.

    Raw data nests to exactly `depth` container layers: a depth-2
    multiset is a list of lists of atoms, a depth-1 distribution is a
    list of (atom, weight) pairs, an action value is (g, x) pairs nested
    on the right.  With a carrier, atoms are checked for membership.
    """
    if depth < 1:
        raise DepthMismatch("expressions have depth >= 1")
    payload = monad.from_raw(raw, depth)
    monad.check_payload(payload, depth, carrier)
    return NestedExpression(monad, depth, payload)


class AlgebraInstance:
    """A carrier together with an evaluation rule for depth-1 payloads.

    Evaluation must satisfy e(unit(a)) == a and e(Te(x)) == e(mult(x));
    `check_algebra_laws` verifies both on samples.
    """

    def __init__(self, monad: MonadInstance, carrier: Carrier, name: str, eval_fn):
        self.monad = monad
        self.carrier = carrier
        self.name = name
        self._eval_fn = eval_fn

    def eval_payload(self, payload) -> Atom:
        return self._eval_fn(payload)

    def eval(self, x: NestedExpression) -> Atom:
        if x.monad != self.monad:
            raise CarrierMismatch(
                f"algebra {self.name} is for {self.monad.tag}, not {x.monad.tag}"
            )
        if x.depth != 1:
            raise DepthMismatch("evaluation applies to depth-1 expressions")
        return self._eval_fn(x.payload)

    def total_target(self, atom: Atom) -> NestedExpression:
        """The fully evaluated expression holding a single atom."""
        return NestedExpression(self.monad, 1, self.monad.unit(atom))

    def __repr__(self):
        return f"<algebra {self.name} over {self.monad.tag}>"


# ---------------------------------------------------------------------------
# Level-indexed structure maps.
#
# _apply_under pushes an operation below `layers` container layers.  The
# delta argument is how much the operation changes the depth of the
# sub-payload it touches (-1 for flattening/evaluation, +1 for wrapping,
# 0 for atom substitution); fmap needs it to sort the rebuilt containers
# with keys of the right depth.


def _apply_under(monad, payload, depth, layers, op, delta):
    if layers == 0:
        return op(payload, depth)
    return monad.fmap(
        lambda child: _apply_under(monad, child, depth - 1, layers - 1, op, delta),
        payload,
        depth,
        depth - 1 + delta,
    )


def mu_at(x: NestedExpression, level: int) -> NestedExpression:
    """Flatten nesting layers `level` and `level+1`, counted from outside.

    mu_at(x, 0) merges the outermost two layers; mu_at(x, depth-2) merges
    the innermost two.
    """
    if not 0 <= level <= x.depth - 2:
        raise DepthMismatch(f"flatten level {level} invalid at depth {x.depth}")
    payload = _apply_under(
        x.monad, x.payload, x.depth, level, lambda p, d: x.monad.mult(p, d), -1
    )
    return NestedExpression(x.monad, x.depth - 1, payload)


def eta_at(x: NestedExpression, layers: int) -> NestedExpression:
    """Wrap the sub-values sitting under `layers` container layers.

    eta_at(x, 0) wraps the whole value; eta_at(x, depth) wraps every atom.
    """
    if not 0 <= layers <= x.depth:
        raise DepthMismatch(f"wrap position {layers} invalid at depth {x.depth}")
    payload = _apply_under(
        x.monad, x.payload, x.depth, layers, lambda p, d: x.monad.unit(p), +1
    )
    return NestedExpression(x.monad, x.depth + 1, payload)


def ev_under(x: NestedExpression, algebra: AlgebraInstance, layers: int) -> NestedExpression:
    """Evaluate the innermost containers, under `layers` >= 1 layers.

    Only layers == depth-1 is meaningful: the evaluation rule consumes
    exactly one container layer.
    """
    if x.monad != algebra.monad:
        raise CarrierMismatch(
            f"algebra {algebra.name} is for {algebra.monad.tag}, not {x.monad.tag}"
        )
    if layers != x.depth - 1 or layers < 1:
        raise DepthMismatch(
            f"evaluation under {layers} layers invalid at depth {x.depth}"
        )
    payload = _apply_under(
        x.monad, x.payload, x.depth, layers, lambda p, d: algebra.eval_payload(p), -1
    )
    return NestedExpression(x.monad, x.depth - 1, payload)


def map_atoms(x: NestedExpression, f: Callable[[Atom], Atom]) -> NestedExpression:
    payload = _apply_under(x.monad, x.payload, x.depth, x.depth, lambda a, d: f(a), 0)
    return NestedExpression(x.monad, x.depth, payload)


def functor_apply(f: Callable[[Atom], Atom], x: NestedExpression) -> NestedExpression:
    """Substitute atoms under every container layer, preserving depth.

    Collapsing substitutions merge container entries (multiset counts
    add, distribution weights add).  A raising f surfaces as
    PartialFunction.
    """

    def safe(a):
        try:
            return f(a)
        except Exception as exc:
            raise PartialFunction(f"atom function failed on {a!r}") from exc

    return map_atoms(x, safe)


def atoms_of(x: NestedExpression) -> list[Atom]:
    """All distinct-per-position atoms underneath x, outermost first."""
    out: list[Atom] = []

    def walk(payload, depth):
        if depth == 0:
            out.append(payload)
            return
        for child in x.monad.iter_children(payload, depth):
            walk(child, depth - 1)

    walk(x.payload, x.depth)
    return out


# ---------------------------------------------------------------------------
# Law checking.


@dataclass(frozen=True)
class LawResult:
    law: str
    passed: bool
    checked: int
    counterexample: tuple | None = None

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.law} ({self.checked} values)"
        parts = ", ".join(str(v) for v in (self.counterexample or ()))
        return f"FAIL {self.law}: {parts}"


@dataclass(frozen=True)
class LawReport:
    results: tuple[LawResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        return "\n".join(r.line() for r in self.results)


def _check_each(law, candidates, predicate):
    checked = 0
    for x in candidates:
        checked += 1
        witness = predicate(x)
        if witness is not None:
            return LawResult(law, False, checked, witness)
    return LawResult(law, True, checked)


def check_monad_laws(monad: MonadInstance, samples: Iterable[NestedExpression]) -> LawReport:
    """Verify associativity and both unit laws on the given samples.

    Associativity needs depth >= 3 and is checked on exactly those
    samples; the unit laws run on every sample.  Verification is exact
    value equality, no tolerances.
    """
    samples = list(samples)
    for x in samples:
        if x.monad != monad:
            raise CarrierMismatch(f"sample {x!r} is not a {monad.tag} value")

    def assoc(x):
        lhs = mu_at(mu_at(x, 1), 0)
        rhs = mu_at(mu_at(x, 0), 0)
        return None if lhs == rhs else (x, lhs, rhs)

    def right_unit(x):
        back = mu_at(eta_at(x, 1), 0)
        return None if back == x else (x, back)

    def left_unit(x):
        back = mu_at(eta_at(x, 0), 0)
        return None if back == x else (x, back)

    deep = [x for x in samples if x.depth >= 3]
    return LawReport(
        (
            _check_each("associativity", deep, assoc),
            _check_each("right-unit", samples, right_unit),
            _check_each("left-unit", samples, left_unit),
        )
    )


def check_algebra_laws(algebra: AlgebraInstance, samples: Iterable[NestedExpression]) -> LawReport:
    """Verify e(unit(a)) == a on sample atoms and the two evaluation
    orders e(Te(x)) == e(mult(x)) on depth-2 samples."""
    samples = list(samples)
    monad = algebra.monad
    seen_atoms: list[Atom] = []
    for x in samples:
        if x.monad != monad:
            raise CarrierMismatch(f"sample {x!r} is not a {monad.tag} value")
        for a in atoms_of(x):
            if not algebra.carrier.contains(a):
                raise CarrierMismatch(f"atom {a!r} outside carrier of {algebra.name}")
            seen_atoms.append(a)

    def unit_law(a):
        back = algebra.eval_payload(monad.unit(a))
        return None if back == a else (a, back)

    def mult_law(x):
        via_eval = algebra.eval(ev_under(x, algebra, 1))
        via_flat = algebra.eval(mu_at(x, 0))
        return None if via_eval == via_flat else (x, via_eval, via_flat)

    two_level = [x for x in samples if x.depth == 2]
    return LawReport(
        (
            _check_each("eval-unit", seen_atoms, unit_law),
            _check_each("eval-mult", two_level, mult_law),
        )
    )
