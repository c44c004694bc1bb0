"""Partial evaluation for finitely supported rational distributions.

The block structure of a distribution witness cannot be enumerated the
way multiset partitions can: infinitely many mixtures average to the
same thing.  Deciding whether p partially evaluates to q therefore goes
through an exact linear program, composition goes through Markov
kernels (dilations), and the constructive weak-pullback lift supplies
the higher cells by conditioning.  On the line the relation has an
independent characterization, second-order stochastic dominance, which
doubles as a cross-check.

Everything here is exact rational arithmetic, Fractions or integer rows
over a common denominator; no tolerance appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import NestedExpression, atom_key, mu_at
from .engine import Witness, _require_composable, witness_from_value
from .errors import (
    ConditioningUndefined,
    DepthMismatch,
    DimensionMismatch,
    DomainMismatch,
    InvalidDilation,
    MalformedExpression,
    PartialFunction,
    PevError,
    PreconditionViolated,
    UnsupportedInstance,
)
from .instances import DIST, ConvexAlgebra, as_fraction, dirac


# ---------------------------------------------------------------------------
# Exact linear programming.


@dataclass(frozen=True)
class LpProblem:
    """Equality constraints over nonnegative variables, all rational.

    `labels` names the variables and fixes their pivoting order; `rows`
    and `rhs` hold one equation per entry.
    """

    labels: tuple
    rows: tuple
    rhs: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        rows = tuple(tuple(as_fraction(c) for c in row) for row in self.rows)
        rhs = tuple(as_fraction(b) for b in self.rhs)
        if len(rows) != len(rhs):
            raise MalformedExpression("row and right-hand-side counts disagree")
        for row in rows:
            if len(row) != len(labels):
                raise MalformedExpression("constraint width does not match variables")
        if len(set(labels)) != len(labels):
            raise MalformedExpression("variable labels must be unique")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)


def lp_feasible(prob: LpProblem):
    """A nonnegative rational solution of the system, or None.

    Phase-1 simplex with Bland's rule on both the entering and the
    leaving choice; Bland precludes cycling, so the run always
    terminates, and identical inputs always pivot the same way.

    Each tableau row, and the reduced-cost row, is a list of integer
    numerators over one positive integer denominator, divided through
    by their gcd after every update.  Only signs and ratios steer the
    pivots: the sign of an entry is the sign of its numerator, and two
    ratios b_i/c_i within a row share the denominator, so they compare
    by cross-multiplying.  The pivot sequence, and so the returned
    vertex, is the one the same Bland simplex over Fractions takes.
    Whatever assignment comes out is substituted back into every
    constraint before being returned.
    """
    n = len(prob.labels)
    m = len(prob.rows)
    # Row i of the tableau reads tableau[i] / dens[i], the reduced-cost
    # row z / zden; the last entry of each is the right-hand side.
    tableau = []
    dens = []
    for i, (row, b) in enumerate(zip(prob.rows, prob.rhs)):
        den = math.lcm(b.denominator, *(c.denominator for c in row))
        sign = -1 if b < 0 else 1
        art = [0] * m
        art[i] = den
        tableau.append(
            [sign * c.numerator * (den // c.denominator) for c in row]
            + art
            + [sign * b.numerator * (den // b.denominator)]
        )
        dens.append(den)
    basis = list(range(n, n + m))

    # Reduced-cost row for minimizing the artificial total; the last
    # entry tracks the negated objective value, and the artificial
    # columns start at zero.
    zden = math.lcm(*dens)
    z = [0] * (n + m + 1)
    for row, den in zip(tableau, dens):
        f = zden // den
        z = [a - f * c for a, c in zip(z, row)]
    z[n : n + m] = [0] * m
    z, zden = _reduced(z, zden)

    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                ratio = tableau[i][-1] * tableau[leave][enter]
                best = tableau[leave][-1] * coeff
                if ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise PevError("artificial objective cannot be unbounded; solver bug")
        pivot, pden = _reduced(tableau[leave], tableau[leave][enter])
        tableau[leave], dens[leave] = pivot, pden
        for i in range(m):
            f = tableau[i][enter]
            if i != leave and f != 0:
                tableau[i], dens[i] = _reduced(
                    [a * pden - f * c for a, c in zip(tableau[i], pivot)],
                    dens[i] * pden,
                )
        f = z[enter]
        z, zden = _reduced([a * pden - f * c for a, c in zip(z, pivot)], zden * pden)
        basis[leave] = enter

    if z[-1] != 0:
        return None

    values = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            values[var] = Fraction(tableau[i][-1], dens[i])
    for row, b in zip(prob.rows, prob.rhs):
        if sum((c * v for c, v in zip(row, values)), Fraction(0)) != b:
            raise PevError("simplex output fails a constraint; solver bug")
    if any(v < 0 for v in values):
        raise PevError("simplex output went negative; solver bug")
    return dict(zip(prob.labels, values))


def _reduced(nums: list, den: int):
    """The row nums / den with the common factor of all entries divided out."""
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return [a // g for a in nums], den // g


# ---------------------------------------------------------------------------
# The LP decision procedure.


def _require_point_dist(x: NestedExpression, dimension: int) -> list:
    if x.monad != DIST or x.depth != 1:
        raise UnsupportedInstance("expected a depth-1 distribution")
    for a, _ in x.payload:
        if not isinstance(a, tuple) or len(a) != dimension:
            raise DimensionMismatch(
                f"support point {a!r} is not a {dimension}-dimensional point"
            )
    return list(x.payload)


def decide_pev(p: NestedExpression, q: NestedExpression, algebra: ConvexAlgebra):
    """Witness that p partially evaluates to q, or None.

    A witness can always be collapsed to one inner distribution s_b per
    target point b without touching its boundaries, so existence is a
    finite question about the joint weights x[b, a] = q(b)*s_b(a): both
    marginals are pinned and each s_b must average to its own b.  That
    system goes to the exact simplex; a feasible assignment is folded
    back into the witness Σ_b q(b)·δ(s_b).
    """
    if not isinstance(algebra, ConvexAlgebra):
        raise UnsupportedInstance("deciding distributions needs a barycenter algebra")
    d = algebra.dimension
    p_rows = _require_point_dist(p, d)
    q_rows = _require_point_dist(q, d)

    labels = tuple((b, a) for b, _ in q_rows for a, _ in p_rows)
    index = {lab: i for i, lab in enumerate(labels)}
    rows = []
    rhs = []
    for b, qb in q_rows:
        row = [Fraction(0)] * len(labels)
        for a, _ in p_rows:
            row[index[(b, a)]] = Fraction(1)
        rows.append(row)
        rhs.append(qb)
    for a, pa in p_rows:
        row = [Fraction(0)] * len(labels)
        for b, _ in q_rows:
            row[index[(b, a)]] = Fraction(1)
        rows.append(row)
        rhs.append(pa)
    for b, qb in q_rows:
        for c in range(d):
            row = [Fraction(0)] * len(labels)
            for a, _ in p_rows:
                row[index[(b, a)]] = Fraction(a[c])
            rows.append(row)
            rhs.append(qb * Fraction(b[c]))

    solution = lp_feasible(LpProblem(labels, tuple(rows), tuple(rhs)))
    if solution is None:
        return None

    outer = []
    for b, qb in q_rows:
        s_b = DIST.mix(((a, solution[(b, a)] / qb) for a, _ in p_rows), 0)
        outer.append((s_b, qb))
    value = NestedExpression(DIST, 2, DIST.mix(outer, 1))
    w = witness_from_value(value, algebra)
    if w.source != p or w.target != q:
        raise PevError("feasible LP produced mismatched boundaries; solver bug")
    return w


# ---------------------------------------------------------------------------
# Conditioning and the weak-pullback lift.


def lift_decomposition(p: NestedExpression, alpha: NestedExpression, f):
    """Lift a decomposition of the image f_*p back to a decomposition of p.

    Each block of alpha mixes the conditionals of p over the fibers of
    f, keeping alpha's outer weights.  Averaging the result returns p,
    and pushing f under its two layers returns alpha, which is the pair
    of equations making the naturality square a weak pullback.  The
    outcomes of p may themselves be nested values; f maps them to the
    nesting depth that alpha's inner entries carry.
    """
    if p.monad != DIST or alpha.monad != DIST:
        raise UnsupportedInstance("the lift is defined for distributions")
    if p.depth < 1 or alpha.depth < 2:
        raise DepthMismatch("need p at depth >= 1 and a decomposition at depth >= 2")
    inner_depth = p.depth - 1
    image_depth = alpha.depth - 2

    mapped = []
    for child, w in p.payload:
        try:
            fc = f(child)
        except Exception as exc:
            raise PartialFunction(f"lift map failed on {child!r}") from exc
        mapped.append((child, w, fc))
    image_payload = DIST.mix(((fc, w) for _, w, fc in mapped), image_depth)
    image = NestedExpression(DIST, image_depth + 1, image_payload)
    if mu_at(alpha, 0) != image:
        raise PreconditionViolated(
            f"decomposition averages to {mu_at(alpha, 0)}, but the image is {image}"
        )

    fibers: dict = {}
    for child, w, fc in mapped:
        entry = fibers.setdefault(DIST.key(fc, image_depth), [Fraction(0), []])
        entry[0] += w
        entry[1].append((child, w))

    out_pairs = []
    for block, aw in alpha.payload:
        rows = []
        for y, qw in block:
            entry = fibers.get(DIST.key(y, image_depth))
            if entry is None:
                raise ConditioningUndefined(f"no mass of p maps onto {y!r}")
            total, members = entry
            rows.extend((child, qw * w / total) for child, w in members)
        out_pairs.append((DIST.mix(rows, inner_depth), aw))
    beta = NestedExpression(
        DIST, inner_depth + 2, DIST.mix(out_pairs, inner_depth + 1)
    )

    # Both weak-pullback equations are theorems about the formula above,
    # so a failure here is a bug, not bad input.
    if mu_at(beta, 0) != p:
        raise PevError("lift failed to average back to p; internal bug")
    f_by_key = {DIST.key(child, inner_depth): fc for child, w, fc in mapped}
    pushed = DIST.mix(
        (
            (
                DIST.mix(
                    ((f_by_key[DIST.key(c, inner_depth)], w2) for c, w2 in block),
                    image_depth,
                ),
                aw,
            )
            for block, aw in beta.payload
        ),
        image_depth + 1,
    )
    if NestedExpression(DIST, image_depth + 2, pushed) != alpha:
        raise PevError("lift failed to push back onto the decomposition; internal bug")
    return beta


def dist_filler(first: Witness, second: Witness) -> NestedExpression:
    """Depth-3 filler over a composable pair of distribution witnesses.

    Reads first.value as a distribution whose outcomes are inner
    distributions and lifts second.value through the barycenter map:
    flattening the result's outer layers restores first.value, and
    evaluating under two layers restores second.value.
    """
    _require_composable(first, second)
    algebra = first.algebra
    if not isinstance(algebra, ConvexAlgebra):
        raise UnsupportedInstance("distribution fillers need a barycenter algebra")
    return lift_decomposition(first.value, second.value, algebra.eval_payload)


# ---------------------------------------------------------------------------
# Dilations.


def _point_barycenter(payload) -> tuple:
    dims = {len(a) for a, _ in payload}
    if len(dims) != 1:
        raise DimensionMismatch("support points have mixed dimensions")
    (d,) = dims
    coords = [Fraction(0)] * d
    for a, w in payload:
        for i, c in enumerate(a):
            coords[i] += w * Fraction(c)
    return tuple(coords)


@dataclass(frozen=True)
class Dilation:
    """A kernel spreading points into distributions centered on them.

    `table` lists the explicit entries; any point not listed is sent to
    the Dirac at itself, the fixed choice of extension.  Every listed
    value must have its own key as barycenter, checked exactly on
    construction; `base` is the distribution the kernel is meant to
    dilate.
    """

    base: NestedExpression
    table: tuple
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.base.monad != DIST or self.base.depth != 1:
            raise InvalidDilation("base must be a depth-1 distribution")
        try:
            DIST.check_payload(self.base.payload, 1)
        except MalformedExpression as exc:
            raise InvalidDilation(f"malformed base: {exc}") from exc
        d = None
        for a, _ in self.base.payload:
            if not isinstance(a, tuple):
                raise InvalidDilation(f"base support {a!r} is not a point")
            if d is None:
                d = len(a)
            elif len(a) != d:
                raise InvalidDilation("base support points have mixed dimensions")
        entries = []
        index = {}
        for a, value in self.table:
            if not isinstance(a, tuple) or (d is not None and len(a) != d):
                raise InvalidDilation(f"kernel domain point {a!r} has the wrong shape")
            if d is None:
                d = len(a)
            if (
                not isinstance(value, NestedExpression)
                or value.monad != DIST
                or value.depth != 1
            ):
                raise InvalidDilation(f"kernel value at {a!r} is not a distribution")
            if _point_barycenter(value.payload) != tuple(Fraction(c) for c in a):
                raise InvalidDilation(f"kernel value at {a!r} is not centered on it")
            k = atom_key(a)
            if k in index:
                raise InvalidDilation(f"duplicate kernel entry at {a!r}")
            index[k] = value
            entries.append((a, value))
        entries.sort(key=lambda av: atom_key(av[0]))
        object.__setattr__(self, "table", tuple(entries))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_dimension", d)

    @property
    def dimension(self) -> int:
        return object.__getattribute__(self, "_dimension")

    @property
    def domain(self) -> tuple:
        return tuple(a for a, _ in self.table)

    def at(self, a) -> NestedExpression:
        """Kernel value at a point; Dirac for points outside the table."""
        if not isinstance(a, tuple) or len(a) != self.dimension:
            raise DimensionMismatch(f"{a!r} is not a point of dimension {self.dimension}")
        hit = self._index.get(atom_key(a))
        return hit if hit is not None else dirac(a)

    def average(self) -> NestedExpression:
        """The mixture Σ_a base(a)·kernel(a); the source this dilation spreads to."""
        rows = []
        for a, w in self.base.payload:
            rows.extend((c, w * v) for c, v in self.at(a).payload)
        return NestedExpression(DIST, 1, DIST.mix(rows, 0))


def dirac_dilation(base: NestedExpression) -> Dilation:
    """The do-nothing kernel on a distribution's support."""
    return Dilation(base, tuple((a, dirac(a)) for a, _ in base.payload))


def dilation_from_witness(
    r: NestedExpression, p: NestedExpression, algebra: ConvexAlgebra
) -> Dilation:
    """Condition a witness value into a kernel on its target p.

    Requires that r's blocks push onto p under the barycenter map.  The
    kernel at a point a averages all blocks whose barycenter is a,
    weighted by their share of p(a); points outside p's support fall
    back to the Dirac extension.
    """
    if not isinstance(algebra, ConvexAlgebra):
        raise UnsupportedInstance("conditioning needs a barycenter algebra")
    if r.monad != DIST or r.depth != 2:
        raise UnsupportedInstance("expected a depth-2 distribution value")
    classes: dict = {}
    for s, w in r.payload:
        a = algebra.eval_payload(s)
        entry = classes.setdefault(atom_key(a), [a, Fraction(0), []])
        entry[1] += w
        entry[2].append((s, w))
    pushed = NestedExpression(
        DIST, 1, DIST.mix(((a, t) for a, t, _ in classes.values()), 0)
    )
    if pushed != p:
        raise PreconditionViolated(
            f"blocks push onto {pushed}, which is not the stated base {p}"
        )
    table = []
    for a, total, members in classes.values():
        rows = []
        for s, w in members:
            rows.extend((c, w * v / total) for c, v in s)
        table.append((a, NestedExpression(DIST, 1, DIST.mix(rows, 0))))
    k = Dilation(p, tuple(table))
    if k.average() != mu_at(r, 0):
        raise PevError("conditioning changed the average; internal bug")
    return k


def witness_from_dilation(k: Dilation) -> NestedExpression:
    """The depth-2 value Σ_a base(a)·δ(kernel(a)).

    Its two boundaries are the dilation's average and its base; the
    construction is the inverse direction of conditioning up to
    regrouping.  An invalid kernel cannot reach here, since Dilation
    rejects it at construction.
    """
    pairs = ((k.at(a).payload, w) for a, w in k.base.payload)
    return NestedExpression(DIST, 2, DIST.mix(pairs, 1))


def compose_kernels(k1: Dilation, k2: Dilation) -> Dilation:
    """Chain two dilations: run k1, then average k2 over each outcome.

    k2's base must be exactly k1's average, the distribution k1's
    outcomes land on.  Barycenters survive because averaging commutes
    with the convex structure, so the result is again a dilation, on
    k1's base.
    """
    if k1.dimension != k2.dimension:
        raise DomainMismatch(
            f"kernel dimensions {k1.dimension} and {k2.dimension} differ"
        )
    if k2.base != k1.average():
        raise DomainMismatch("second kernel is not based on the first one's average")
    domain_keys = {atom_key(a): a for a, _ in k1.table}
    for a, _ in k1.base.payload:
        domain_keys.setdefault(atom_key(a), a)
    table = []
    for a in domain_keys.values():
        rows = []
        for y, v in k1.at(a).payload:
            rows.extend((c, v * u) for c, u in k2.at(y).payload)
        table.append((a, NestedExpression(DIST, 1, DIST.mix(rows, 0))))
    return Dilation(k1.base, tuple(table))


def compose_dist_witnesses(first: Witness, second: Witness) -> Witness:
    """Composite witness through kernels rather than a depth-3 value.

    Both witnesses are conditioned into dilations of their targets,
    chained by Chapman-Kolmogorov in the decomposition direction, and
    folded back.  The result runs from first.source to second.target.
    """
    _require_composable(first, second)
    algebra = first.algebra
    if not isinstance(algebra, ConvexAlgebra):
        raise UnsupportedInstance("distribution composition needs a barycenter algebra")
    d1 = dilation_from_witness(first.value, first.target, algebra)
    d2 = dilation_from_witness(second.value, second.target, algebra)
    chained = compose_kernels(d2, d1)
    w = witness_from_value(witness_from_dilation(chained), algebra)
    if w.source != first.source or w.target != second.target:
        raise PevError("kernel composition broke the boundaries; internal bug")
    return w


# ---------------------------------------------------------------------------
# One-dimensional oracles.


def _scalar_rows(x: NestedExpression) -> list:
    if x.monad != DIST or x.depth != 1:
        raise UnsupportedInstance("expected a depth-1 distribution")
    merged: dict = {}
    for a, w in x.payload:
        if isinstance(a, tuple):
            if len(a) != 1:
                raise DimensionMismatch(f"{a!r} is not on the line")
            v = Fraction(a[0])
        elif isinstance(a, (int, Fraction)) and not isinstance(a, bool):
            v = Fraction(a)
        else:
            raise DimensionMismatch(f"{a!r} is not a rational on the line")
        merged[v] = merged.get(v, Fraction(0)) + w
    return sorted(merged.items())


def sosd_1d(p: NestedExpression, q: NestedExpression) -> bool:
    """Second-order stochastic dominance on the line, decided exactly.

    Means must agree and every truncated mean E[min(X, t)] with t in the
    joint support must favor q.  Kinked piecewise-linear functions are
    extremal among concave test functions, so for finite support this
    family decides the usual every-concave-function definition.

    One sweep over the sorted joint support decides every cutoff: below
    t, min(X, t) is X, and from t on it is t, so E[min(X, t)] is the
    first moment below t plus t times the mass from t on.  After the
    last point the first moments are the means.
    """
    pr = dict(_scalar_rows(p))
    qr = dict(_scalar_rows(q))
    p_rest = sum(pr.values(), Fraction(0))
    q_rest = sum(qr.values(), Fraction(0))
    p_moment = q_moment = Fraction(0)
    for t in sorted(pr.keys() | qr.keys()):
        if p_moment + t * p_rest > q_moment + t * q_rest:
            return False
        wp = pr.get(t, 0)
        wq = qr.get(t, 0)
        p_moment += t * wp
        q_moment += t * wq
        p_rest -= wp
        q_rest -= wq
    return p_moment == q_moment


def wasserstein1_1d(p: NestedExpression, q: NestedExpression) -> Fraction:
    """Exact area between the two cumulative distribution functions.

    Both CDFs are step functions, so the integral is a finite sum of
    rectangles between consecutive support points.
    """
    pr = dict(_scalar_rows(p))
    qr = dict(_scalar_rows(q))
    xs = sorted(set(pr) | set(qr))
    total = Fraction(0)
    fp = Fraction(0)
    fq = Fraction(0)
    for x, nxt in zip(xs, xs[1:]):
        fp += pr.get(x, Fraction(0))
        fq += qr.get(x, Fraction(0))
        total += abs(fp - fq) * (nxt - x)
    return total
