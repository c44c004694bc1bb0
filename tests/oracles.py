"""Independent brute-force reference implementations.

Everything here recomputes, by the dumbest correct method available,
quantities the library computes cleverly.  Tests freeze small outputs
of these oracles or compare them wholesale against the library; the
oracles deliberately share no code with the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from parteval import MULTISET, NestedExpression, ev_under


def set_partitions(items):
    """Every set partition of a sequence of labeled occurrences.

    Yields lists of lists.  The count over n distinct items is the nth
    Bell number: 1, 1, 2, 5, 15, 52, 203, ...
    """
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[head]] + [list(block) for block in partition]
        for i in range(len(partition)):
            copy = [list(block) for block in partition]
            copy[i].append(head)
            yield copy


def multiset_fiber_oracle(atoms):
    """Canonical depth-2 payloads of every partition of a bag of atoms.

    Builds all set partitions of the occurrence list and dedupes by
    canonical key, which is exactly what a multiset partition is.
    """
    seen = {}
    for partition in set_partitions(atoms):
        blocks = [MULTISET.bag(((a, 1) for a in block), 0) for block in partition]
        payload = MULTISET.bag(((b, 1) for b in blocks), 1)
        seen[MULTISET.key(payload, 2)] = payload
    return [seen[k] for k in sorted(seen)]


def pev_targets_oracle(fiber, algebra):
    """The one-step relation out of a fiber of depth-2 payloads.

    Maps each target's key to the target and the set of witness keys
    that evaluate to it.
    """
    out: dict = {}
    for payload in fiber:
        value = NestedExpression(algebra.monad, 2, payload)
        target = ev_under(value, algebra, 1)
        out.setdefault(target.key(), (target, set()))[1].add(value.key())
    return out


def list_splits_oracle(atoms):
    """All 2^(n-1) splittings of a tuple into contiguous nonempty runs."""
    atoms = tuple(atoms)
    n = len(atoms)
    if n == 0:
        return [()]
    out = set()
    for mask in range(1 << (n - 1)):
        blocks = []
        start = 0
        for gap in range(n - 1):
            if mask & (1 << gap):
                blocks.append(atoms[start : gap + 1])
                start = gap + 1
        blocks.append(atoms[start:])
        out.add(tuple(blocks))
    return sorted(out)


# ---------------------------------------------------------------------------
# Exact linear-programming feasibility by basic-solution enumeration.


def _rank(matrix):
    rows = [row[:] for row in matrix]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1, 1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _solve_on_columns(rows, rhs, cols):
    """One exact solution of the system restricted to `cols`, or None.

    Gauss-Jordan on the m x (k+1) system; free variables go to zero.
    Any returned vector satisfies every original equation exactly.
    """
    m = len(rows)
    k = len(cols)
    aug = [[rows[i][c] for c in cols] + [rhs[i]] for i in range(m)]
    pivots = []
    row_at = 0
    for col in range(k):
        pivot = next((i for i in range(row_at, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[row_at], aug[pivot] = aug[pivot], aug[row_at]
        inv = Fraction(1, 1) / aug[row_at][col]
        aug[row_at] = [v * inv for v in aug[row_at]]
        for i in range(m):
            if i != row_at and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[row_at])]
        pivots.append(col)
        row_at += 1
    for i in range(row_at, m):
        if aug[i][k] != 0:
            return None
    values = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        values[col] = aug[r][k]
    return dict(zip(cols, values))


def lp_feasible_oracle(rows, rhs):
    """Does A x = b admit x >= 0?  Searches basic solutions exhaustively.

    If any feasible point exists, one exists supported on at most
    rank(A) columns, so trying every column subset of that size is
    complete.  Exponential, fine for the tiny systems in tests.
    """
    rows = [[Fraction(v) for v in row] for row in rows]
    rhs = [Fraction(v) for v in rhs]
    if not rows:
        return True
    n = len(rows[0])
    rank_a = _rank(rows)
    rank_ab = _rank([row + [b] for row, b in zip(rows, rhs)])
    if rank_ab > rank_a:
        return False
    if rank_a == 0:
        return True
    for cols in itertools.combinations(range(n), min(rank_a, n)):
        solution = _solve_on_columns(rows, rhs, cols)
        if solution is not None and all(v >= 0 for v in solution.values()):
            return True
    return False


def fm_feasible(rows, rhs):
    """Fourier-Motzkin elimination for {A x = b, x >= 0}, exact.

    Each equality becomes two inequalities, nonnegativity adds one per
    variable, then variables are eliminated one at a time by pairing
    opposite-sign rows.  Feasible iff no contradictory constant row
    survives.  Doubly exponential in principle; meant for <= 6 vars.
    """
    constraints = set()  # rows (c_0..c_{n-1}, d) meaning sum c_i x_i <= d

    def normalize(coeffs, bound):
        scale = next((abs(c) for c in coeffs if c != 0), None)
        if scale is None:
            return (tuple(Fraction(0) for _ in coeffs), bound if bound < 0 else Fraction(0))
        return (tuple(c / scale for c in coeffs), bound / scale)

    n = len(rows[0]) if rows else 0
    for row, b in zip(rows, rhs):
        row = [Fraction(v) for v in row]
        b = Fraction(b)
        constraints.add(normalize(row, b))
        constraints.add(normalize([-v for v in row], -b))
    for i in range(n):
        unit = [Fraction(0)] * n
        unit[i] = Fraction(-1)
        constraints.add(normalize(unit, Fraction(0)))

    for var in range(n):
        pos, neg, rest = [], [], []
        for coeffs, bound in constraints:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, bound))
            elif c < 0:
                neg.append((coeffs, bound))
            else:
                rest.append((coeffs, bound))
        new = set(rest)
        for pc, pb in pos:
            for nc, nb in neg:
                # Scale so the var cancels: row_p / p_coeff + row_n / |n_coeff|.
                scale_p = Fraction(1) / pc[var]
                scale_n = Fraction(1) / -nc[var]
                coeffs = tuple(
                    a * scale_p + b_ * scale_n for a, b_ in zip(pc, nc)
                )
                bound = pb * scale_p + nb * scale_n
                new.add(normalize(coeffs, bound))
        constraints = new

    return all(bound >= 0 for coeffs, bound in constraints)
