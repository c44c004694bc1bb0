"""The simplicial structure sitting over an algebra.

Level i holds the (i+1)-fold nested expressions.  The first i+1 face
maps flatten a chosen pair of adjacent layers, the last one evaluates
the innermost layer, and degeneracies insert trivial layers.  Level 0 is
expressions, level 1 is partial-evaluation witnesses, level 2 records
how two witnesses compose; inner-horn filling at level 2 is exactly
witness composition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AlgebraInstance, LawReport, LawResult, NestedExpression, eta_at, ev_under, mu_at
from .errors import (
    DepthMismatch,
    IndexOutOfRange,
    NotComposable,
    UnsupportedInstance,
)
from .engine import (
    DEFAULT_FIBER_LIMIT,
    DEFAULT_FILLER_LIMIT,
    DEFAULT_NODE_CAP,
    Witness,
    _fiber_table,
    _record,
    canonical_filler,
    enumerate_fillers,
    witness_from_value,
)
from .instances import DIST


@dataclass(frozen=True)
class Simplex:
    """A level-i cell: an (i+1)-fold nested expression plus its algebra."""

    algebra: AlgebraInstance
    level: int
    value: NestedExpression

    def __post_init__(self):
        if self.value.depth != self.level + 1:
            raise DepthMismatch(
                f"level-{self.level} simplex needs depth {self.level + 1}, "
                f"got {self.value.depth}"
            )
        if self.value.monad != self.algebra.monad:
            raise UnsupportedInstance("simplex instance does not match its algebra")

    def __str__(self):
        return f"[{self.level}] {self.value}"


def vertex(algebra: AlgebraInstance, x: NestedExpression) -> Simplex:
    return Simplex(algebra, 0, x)


def simplex_from_witness(w: Witness) -> Simplex:
    return Simplex(w.algebra, 1, w.value)


def witness_from_simplex(x: Simplex) -> Witness:
    if x.level != 1:
        raise DepthMismatch("witnesses are level-1 simplices")
    return witness_from_value(x.value, x.algebra)


def face(x: Simplex, j: int) -> Simplex:
    """The j-th face, one level down.

    Indices 0..level-1 flatten layers j and j+1; index `level` evaluates
    the innermost layer.  At level 1 the two faces are the witness
    boundaries: face 0 is the source, face 1 the target.
    """
    if x.level == 0:
        raise IndexOutOfRange("level-0 simplices have no faces")
    if not 0 <= j <= x.level:
        raise IndexOutOfRange(f"face index {j} invalid at level {x.level}")
    if j < x.level:
        return Simplex(x.algebra, x.level - 1, mu_at(x.value, j))
    return Simplex(x.algebra, x.level - 1, ev_under(x.value, x.algebra, x.level))


def degeneracy(x: Simplex, j: int) -> Simplex:
    """The j-th degeneracy, one level up: a trivial layer at position j."""
    if not 0 <= j <= x.level:
        raise IndexOutOfRange(f"degeneracy index {j} invalid at level {x.level}")
    return Simplex(x.algebra, x.level + 1, eta_at(x.value, j + 1))


def fill_inner_horn(k: Simplex, h: Simplex) -> Simplex:
    """A level-2 simplex z with face 0 == k and face 2 == h.

    Requires the inner-horn condition face(k, 1) == face(h, 0): k's
    target is h's source.  face(z, 1) is then the composite edge.  The
    enumerable instances use the canonical matching filler; over
    distributions the filler is built by conditioning (see
    stochastics.dist_filler).
    """
    if k.level != 1 or h.level != 1:
        raise DepthMismatch("horn filling expects two level-1 simplices")
    if face(k, 1).value != face(h, 0).value:
        raise NotComposable(
            f"horn does not close: {face(k, 1).value} vs {face(h, 0).value}"
        )
    first = witness_from_simplex(k)
    second = witness_from_simplex(h)
    if k.algebra.monad == DIST:
        from .stochastics import dist_filler

        z_value = dist_filler(first, second)
    else:
        z_value = canonical_filler(first, second)
    z = Simplex(k.algebra, 2, z_value)
    if face(z, 0).value != k.value or face(z, 2).value != h.value:
        raise NotComposable("filler does not restrict to the given horn")
    return z


def check_simplicial_identities(
    algebra: AlgebraInstance,
    samples,
    face_fn=face,
    degeneracy_fn=degeneracy,
) -> LawReport:
    """Verify the five simplicial identity families on sample simplices.

    Samples may be Simplex cells or bare nested expressions (depth d
    becomes a level d-1 cell).  Every identity instance valid at a
    sample's level is checked by exact value comparison.  The face and
    degeneracy maps are injectable so a corrupted implementation can be
    shown to fail.
    """
    samples = [
        x if isinstance(x, Simplex) else Simplex(algebra, x.depth - 1, x)
        for x in samples
    ]

    def check(law, cases):
        checked = 0
        for x, i, j, lhs, rhs in cases:
            checked += 1
            if lhs.value != rhs.value:
                return LawResult(law, False, checked, (x.value, i, j, lhs.value, rhs.value))
        return LawResult(law, True, checked)

    def face_face():
        for x in samples:
            L = x.level
            for j in range(L + 1):
                for i in range(j):
                    if L < 2:
                        continue
                    yield (
                        x, i, j,
                        face_fn(face_fn(x, j), i),
                        face_fn(face_fn(x, i), j - 1),
                    )

    def deg_deg():
        for x in samples:
            for j in range(x.level + 1):
                for i in range(j + 1):
                    yield (
                        x, i, j,
                        degeneracy_fn(degeneracy_fn(x, j), i),
                        degeneracy_fn(degeneracy_fn(x, i), j + 1),
                    )

    def face_deg_inner():
        for x in samples:
            for j in range(x.level + 1):
                for i in (j, j + 1):
                    yield (x, i, j, face_fn(degeneracy_fn(x, j), i), x)

    def face_deg_left():
        for x in samples:
            for j in range(x.level + 1):
                for i in range(j):
                    yield (
                        x, i, j,
                        face_fn(degeneracy_fn(x, j), i),
                        degeneracy_fn(face_fn(x, i), j - 1),
                    )

    def face_deg_right():
        for x in samples:
            for j in range(x.level + 1):
                for i in range(j + 2, x.level + 2):
                    yield (
                        x, i, j,
                        face_fn(degeneracy_fn(x, j), i),
                        degeneracy_fn(face_fn(x, i - 1), j),
                    )

    return LawReport(
        (
            check("face-face", face_face()),
            check("degeneracy-degeneracy", deg_deg()),
            check("face-degeneracy-inner", face_deg_inner()),
            check("face-degeneracy-left", face_deg_left()),
            check("face-degeneracy-right", face_deg_right()),
        )
    )


@dataclass(frozen=True)
class TruncatedComplex:
    """Levels 0..max_level reachable from a seed, with incidence tables.

    faces[i][s] lists, for the s-th level-i simplex, the index of each
    face in level i-1 (i >= 1).  degeneracies[i][s] lists the index in
    level i+1 of each degeneracy of the s-th level-i simplex
    (i < max_level).
    """

    algebra: AlgebraInstance
    max_level: int
    levels: tuple[tuple[NestedExpression, ...], ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]
    degeneracies: tuple[tuple[tuple[int, ...], ...], ...]

    def simplex(self, level: int, index: int) -> Simplex:
        return Simplex(self.algebra, level, self.levels[level][index])

    def size(self, level: int) -> int:
        return len(self.levels[level])

    def check_incidence(self) -> bool:
        """Recompute every recorded face and degeneracy, exactly."""
        index_of = [
            {x.key(): i for i, x in enumerate(level)} for level in self.levels
        ]
        for lvl in range(1, self.max_level + 1):
            for s, x in enumerate(self.levels[lvl]):
                cell = Simplex(self.algebra, lvl, x)
                recorded = self.faces[lvl][s]
                actual = tuple(
                    index_of[lvl - 1][face(cell, j).value.key()]
                    for j in range(lvl + 1)
                )
                if recorded != actual:
                    return False
        for lvl in range(self.max_level):
            for s, x in enumerate(self.levels[lvl]):
                cell = Simplex(self.algebra, lvl, x)
                recorded = self.degeneracies[lvl][s]
                actual = tuple(
                    index_of[lvl + 1][degeneracy(cell, j).value.key()]
                    for j in range(lvl + 1)
                )
                if recorded != actual:
                    return False
        return True


def build_truncated_complex(
    seed: NestedExpression,
    algebra: AlgebraInstance,
    max_level: int = 2,
    fiber_limit: int = DEFAULT_FIBER_LIMIT,
    node_cap: int = DEFAULT_NODE_CAP,
    filler_limit: int = DEFAULT_FILLER_LIMIT,
) -> TruncatedComplex:
    """Levels 0..max_level of the simplicial set reachable from `seed`.

    Level 0 is the reduction graph's node set, level 1 every witness
    between nodes, level 2 every distinct filler of a composable pair of
    witnesses.  Degenerate cells are included automatically because the
    trivial witnesses lie in every fiber.  Beyond level 2 the higher
    cells are out of scope, so max_level is capped at 2.

    Everything is read off the one pass over the fibers behind
    `reduction_graph`.  A level-1 cell is a payload of its source's
    fiber, so its faces (source, target) are the two node ranks the
    pass recorded.  The degeneracy of a vertex x is its identity
    witness eta_at(x, 1).  A level-2 filler z of (w, h) has face 0 = w
    and face 2 = h by construction, so only face 1 = mu_at(z, 1) and
    the level-1 degeneracies eta_at(w, 1), eta_at(w, 2) are computed,
    then looked up by key.  `check_incidence` recomputes every face
    and degeneracy independently, from the cells alone.
    """
    if not 0 <= max_level <= 2:
        raise UnsupportedInstance("truncation is supported for levels 0..2 only")
    nodes, rows = _fiber_table(seed, algebra, fiber_limit, node_cap)
    monad = algebra.monad

    levels: list[tuple[NestedExpression, ...]] = [tuple(nodes)]
    faces: list[tuple] = [()]
    degeneracies: list[tuple] = []
    if max_level >= 1:
        cells = []
        for u, row in enumerate(rows):
            for payload, v in row:
                value = NestedExpression(monad, 2, payload)
                w = _record(Witness(value, nodes[u], nodes[v], algebra))
                cells.append((value.key(), w, (u, v)))
        cells.sort(key=lambda cell: cell[0])
        index1 = {k: i for i, (k, _, _) in enumerate(cells)}
        levels.append(tuple(w.value for _, w, _ in cells))
        faces.append(tuple(f for _, _, f in cells))
        degeneracies.append(tuple((index1[eta_at(x, 1).key()],) for x in nodes))
    if max_level >= 2:
        by_source: list[list[int]] = [[] for _ in nodes]
        for i, (_, _, (u, _)) in enumerate(cells):
            by_source[u].append(i)
        cells2: dict = {}
        for i, (_, w, (_, v)) in enumerate(cells):
            for j in by_source[v]:
                for z in enumerate_fillers(w, cells[j][1], filler_limit):
                    cells2[z.key()] = (z, i, j)
        ordered = sorted(cells2.items(), key=lambda item: item[0])
        index2 = {k: i for i, (k, _) in enumerate(ordered)}
        levels.append(tuple(z for _, (z, _, _) in ordered))
        faces.append(tuple(
            (i, index1[mu_at(z, 1).key()], j) for _, (z, i, j) in ordered
        ))
        degeneracies.append(tuple(
            (index2[eta_at(x, 1).key()], index2[eta_at(x, 2).key()])
            for x in levels[1]
        ))
    degeneracies.append(())

    return TruncatedComplex(
        algebra, max_level, tuple(levels), tuple(faces), tuple(degeneracies)
    )
