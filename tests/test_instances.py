"""Concrete container families, monoids, algebras, and their fibers."""

from fractions import Fraction

import pytest

from parteval import (
    DIST,
    LIST,
    MULTISET,
    TERMINAL,
    ActionMonad,
    EnumerationLimitExceeded,
    MalformedExpression,
    MonadInstance,
    Monoid,
    NestedExpression,
    UnsupportedInstance,
    action_algebra,
    action_expression,
    as_fraction,
    barycenter,
    commutative_monoid_algebra,
    convex_algebra,
    cyclic,
    dirac,
    dist_average,
    dist_pushforward,
    distribution,
    expression,
    list_expression,
    monoid_algebra,
    multiset_expression,
    nat_add_algebra,
    point,
    self_action_algebra,
    terminal_algebra,
)
from oracles import list_splits_oracle, multiset_fiber_oracle

# Bell numbers count partitions of bags with all-distinct atoms.
BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_multiset_fiber_counts_match_bell_numbers(n):
    p = multiset_expression(range(n))
    assert len(MULTISET.mu_fiber(p.payload, limit=8)) == BELL[n]


def test_multiset_fiber_deduplicates_repeated_atoms():
    # {1, 1, 2} has 4 partitions, not Bell(3) = 5: the two copies of 1
    # are indistinguishable.
    p = multiset_expression([1, 1, 2])
    fiber = MULTISET.mu_fiber(p.payload, limit=8)
    assert len(fiber) == 4
    rendered = sorted(str(NestedExpression(MULTISET, 2, f)) for f in fiber)
    assert rendered == [
        "{{1, 1, 2}}",
        "{{1, 1}, {2}}",
        "{{1}, {1, 2}}",
        "{{1}, {1}, {2}}",
    ]


@pytest.mark.parametrize(
    "atoms",
    [[], [5], [1, 2, 3], [1, 1, 2], [2, 2, 2, 7], [1, 1, 2, 2, 3], [0, 0, 0, 0, 0], ["a", "b", "b"]],
)
def test_multiset_fiber_agrees_with_partition_oracle(atoms):
    p = multiset_expression(atoms)
    fiber = MULTISET.mu_fiber(p.payload, limit=8)
    oracle = multiset_fiber_oracle(atoms)
    assert [MULTISET.key(f, 2) for f in fiber] == [
        MULTISET.key(f, 2) for f in oracle
    ]


def test_multiset_fiber_respects_the_limit():
    p = multiset_expression(range(9))
    with pytest.raises(EnumerationLimitExceeded):
        MULTISET.mu_fiber(p.payload, limit=8)


@pytest.mark.parametrize("atoms", [[], [1], [1, 2, 3], ["a", "a", "b", "b"], [3, 1, 3, 1, 2]])
def test_list_fiber_is_the_composition_set(atoms):
    p = list_expression(atoms)
    fiber = LIST.mu_fiber(p.payload, limit=10)
    expected = 1 if not atoms else 2 ** (len(atoms) - 1)
    assert len(fiber) == expected
    assert fiber == list_splits_oracle(atoms)


def test_list_fiber_matches_oracle_exactly():
    atoms = ["x", "y", "x", "z"]
    fiber = LIST.mu_fiber(list_expression(atoms).payload, limit=10)
    assert sorted(set(fiber)) == sorted(list_splits_oracle(atoms))
    assert len(fiber) == 8


def test_dist_fiber_is_refused():
    p = distribution([(1, Fraction(1, 2)), (2, Fraction(1, 2))])
    with pytest.raises(UnsupportedInstance):
        DIST.mu_fiber(p.payload)


def test_terminal_fiber_is_a_single_token():
    assert TERMINAL.mu_fiber(TERMINAL.POINT) == [TERMINAL.POINT]


# ---------------------------------------------------------------------------
# Monoids and actions.


def test_monoid_constructor_validates_structure():
    with pytest.raises(MalformedExpression):
        Monoid("bad", [0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 5}, 0)
    # (a*b)*c != a*(b*c) on a handmade non-associative table.
    table = {
        (0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0,
        (0, 2): 2, (2, 0): 2, (1, 2): 2, (2, 1): 0, (2, 2): 1,
    }
    with pytest.raises(MalformedExpression):
        Monoid("nonassoc", [0, 1, 2], table, 0)


def test_cyclic_groups_know_their_inverses():
    c4 = cyclic(4)
    assert c4.is_group
    assert c4.inverse(3) == 1
    assert c4.op(2, 3) == 1
    assert c4.is_commutative()


def test_action_fiber_size_equals_group_order():
    c4 = cyclic(4)
    monad = ActionMonad(c4)
    payload = action_expression(c4, 2, 3).payload
    fiber = monad.mu_fiber(payload, limit=10)
    assert len(fiber) == 4
    assert all(c4.op(h, l) == 2 and x == 3 for (h, (l, x)) in fiber)


Z6_MUL = Monoid("Z6mul", range(6), {(a, b): a * b % 6 for a in range(6) for b in range(6)}, 1)


@pytest.mark.parametrize(
    "algebra,raw",
    [
        (nat_add_algebra(), [1, 2, 2, 3, 3, 4]),
        (commutative_monoid_algebra(Z6_MUL), [0, 0, 2, 3, 3, 5]),
        (monoid_algebra(cyclic(4)), [1, 3, 2, 2, 0, 1, 3]),
        (self_action_algebra(cyclic(6)), (4, 1)),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_directed_fiber_search_equals_filtering_the_fiber(algebra, raw):
    monad = algebra.monad
    payload = expression(monad, 1, raw).payload
    targets = {
        monad.fmap(algebra.eval_payload, f, 2, 0) for f in monad.mu_fiber(payload, limit=10)
    }
    for target in targets:
        filtered = MonadInstance.mu_fiber_to(monad, payload, target, algebra.eval_payload)
        assert filtered
        assert monad.mu_fiber_to(payload, target, algebra.eval_payload) == filtered


def test_action_monad_unit_and_mult():
    c6 = cyclic(6)
    monad = ActionMonad(c6)
    assert monad.unit((2, 5)) == (0, (2, 5))
    assert monad.mult((4, (3, 1)), 2) == (1, 1)


# ---------------------------------------------------------------------------
# Algebras.


def test_nat_add_folds_with_multiplicity():
    alg = nat_add_algebra()
    assert alg.eval(multiset_expression([3, 3, 4])) == 10
    assert alg.eval(multiset_expression([])) == 0


def test_commutative_monoid_algebra_requires_commutativity():
    c4 = cyclic(4)
    alg = commutative_monoid_algebra(c4)
    assert alg.eval(expression(MULTISET, 1, [1, 2, 3])) == 2
    # Left-projection semigroup with an identity adjoined: associative,
    # but a*b = a while b*a = b.
    left = Monoid(
        "left-wins",
        ["e", "a", "b"],
        {
            ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
            ("a", "e"): "a", ("a", "a"): "a", ("a", "b"): "a",
            ("b", "e"): "b", ("b", "a"): "b", ("b", "b"): "b",
        },
        "e",
    )
    assert not left.is_commutative()
    with pytest.raises(MalformedExpression):
        commutative_monoid_algebra(left)


def test_list_fold_respects_order():
    # Order matters in a non-commutative monoid: two-element strings
    # under "keep the right letter unless it is the identity".
    m = Monoid(
        "right-wins",
        ["e", "a", "b"],
        {
            ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
            ("a", "e"): "a", ("a", "a"): "a", ("a", "b"): "b",
            ("b", "e"): "b", ("b", "a"): "a", ("b", "b"): "b",
        },
        "e",
    )
    alg = monoid_algebra(m)
    assert alg.eval(list_expression(["a", "b"])) == "b"
    assert alg.eval(list_expression(["b", "a"])) == "a"
    assert alg.eval(list_expression([])) == "e"


def test_self_action_evaluates_by_translation():
    c6 = cyclic(6)
    alg = self_action_algebra(c6)
    assert alg.eval(action_expression(c6, 4, 5)) == 3


def test_action_algebra_validates_the_table():
    c2 = cyclic(2)
    # The identity must act trivially; here 0 moves "x".
    bad = {(0, "x"): "y", (0, "y"): "y", (1, "x"): "y", (1, "y"): "x"}
    with pytest.raises(MalformedExpression):
        action_algebra(c2, ["x", "y"], bad)
    good = {(0, "x"): "x", (0, "y"): "y", (1, "x"): "y", (1, "y"): "x"}
    alg = action_algebra(c2, ["x", "y"], good)
    assert alg.eval(expression(alg.monad, 1, (1, "x"))) == "y"


def test_convex_algebra_takes_exact_barycenters():
    alg = convex_algebra(2)
    p = distribution(
        [(point(0, 0), Fraction(1, 3)), (point(1, 1), Fraction(2, 3))]
    )
    assert alg.eval(p) == (Fraction(2, 3), Fraction(2, 3))
    assert barycenter(alg, p) == (Fraction(2, 3), Fraction(2, 3))


def test_terminal_algebra_collapses_everything():
    alg = terminal_algebra()
    x = expression(TERMINAL, 1, "anything")
    assert alg.eval(x) == "pt"


# ---------------------------------------------------------------------------
# Distribution helpers.


def test_pushforward_merges_preimages():
    p = distribution([(1, Fraction(1, 4)), (-1, Fraction(1, 4)), (0, Fraction(1, 2))])
    q = dist_pushforward(abs, p)
    assert q.payload == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))


def test_dist_average_flattens_one_level():
    fair = distribution([("H", Fraction(1, 2)), ("T", Fraction(1, 2))])
    sure = dirac("H")
    xi = expression(
        DIST, 2, [(fair.payload, Fraction(1, 2)), (sure.payload, Fraction(1, 2))]
    )
    assert dist_average(xi) == distribution(
        [("H", Fraction(3, 4)), ("T", Fraction(1, 4))]
    )


def test_as_fraction_accepts_pairs_and_rejects_floats():
    assert as_fraction([3, 4]) == Fraction(3, 4)
    assert as_fraction("2/5") == Fraction(2, 5)
    with pytest.raises(MalformedExpression):
        as_fraction(0.75)
    with pytest.raises(MalformedExpression):
        as_fraction(True)


def test_point_builds_exact_tuples():
    assert point(1, [1, 2]) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(MalformedExpression):
        point(0.5)
