"""Exact LP decision, lifts, dilations, dominance, and Wasserstein."""

import random
from fractions import Fraction

import pytest

from parteval import (
    DIST,
    Dilation,
    DimensionMismatch,
    DomainMismatch,
    InvalidDilation,
    LpProblem,
    MalformedExpression,
    PreconditionViolated,
    UnsupportedInstance,
    compose_dist_witnesses,
    compose_kernels,
    convex_algebra,
    decide_pev,
    dilation_from_witness,
    dirac_dilation,
    dist_pushforward,
    distribution,
    expression,
    lift_decomposition,
    lp_feasible,
    mu_at,
    nat_add_algebra,
    point,
    sosd_1d,
    stochastics,
    validate_witness,
    wasserstein1_1d,
    witness_from_dilation,
    witness_from_value,
)
from parteval.sampling import (
    random_blockwise_witness_value,
    random_contraction,
    random_lift_triple,
    random_point_distribution,
)
from oracles import fm_feasible, lp_feasible_oracle, lp_feasible_reference

ALG1 = convex_algebra(1)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def pt_dist(pairs):
    """1-D point distribution from (scalar, weight) pairs."""
    return distribution([(point(a), w) for a, w in pairs])


# ---------------------------------------------------------------------------
# LpProblem and the exact simplex.


def test_lp_problem_validates_shapes():
    with pytest.raises(MalformedExpression):
        LpProblem(("x",), ((1, 2),), (1,))
    with pytest.raises(MalformedExpression):
        LpProblem(("x", "x"), ((1, 1),), (1,))
    with pytest.raises(MalformedExpression):
        LpProblem(("x",), ((1,), (1,)), (1,))


def test_lp_feasible_single_variable():
    assert lp_feasible(LpProblem(("x",), ((1,),), (1,))) == {"x": Fraction(1)}
    assert lp_feasible(LpProblem(("x",), ((1,),), (-1,))) is None


def test_lp_feasible_handles_negative_rhs_rows():
    # -x = -3 is feasible at x = 3 even though the raw rhs is negative.
    solution = lp_feasible(LpProblem(("x",), ((-1,),), (-3,)))
    assert solution == {"x": Fraction(3)}


def test_lp_feasible_on_the_transport_system():
    # The system behind splitting a unit of mass in half; a redundant
    # fourth row keeps the solution pinned from two directions.
    labels = ("a", "b")
    rows = ((1, 1), (1, 0), (0, 1), (0, 2))
    rhs = (1, HALF, HALF, 1)
    solution = lp_feasible(LpProblem(labels, rows, rhs))
    assert solution == {"a": HALF, "b": HALF}


def _decide_pev_systems(monkeypatch, pairs, algebra):
    """The LP problems decide_pev poses for each (p, q), left unsolved."""
    posed = []
    monkeypatch.setattr(stochastics, "lp_feasible", posed.append)
    for p, q in pairs:
        decide_pev(p, q, algebra)
    monkeypatch.undo()
    return posed


def _random_system(rng, n_max, m_max, coeff, rhs):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    rows = tuple(tuple(coeff() for _ in range(n)) for _ in range(m))
    return LpProblem(tuple(f"x{i}" for i in range(n)), rows, tuple(rhs() for _ in range(m)))


def test_lp_feasible_agrees_with_both_desk_oracles(monkeypatch):
    # The vertex, not only feasibility, must match the Fraction simplex:
    # the printed witness is built from it.
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 6)
        m = rng.randint(1, 3)
        rows = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(m)
        )
        rhs = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m))
        labels = tuple(f"x{i}" for i in range(n))
        prob = LpProblem(labels, rows, rhs)
        got = lp_feasible(prob)
        assert got == lp_feasible_reference(prob)
        assert (got is not None) == fm_feasible([list(r) for r in rows], list(rhs))
        if n <= 5:
            want = lp_feasible_oracle([list(r) for r in rows], list(rhs))
            assert (got is not None) == want
        if got is not None:
            for row, b in zip(rows, rhs):
                assert sum(c * got[l] for c, l in zip(row, labels)) == b
            assert all(v >= 0 for v in got.values())

    # Large denominators, and 0/1 systems whose ratio tests tie often.
    def big():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    def bit():
        return Fraction(rng.randint(0, 1))

    problems = [_random_system(rng, 6, 3, big, big) for _ in range(150)]
    problems += [_random_system(rng, 6, 4, bit, bit) for _ in range(300)]
    for prob in problems:
        got = lp_feasible(prob)
        assert got == lp_feasible_reference(prob)
        assert (got is not None) == fm_feasible(
            [list(r) for r in prob.rows], list(prob.rhs)
        )

    # The transport systems decide_pev builds: a fine p against a coarse
    # q that it spreads onto (feasible) and the reverse (mostly not), on
    # the line and in the plane, some with large weight denominators.
    for dim in (1, 2):
        algebra = convex_algebra(dim)
        pairs = []
        for k in range(12):
            p = random_point_distribution(
                rng, dim, max_points=8, max_den=997 if k % 3 == 0 else 12
            )
            q = random_contraction(p, rng, algebra)
            pairs += [(p, q), (q, p)]
        for prob in _decide_pev_systems(monkeypatch, pairs, algebra):
            assert lp_feasible(prob) == lp_feasible_reference(prob)


# ---------------------------------------------------------------------------
# decide_pev.


def test_decide_pev_total_evaluation_case():
    p = pt_dist([(0, HALF), (2, HALF)])
    q = pt_dist([(1, 1)])
    w = decide_pev(p, q, ALG1)
    assert w is not None
    assert validate_witness(w)
    assert w.source == p and w.target == q
    assert w.value == expression(DIST, 2, [([([0], HALF), ([2], HALF)], 1)])


def test_decide_pev_frozen_three_block_witness():
    p = pt_dist([(0, HALF), (2, HALF)])
    q = pt_dist([(0, QUARTER), (1, HALF), (2, QUARTER)])
    w = decide_pev(p, q, ALG1)
    assert w is not None
    # The constraint system pins the solution: the mass q keeps at the
    # endpoints can only come from the matching endpoint of p, and the
    # midpoint block must then mix the endpoints evenly.
    expected = expression(
        DIST,
        2,
        [
            ([([0], 1)], QUARTER),
            ([([0], HALF), ([2], HALF)], HALF),
            ([([2], 1)], QUARTER),
        ],
    )
    assert w.value == expected
    assert w.source == p and w.target == q


def test_decide_pev_infeasible_spread():
    p = pt_dist([(1, 1)])
    q = pt_dist([(0, HALF), (2, HALF)])
    assert decide_pev(p, q, ALG1) is None


def test_decide_pev_none_when_means_differ():
    rng = random.Random(8)

    def mean(d):
        return sum((w * a[0] for a, w in d.payload), Fraction(0))

    for _ in range(25):
        p = random_point_distribution(rng)
        q = random_point_distribution(rng)
        if mean(p) != mean(q):
            assert decide_pev(p, q, ALG1) is None


def test_decide_pev_is_reflexive():
    rng = random.Random(9)
    for _ in range(10):
        p = random_point_distribution(rng)
        w = decide_pev(p, p, ALG1)
        assert w is not None and w.source == p and w.target == p


def test_decide_pev_requires_convex_algebra_and_points():
    p = pt_dist([(0, 1)])
    with pytest.raises(UnsupportedInstance):
        decide_pev(p, p, nat_add_algebra())
    q2 = distribution([(point(0, 0), 1)])
    with pytest.raises(DimensionMismatch):
        decide_pev(p, q2, ALG1)


# ---------------------------------------------------------------------------
# Weak-pullback lift.


def test_lift_identity_function_is_trivial():
    p = distribution([(0, QUARTER), (1, Fraction(3, 4))])
    alpha = expression(DIST, 2, [(p.payload, 1)])
    beta = lift_decomposition(p, alpha, lambda a: a)
    assert beta == alpha


def test_lift_single_block_example():
    p = distribution([(0, QUARTER), (1, QUARTER), (2, HALF)])
    f = lambda x: "a" if x in (0, 1) else "b"
    alpha = expression(DIST, 2, [([("a", HALF), ("b", HALF)], 1)])
    beta = lift_decomposition(p, alpha, f)
    assert beta == expression(DIST, 2, [(p.payload, 1)])


def test_lift_two_block_example():
    p = distribution([(0, QUARTER), (1, QUARTER), (2, HALF)])
    f = lambda x: "a" if x in (0, 1) else "b"
    alpha = expression(DIST, 2, [([("a", 1)], HALF), ([("b", 1)], HALF)])
    beta = lift_decomposition(p, alpha, f)
    expected = expression(
        DIST, 2, [([(0, HALF), (1, HALF)], HALF), ([(2, 1)], HALF)]
    )
    assert beta == expected
    assert mu_at(beta, 0) == p
    assert dist_pushforward(f, beta) == alpha


def test_lift_rejects_mismatched_alpha():
    p = distribution([(0, HALF), (1, HALF)])
    alpha = expression(DIST, 2, [([("a", 1)], 1)])
    with pytest.raises(PreconditionViolated):
        lift_decomposition(p, alpha, lambda x: "a" if x == 0 else "b")


def test_lift_boundaries_on_random_triples():
    rng = random.Random(77)
    for _ in range(50):
        p, alpha, f = random_lift_triple(rng)
        beta = lift_decomposition(p, alpha, f)
        assert mu_at(beta, 0) == p
        assert dist_pushforward(f, beta) == alpha


# ---------------------------------------------------------------------------
# Dilations.


def test_dilation_validates_the_barycenter_invariant():
    base = pt_dist([(1, 1)])
    spread = pt_dist([(0, HALF), (2, HALF)])
    good = Dilation(base, ((point(1), spread),))
    assert good.at(point(1)) == spread
    with pytest.raises(InvalidDilation):
        Dilation(base, ((point(1), pt_dist([(0, HALF), (3, HALF)])),))
    with pytest.raises(InvalidDilation):
        Dilation(base, ((point(1), spread), (point(1), spread)))


def test_dilation_defaults_to_dirac_off_the_table():
    base = pt_dist([(0, HALF), (2, HALF)])
    k = dirac_dilation(base)
    assert k.at(point(0)) == pt_dist([(0, 1)])
    assert k.at(point(99)) == pt_dist([(99, 1)])
    assert k.average() == base


def test_dilation_average_mixes_the_kernel():
    base = pt_dist([(1, 1)])
    k = Dilation(base, ((point(1), pt_dist([(0, HALF), (2, HALF)])),))
    assert k.average() == pt_dist([(0, HALF), (2, HALF)])


def test_dilation_from_witness_single_block():
    r = expression(DIST, 2, [([([0], HALF), ([2], HALF)], 1)])
    p = pt_dist([(1, 1)])
    k = dilation_from_witness(r, p, ALG1)
    assert k.at(point(1)) == pt_dist([(0, HALF), (2, HALF)])


def test_dilation_from_witness_three_blocks():
    r = expression(
        DIST,
        2,
        [
            ([([0], 1)], QUARTER),
            ([([0], HALF), ([2], HALF)], HALF),
            ([([2], 1)], QUARTER),
        ],
    )
    p = pt_dist([(0, QUARTER), (1, HALF), (2, QUARTER)])
    k = dilation_from_witness(r, p, ALG1)
    assert k.at(point(0)) == pt_dist([(0, 1)])
    assert k.at(point(1)) == pt_dist([(0, HALF), (2, HALF)])
    assert k.at(point(2)) == pt_dist([(2, 1)])


def test_dilation_from_witness_merges_blocks_with_equal_centers():
    # Two distinct blocks share barycenter 1; conditioning pools them.
    r = expression(
        DIST,
        2,
        [
            ([([0], HALF), ([2], HALF)], HALF),
            ([([1], 1)], HALF),
        ],
    )
    p = pt_dist([(1, 1)])
    k = dilation_from_witness(r, p, ALG1)
    assert k.at(point(1)) == pt_dist([(0, QUARTER), (1, HALF), (2, QUARTER)])


def test_dilation_from_witness_enforces_the_precondition():
    r = expression(DIST, 2, [([([0], HALF), ([2], HALF)], 1)])
    wrong_p = pt_dist([(0, 1)])
    with pytest.raises(PreconditionViolated):
        dilation_from_witness(r, wrong_p, ALG1)


def test_witness_from_dilation_single_term():
    p = pt_dist([(1, 1)])
    k = Dilation(p, ((point(1), pt_dist([(0, HALF), (2, HALF)])),))
    r = witness_from_dilation(k)
    assert r == expression(DIST, 2, [([([0], HALF), ([2], HALF)], 1)])


def test_dilation_round_trip_preserves_boundaries():
    rng = random.Random(31)
    for _ in range(40):
        r = random_blockwise_witness_value(random_point_distribution(rng), rng)
        w = witness_from_value(r, ALG1)
        k = dilation_from_witness(r, w.target, ALG1)
        back = witness_from_value(witness_from_dilation(k), ALG1)
        assert back.source == w.source
        assert back.target == w.target


def test_compose_kernels_frozen_example():
    p = pt_dist([(1, 1)])
    q = pt_dist([(0, HALF), (2, HALF)])
    k1 = Dilation(p, ((point(1), q),))
    k2 = Dilation(
        q,
        (
            (point(0), pt_dist([(-1, HALF), (1, HALF)])),
            (point(2), pt_dist([(1, HALF), (3, HALF)])),
        ),
    )
    composite = compose_kernels(k1, k2)
    assert composite.base == p
    assert composite.at(point(1)) == pt_dist([(-1, QUARTER), (1, HALF), (3, QUARTER)])


def test_compose_kernels_dirac_identities():
    p = pt_dist([(0, HALF), (2, HALF)])
    k = Dilation(p, ((point(0), pt_dist([(-1, HALF), (1, HALF)])),))
    right = compose_kernels(k, dirac_dilation(k.average()))
    assert right.at(point(0)) == k.at(point(0))
    assert right.at(point(2)) == k.at(point(2))
    left = compose_kernels(dirac_dilation(p), k)
    assert left.at(point(0)) == k.at(point(0))


def test_compose_kernels_rejects_mismatched_bases():
    p = pt_dist([(1, 1)])
    k1 = Dilation(p, ((point(1), pt_dist([(0, HALF), (2, HALF)])),))
    k2 = dirac_dilation(pt_dist([(5, 1)]))
    with pytest.raises(DomainMismatch):
        compose_kernels(k1, k2)


def test_compose_dist_witnesses_runs_the_kernel_route():
    p = pt_dist([(0, HALF), (2, HALF)])
    q = pt_dist([(0, QUARTER), (1, HALF), (2, QUARTER)])
    first = decide_pev(p, q, ALG1)
    second = decide_pev(q, pt_dist([(1, 1)]), ALG1)
    assert first is not None and second is not None
    composite = compose_dist_witnesses(first, second)
    assert validate_witness(composite)
    assert composite.source == p
    assert composite.target == pt_dist([(1, 1)])


def test_contraction_chains_stay_decidable():
    # q reduces to r and r to s; the composite must exist and the direct
    # question q -> s must come back feasible on its own.
    rng = random.Random(63)
    for _ in range(15):
        q = random_point_distribution(rng, max_points=3)
        r = random_contraction(q, rng, ALG1)
        s = random_contraction(r, rng, ALG1)
        w1 = decide_pev(q, r, ALG1)
        w2 = decide_pev(r, s, ALG1)
        assert w1 is not None and w2 is not None
        composite = compose_dist_witnesses(w1, w2)
        assert composite.source == q and composite.target == s
        assert decide_pev(q, s, ALG1) is not None


# ---------------------------------------------------------------------------
# Dominance and distance.


def test_sosd_frozen_examples():
    p = pt_dist([(0, HALF), (2, HALF)])
    q = pt_dist([(1, 1)])
    assert sosd_1d(p, q) is True
    assert sosd_1d(q, p) is False
    assert sosd_1d(p, p) is True


def test_sosd_accepts_scalar_atoms():
    p = distribution([(0, HALF), (2, HALF)])
    q = distribution([(1, 1)])
    assert sosd_1d(p, q) is True
    mixed = distribution([(point(1), 1)])
    assert sosd_1d(p, mixed) is True


def test_sosd_rejects_higher_dimensions():
    p2 = distribution([(point(0, 0), 1)])
    with pytest.raises(DimensionMismatch):
        sosd_1d(p2, p2)


def test_sosd_requires_equal_means():
    p = pt_dist([(0, 1)])
    q = pt_dist([(1, 1)])
    assert sosd_1d(p, q) is False
    assert sosd_1d(q, p) is False


def test_wasserstein_frozen_examples():
    p = pt_dist([(0, HALF), (2, HALF)])
    q = pt_dist([(1, 1)])
    assert wasserstein1_1d(p, p) == 0
    assert wasserstein1_1d(pt_dist([(0, 1)]), pt_dist([(1, 1)])) == 1
    assert wasserstein1_1d(p, q) == 1
    assert wasserstein1_1d(q, p) == 1


def test_wasserstein_with_rational_masses():
    p = pt_dist([(0, Fraction(1, 3)), (3, Fraction(2, 3))])
    q = pt_dist([(2, 1)])
    # CDF gap: 1/3 over [0, 2), then 2/3 over [2, 3).
    assert wasserstein1_1d(p, q) == Fraction(4, 3)
    assert wasserstein1_1d(q, p) == Fraction(4, 3)


def test_sosd_matches_decide_pev_on_random_pairs():
    rng = random.Random(2718)
    for _ in range(120):
        p = random_point_distribution(rng, max_points=4)
        q = random_point_distribution(rng, max_points=4)
        lp = decide_pev(p, q, ALG1) is not None
        assert lp == sosd_1d(p, q)
    # Include guaranteed-positive pairs so the yes side is exercised too.
    for _ in range(30):
        p = random_point_distribution(rng, max_points=4)
        q = random_contraction(p, rng, ALG1)
        assert decide_pev(p, q, ALG1) is not None
        assert sosd_1d(p, q) is True
