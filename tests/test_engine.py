"""Witness construction, enumeration, composition, and reduction graphs."""

import itertools
import random

import pytest

from collections import Counter

from parteval import (
    LIST,
    MULTISET,
    TERMINAL,
    EnumerationLimitExceeded,
    InvalidWitness,
    Monoid,
    NestedExpression,
    NotComposable,
    ReductionGraph,
    audit_witnesses,
    canonical_filler,
    check_ars_properties,
    check_total_evaluation_law,
    commutative_monoid_algebra,
    compose_witnesses,
    cyclic,
    enumerate_fillers,
    enumerate_witnesses,
    eta_at,
    expression,
    identity_witness,
    monoid_algebra,
    multiset_expression,
    mu_at,
    nat_add_algebra,
    reduction_graph,
    self_action_algebra,
    terminal_algebra,
    total_evaluation_witness,
    validate_witness,
    witness_from_value,
)
from parteval.sampling import (
    random_composable_pair,
    random_enumerable_expression,
    random_witness,
)
from oracles import (
    enumerate_fillers_reference,
    list_splits_oracle,
    multiset_fiber_oracle,
    pev_targets_oracle,
    reduction_graph_reference,
)

ALG = nat_add_algebra()
C4_FOLD = monoid_algebra(cyclic(4))
# Multiplication mod 6: the absorbing 0 gives many blocks the same value.
Z6_MUL = commutative_monoid_algebra(
    Monoid("Z6mul", range(6), {(a, b): a * b % 6 for a in range(6) for b in range(6)}, 1)
)


def enumerable_algebras():
    return [
        ("multiset", nat_add_algebra()),
        ("list", monoid_algebra(cyclic(4))),
        ("action", self_action_algebra(cyclic(6))),
        ("terminal", terminal_algebra()),
    ]


# ---------------------------------------------------------------------------
# Trivial witnesses.


def test_identity_witness_boundaries_are_p_p():
    p = multiset_expression([2, 3, 3])
    w = identity_witness(p, ALG)
    assert validate_witness(w)
    assert w.source == p and w.target == p
    assert w.value == eta_at(p, 1)


def test_total_evaluation_witness_lands_on_the_result():
    p = multiset_expression([2, 3, 3])
    w = total_evaluation_witness(p, ALG)
    assert validate_witness(w)
    assert w.source == p
    assert w.target == multiset_expression([8])
    assert w.value == eta_at(p, 0)


@pytest.mark.parametrize("name,algebra", enumerable_algebras())
def test_trivial_witnesses_validate_on_random_expressions(name, algebra):
    rng = random.Random(hash(name) % 100000)
    for _ in range(25):
        p = random_enumerable_expression(algebra, rng, max_size=6)
        wi = identity_witness(p, algebra)
        wt = total_evaluation_witness(p, algebra)
        assert validate_witness(wi) and wi.source == p and wi.target == p
        assert validate_witness(wt) and wt.source == p
        assert wt.target == algebra.total_target(algebra.eval(p))
        assert check_total_evaluation_law(wi)
        assert check_total_evaluation_law(wt)


def test_witness_from_value_computes_boundaries():
    value = expression(MULTISET, 2, [[3, 4], [5]])
    w = witness_from_value(value, ALG)
    assert w.source == multiset_expression([3, 4, 5])
    assert w.target == multiset_expression([7, 5])


def test_witness_from_value_rejects_wrong_shapes():
    with pytest.raises(InvalidWitness):
        witness_from_value(multiset_expression([1]), ALG)
    with pytest.raises(InvalidWitness):
        witness_from_value(expression(LIST, 2, [[1]]), ALG)


# ---------------------------------------------------------------------------
# Enumeration against the brute-force oracle.


def assert_enumeration_matches_oracle(algebra, atoms, carrier):
    monad = algebra.monad
    p = expression(monad, 1, atoms)
    fiber = multiset_fiber_oracle(atoms) if monad == MULTISET else list_splits_oracle(atoms)
    oracle = pev_targets_oracle(fiber, algebra)
    for target, value_keys in oracle.values():
        hits = enumerate_witnesses(p, target, algebra)
        assert [w.value.key() for w in hits] == sorted(value_keys)
        assert all(w.source == p and w.target == target for w in hits)
    # Every other target of up to three carrier atoms is unreachable.
    for n in range(4):
        for raw in itertools.product(carrier, repeat=n):
            q = expression(monad, 1, list(raw))
            if q.key() not in oracle:
                assert enumerate_witnesses(p, q, algebra) == []


@pytest.mark.parametrize("atoms", [[3, 4, 5], [1, 1, 2], [2, 2, 2], [0, 1, 5, 5], []])
def test_enumerate_witnesses_matches_partition_oracle(atoms):
    assert_enumeration_matches_oracle(ALG, atoms, range(sum(atoms) + 3))


@pytest.mark.parametrize(
    "algebra,atoms",
    [
        (Z6_MUL, [0, 0, 2, 3]),
        (Z6_MUL, [2, 3, 4, 0, 1]),
        (Z6_MUL, [1, 1, 5, 5, 5]),
        (Z6_MUL, [0, 2, 2, 3, 3, 3]),
        (Z6_MUL, []),
        (C4_FOLD, [1, 2, 3]),
        (C4_FOLD, [1, 1, 1, 1, 1]),
        (C4_FOLD, [2, 2, 0, 2, 1, 3]),
        (C4_FOLD, [0, 0, 0]),
        (C4_FOLD, []),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_enumerate_witnesses_matches_the_oracle_beyond_nat_add(algebra, atoms):
    assert_enumeration_matches_oracle(algebra, atoms, algebra.carrier.elements)


def test_enumerate_witnesses_finds_the_one_grouping_of_one_to_ten():
    p = multiset_expression(range(1, 11))
    hits = enumerate_witnesses(p, multiset_expression([55]), ALG)
    assert [w.value for w in hits] == [eta_at(p, 0)]


def test_enumerate_witnesses_filters_by_target():
    p = multiset_expression([3, 4, 5])
    q = multiset_expression([7, 5])
    hits = enumerate_witnesses(p, q, ALG)
    assert len(hits) == 1
    assert str(hits[0].value) == "{{3, 4}, {5}}"
    assert enumerate_witnesses(p, multiset_expression([8, 5]), ALG) == []


def test_enumerate_witnesses_respects_the_limit():
    p = multiset_expression(range(9))
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_witnesses(p, p, ALG, limit=8)
    xs = expression(LIST, 1, [1] * 9)
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_witnesses(xs, xs, C4_FOLD, limit=8)


# ---------------------------------------------------------------------------
# Composition and fillers.


def test_worked_composition_example():
    # 1+1+1+1 -> 2+2 -> 4 composes through the three-layer filler
    # {{{1,1},{1,1}}} to the one-shot witness {{1,1,1,1}}.
    p = multiset_expression([1, 1, 1, 1])
    first = witness_from_value(expression(MULTISET, 2, [[1, 1], [1, 1]]), ALG)
    second = witness_from_value(expression(MULTISET, 2, [[2, 2]]), ALG)
    assert first.source == p and first.target == multiset_expression([2, 2])
    assert second.target == multiset_expression([4])

    filler = canonical_filler(first, second)
    assert filler == expression(MULTISET, 3, [[[1, 1], [1, 1]]])
    assert mu_at(filler, 0) == first.value

    composite = compose_witnesses(first, second)
    assert validate_witness(composite)
    assert composite.value == expression(MULTISET, 2, [[1, 1, 1, 1]])
    assert composite.source == p
    assert composite.target == multiset_expression([4])


@pytest.mark.parametrize("name,algebra", enumerable_algebras()[:3])
def test_composition_boundaries_on_random_pairs(name, algebra):
    rng = random.Random(len(name) * 37)
    for _ in range(40):
        first, second = random_composable_pair(algebra, rng, max_size=6)
        composite = compose_witnesses(first, second)
        assert validate_witness(composite)
        assert composite.source == first.source
        assert composite.target == second.target
        assert check_total_evaluation_law(composite)


@pytest.mark.parametrize(
    "algebra", [monoid_algebra(cyclic(4)), self_action_algebra(cyclic(6))]
)
def test_rigid_instances_have_exactly_one_filler(algebra):
    rng = random.Random(99)
    for _ in range(25):
        first, second = random_composable_pair(algebra, rng, max_size=6)
        fillers = enumerate_fillers(first, second)
        assert len(fillers) == 1
        assert fillers[0] == canonical_filler(first, second)


def test_multiset_fillers_count_bijections_between_equal_groups():
    # p = {1,1,2,2} grouped as {{1,2},{1,2}} evaluates to {3,3}; the
    # follow-up witness groups both 3s together.  The two inner groups
    # are interchangeable, giving 2 equal matchings.
    first = witness_from_value(expression(MULTISET, 2, [[1, 2], [1, 2]]), ALG)
    second = witness_from_value(expression(MULTISET, 2, [[3, 3]]), ALG)
    fillers = enumerate_fillers(first, second)
    assert len(fillers) == 2
    assert len({f.key() for f in fillers}) == 1


def test_compose_rejects_non_matching_boundaries():
    first = witness_from_value(expression(MULTISET, 2, [[3, 4], [5]]), ALG)
    other = witness_from_value(expression(MULTISET, 2, [[9, 5]]), ALG)
    with pytest.raises(NotComposable):
        compose_witnesses(first, other)


def test_compose_rejects_cross_instance_pairs():
    c4 = monoid_algebra(cyclic(4))
    first = witness_from_value(expression(MULTISET, 2, [[1, 2]]), ALG)
    second = witness_from_value(expression(LIST, 2, [[3]]), c4)
    with pytest.raises(NotComposable):
        compose_witnesses(first, second)


# ---------------------------------------------------------------------------
# Audit trail.


def test_audit_collects_every_witness_built_inside_the_context():
    p = multiset_expression([1, 2, 3])
    with audit_witnesses() as log:
        identity_witness(p, ALG)
        total_evaluation_witness(p, ALG)
        enumerate_witnesses(p, multiset_expression([6]), ALG)
        assert len(log) == 3
        assert all(check_total_evaluation_law(w) for w in log)
    with audit_witnesses() as fresh:
        assert fresh == []


# ---------------------------------------------------------------------------
# Reduction graphs and rewriting properties.


def test_reduction_graph_of_112_is_the_frozen_four_node_graph():
    g = reduction_graph(multiset_expression([1, 1, 2]), ALG)
    names = sorted(str(n) for n in g.nodes)
    assert names == ["{1, 1, 2}", "{1, 3}", "{2, 2}", "{4}"]
    assert len(g.edges) == 9
    sink = multiset_expression([4])
    assert g.edge_count(sink, sink) == 1
    assert all(g.edge_count(n, sink) == 1 for n in g.nodes)
    assert g.edge_count(multiset_expression([1, 3]), multiset_expression([2, 2])) == 0


def test_reduction_graph_single_atom_is_one_node():
    g = reduction_graph(multiset_expression([7]), ALG)
    assert len(g.nodes) == 1
    # {7} regroups only as {{7}}, which evaluates back to {7}.
    assert len(g.edges) == 1


def test_ars_properties_hold_on_real_graphs():
    for seed in ([1, 1, 2], [2, 3], [5]):
        report = check_ars_properties(reduction_graph(multiset_expression(seed), ALG))
        assert report.reflexive and report.confluent and report.transitive


def test_ars_checker_notices_broken_graphs():
    a = multiset_expression([1])
    b = multiset_expression([2])
    broken = ReductionGraph(ALG, (a, b), ((a, b, 1),))
    report = check_ars_properties(broken)
    assert not report.reflexive


def test_terminal_reduction_graph_is_one_self_loop():
    alg = terminal_algebra()
    g = reduction_graph(expression(alg.monad, 1, "whatever"), alg)
    assert len(g.nodes) == 1
    assert len(g.edges) == 1
    node = g.nodes[0]
    assert g.edge_count(node, node) == 1


def test_node_cap_is_enforced():
    with pytest.raises(EnumerationLimitExceeded):
        reduction_graph(multiset_expression([1, 1, 1, 1]), ALG, node_cap=2)


def test_random_witness_sampler_yields_valid_witnesses():
    rng = random.Random(5)
    for _ in range(20):
        p = random_enumerable_expression(ALG, rng, max_size=6)
        w = random_witness(p, ALG, rng)
        assert validate_witness(w)
        assert w.source == p


# ---------------------------------------------------------------------------
# The one-pass graph and fillers against the recomputing reference bodies.

C6_ACT = self_action_algebra(cyclic(6))


def case_id(x):
    return getattr(x, "name", None) or str(x)

REFERENCE_GRAPHS = [
    (multiset_expression([1, 2, 3, 4, 5, 6]), ALG),
    (multiset_expression([1, 1, 2, 2, 3, 3]), ALG),
    (multiset_expression([2, 2, 2, 1, 1]), ALG),
    (expression(MULTISET, 1, [0, 2, 3, 3, 4]), Z6_MUL),
    (expression(LIST, 1, [1, 2, 3, 0, 1, 2]), C4_FOLD),
    (expression(LIST, 1, [0, 0, 0, 0, 0]), C4_FOLD),
    (expression(C6_ACT.monad, 1, (2, 3)), C6_ACT),
    (expression(TERMINAL, 1, "x"), terminal_algebra()),
]


@pytest.mark.parametrize("seed, algebra", REFERENCE_GRAPHS, ids=case_id)
def test_reduction_graph_equals_the_recomputing_reference(seed, algebra):
    g = reduction_graph(seed, algebra)
    ref = reduction_graph_reference(seed, algebra)
    assert g.nodes == ref.nodes
    assert g.edges == ref.edges


def test_node_cap_trips_where_the_reference_trips():
    seed = multiset_expression([1, 1, 2, 2])
    size = len(reduction_graph_reference(seed, ALG).nodes)
    for cap in range(1, size + 2):
        outcomes = []
        for build in (reduction_graph, reduction_graph_reference):
            try:
                outcomes.append(build(seed, ALG, node_cap=cap).edges)
            except EnumerationLimitExceeded as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


def composable_witness_pairs(seed, algebra):
    """Every pair (w, h) of fiber witnesses in seed's graph with w's
    target equal to h's source."""
    monad = algebra.monad
    by_source = {
        node: [
            witness_from_value(NestedExpression(monad, 2, payload), algebra)
            for payload in monad.mu_fiber(node.payload)
        ]
        for node in reduction_graph_reference(seed, algebra).nodes
    }
    return [(w, h) for ws in by_source.values() for w in ws for h in by_source[w.target]]


@pytest.mark.parametrize(
    "seed, algebra",
    [
        (multiset_expression([1, 1, 2, 2, 3]), ALG),
        (multiset_expression([2, 2, 2, 2, 2]), ALG),
        (expression(MULTISET, 1, [0, 0, 2, 3, 3]), Z6_MUL),
        (expression(LIST, 1, [1, 2, 3, 0]), C4_FOLD),
        (expression(C6_ACT.monad, 1, (5, 1)), C6_ACT),
    ],
    ids=case_id,
)
def test_fillers_equal_the_permutation_reference_as_multisets(seed, algebra):
    repeated = 0
    for w, h in composable_witness_pairs(seed, algebra):
        fillers = enumerate_fillers(w, h)
        ref = enumerate_fillers_reference(w, h)
        assert len(fillers) == len(ref)
        assert Counter(f.key() for f in fillers) == Counter(f.key() for f in ref)
        repeated += len(ref) > len({f.key() for f in ref})
    if algebra.monad == MULTISET:
        assert repeated  # the cases do exercise equal blocks


def test_filler_limit_trips_where_the_reference_trips():
    first = witness_from_value(expression(MULTISET, 2, [[1, 2], [1, 2], [1, 2]]), ALG)
    second = witness_from_value(expression(MULTISET, 2, [[3, 3, 3]]), ALG)
    for limit in (1, 5, 6):
        outcomes = []
        for build in (enumerate_fillers, enumerate_fillers_reference):
            try:
                outcomes.append(Counter(f.key() for f in build(first, second, limit)))
            except EnumerationLimitExceeded as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
