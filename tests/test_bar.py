"""Simplices, face and degeneracy maps, horn filling, truncated complexes."""

import random

import pytest

from parteval import (
    LIST,
    MULTISET,
    TERMINAL,
    DepthMismatch,
    IndexOutOfRange,
    NotComposable,
    Simplex,
    UnsupportedInstance,
    audit_witnesses,
    build_truncated_complex,
    check_simplicial_identities,
    convex_algebra,
    cyclic,
    degeneracy,
    distribution,
    expression,
    face,
    fill_inner_horn,
    monoid_algebra,
    multiset_expression,
    nat_add_algebra,
    point,
    reduction_graph,
    self_action_algebra,
    simplex_from_witness,
    terminal_algebra,
    validate_witness,
    vertex,
    witness_from_simplex,
    witness_from_value,
)
from parteval.faults import misindexed_face
from parteval.sampling import law_samples, random_composable_pair
from oracles import build_truncated_complex_reference

ALG = nat_add_algebra()


def test_simplex_depth_must_match_level():
    with pytest.raises(DepthMismatch):
        Simplex(ALG, 2, multiset_expression([1]))
    s = Simplex(ALG, 0, multiset_expression([1, 2]))
    assert s.level == 0


def test_vertex_and_witness_round_trips():
    p = multiset_expression([2, 5])
    assert vertex(ALG, p).value == p
    w = witness_from_value(expression(MULTISET, 2, [[3, 4], [5]]), ALG)
    s = simplex_from_witness(w)
    assert s.level == 1
    back = witness_from_simplex(s)
    assert back.value == w.value and back.source == w.source


def test_one_simplex_faces_are_source_then_target():
    w = witness_from_value(expression(MULTISET, 2, [[3, 4], [5]]), ALG)
    s = simplex_from_witness(w)
    assert face(s, 0).value == w.source
    assert face(s, 1).value == w.target


def test_face_indices_are_bounded():
    s = vertex(ALG, multiset_expression([1]))
    with pytest.raises(IndexOutOfRange):
        face(s, 0)
    w = simplex_from_witness(
        witness_from_value(expression(MULTISET, 2, [[1, 2]]), ALG)
    )
    with pytest.raises(IndexOutOfRange):
        face(w, 2)
    with pytest.raises(IndexOutOfRange):
        face(w, -1)
    with pytest.raises(IndexOutOfRange):
        degeneracy(w, 2)


def test_degeneracy_inserts_a_trivial_layer():
    p = multiset_expression([1, 2])
    v = vertex(ALG, p)
    s = degeneracy(v, 0)
    assert s.level == 1
    back = witness_from_simplex(s)
    assert back.source == p and back.target == p


def test_two_simplex_faces_recover_the_composition_triangle():
    first = witness_from_value(expression(MULTISET, 2, [[1, 1], [1, 1]]), ALG)
    second = witness_from_value(expression(MULTISET, 2, [[2, 2]]), ALG)
    z = fill_inner_horn(simplex_from_witness(first), simplex_from_witness(second))
    assert z.level == 2
    assert face(z, 0).value == first.value
    assert face(z, 2).value == second.value
    composite = face(z, 1)
    assert composite.value == expression(MULTISET, 2, [[1, 1, 1, 1]])


def test_fill_inner_horn_requires_composability():
    first = witness_from_value(expression(MULTISET, 2, [[3, 4], [5]]), ALG)
    stranger = witness_from_value(expression(MULTISET, 2, [[9], [5]]), ALG)
    with pytest.raises(NotComposable):
        fill_inner_horn(simplex_from_witness(first), simplex_from_witness(stranger))


def test_fill_inner_horn_works_on_distributions():
    alg = convex_algebra(1)
    # One group holding 1/2 each of 0 and 2, evaluated to its mean 1,
    # followed by the do-nothing witness on the result.
    first = witness_from_value(
        expression(alg.monad, 2, [([([0], "1/2"), ([2], "1/2")], 1)]), alg
    )
    second = witness_from_value(expression(alg.monad, 2, [([([1], 1)], 1)]), alg)
    assert first.target == distribution([(point(1), 1)])
    assert second.source == first.target
    z = fill_inner_horn(simplex_from_witness(first), simplex_from_witness(second))
    assert z.level == 2
    assert face(z, 0).value == first.value
    assert face(z, 2).value == second.value
    assert witness_from_simplex(face(z, 1)).source == first.source


@pytest.mark.parametrize(
    "algebra",
    [nat_add_algebra(), monoid_algebra(cyclic(4)), self_action_algebra(cyclic(6))],
)
def test_horn_filler_agrees_with_composition_on_random_pairs(algebra):
    rng = random.Random(1234)
    for _ in range(25):
        first, second = random_composable_pair(algebra, rng, max_size=6)
        z = fill_inner_horn(simplex_from_witness(first), simplex_from_witness(second))
        assert face(z, 0).value == first.value
        assert face(z, 2).value == second.value
        assert witness_from_simplex(face(z, 1)).source == first.source


# ---------------------------------------------------------------------------
# Simplicial identities.


@pytest.mark.parametrize(
    "algebra",
    [
        nat_add_algebra(),
        monoid_algebra(cyclic(4)),
        self_action_algebra(cyclic(6)),
        convex_algebra(1),
    ],
)
def test_simplicial_identities_hold(algebra):
    rng = random.Random(42)
    samples = law_samples(algebra, rng, 60, max_depth=4)
    report = check_simplicial_identities(algebra, samples)
    assert report.all_passed, report.render()


def test_misindexed_face_breaks_an_identity():
    rng = random.Random(42)
    samples = law_samples(ALG, rng, 60, max_depth=4)
    report = check_simplicial_identities(ALG, samples, face_fn=misindexed_face)
    assert not report.all_passed
    failing = [r for r in report.results if not r.passed]
    assert failing and all(r.counterexample for r in failing)


# ---------------------------------------------------------------------------
# Truncated complexes.


def test_truncated_complex_on_the_composition_seed():
    seed = multiset_expression([1, 1, 1, 1])
    complex_ = build_truncated_complex(seed, ALG, max_level=2)
    assert complex_.check_incidence()
    triangle = expression(MULTISET, 3, [[[1, 1], [1, 1]]])
    assert any(x == triangle for x in complex_.levels[2])
    # Vertices and edges agree with the reduction graph.
    g = reduction_graph(seed, ALG)
    assert set(complex_.levels[0]) == set(g.nodes)
    assert len(complex_.levels[1]) == sum(count for _, _, count in g.edges)


def test_complex_levels_zero_and_one():
    seed = multiset_expression([1, 1, 2])
    c0 = build_truncated_complex(seed, ALG, max_level=0)
    assert c0.max_level == 0 and len(c0.levels) == 1
    c1 = build_truncated_complex(seed, ALG, max_level=1)
    assert c1.max_level == 1
    assert len(c1.levels[0]) == 4
    assert c1.size(1) == 9


def test_complex_degeneracies_point_at_the_wrapped_vertex():
    from parteval import eta_at

    complex_ = build_truncated_complex(multiset_expression([1, 1, 2]), ALG)
    for index, x in enumerate(complex_.levels[0]):
        (j_image,) = complex_.degeneracies[0][index]
        assert complex_.levels[1][j_image] == eta_at(x, 1)


def test_complex_rejects_deep_truncation():
    with pytest.raises(UnsupportedInstance):
        build_truncated_complex(multiset_expression([1]), ALG, max_level=3)


def test_terminal_complex_is_trivial():
    from parteval import terminal_algebra

    alg = terminal_algebra()
    complex_ = build_truncated_complex(expression(alg.monad, 1, "x"), alg)
    assert len(complex_.levels[0]) == 1
    assert len(complex_.levels[1]) == 1
    assert len(complex_.levels[2]) == 1
    assert complex_.check_incidence()


C4_FOLD = monoid_algebra(cyclic(4))
C6_ACT = self_action_algebra(cyclic(6))


def case_id(x):
    return getattr(x, "name", None) or str(x)

REFERENCE_COMPLEXES = [
    (multiset_expression([1, 2, 3, 4]), ALG),
    (multiset_expression([1, 1, 2, 3]), ALG),
    (multiset_expression([1, 1, 2, 2, 3]), ALG),
    (multiset_expression([1, 1, 1, 2, 2]), ALG),
    (multiset_expression([3, 3, 3, 3, 3]), ALG),
    (expression(LIST, 1, [1, 2, 3, 0, 1]), C4_FOLD),
    (expression(C6_ACT.monad, 1, (2, 3)), C6_ACT),
    (expression(TERMINAL, 1, "x"), terminal_algebra()),
]


@pytest.mark.parametrize("seed, algebra", REFERENCE_COMPLEXES, ids=case_id)
def test_complex_equals_the_recomputing_reference(seed, algebra):
    with audit_witnesses() as log:
        complex_ = build_truncated_complex(seed, algebra)
    ref = build_truncated_complex_reference(seed, algebra)
    assert complex_.levels == ref.levels
    assert complex_.faces == ref.faces
    assert complex_.degeneracies == ref.degeneracies
    # One recorded witness per level-1 cell, each checkable on its own.
    assert len(log) == complex_.size(1)
    assert sorted(w.value.key() for w in log) == [x.key() for x in complex_.levels[1]]
    assert all(validate_witness(w) for w in log)


@pytest.mark.parametrize("max_level", [0, 1])
def test_low_truncations_equal_the_recomputing_reference(max_level):
    for seed, algebra in REFERENCE_COMPLEXES[1::2]:
        complex_ = build_truncated_complex(seed, algebra, max_level)
        ref = build_truncated_complex_reference(seed, algebra, max_level)
        assert complex_ == ref
