"""End-to-end runs of the pev command and the JSON codecs behind it."""

import importlib.util
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from parteval import (
    DIST,
    LIST,
    MULTISET,
    MalformedExpression,
    Witness,
    convex_algebra,
    expression,
    monoid_algebra,
    nat_add_algebra,
    self_action_algebra,
    cyclic,
)
from parteval import cli
from parteval.cli import main
from parteval.formats import (
    detect_instance,
    dumps,
    envelope_key,
    expression_to_json,
    parse_algebra,
    parse_expression,
    parse_witness,
    witness_to_json,
)

C4 = {
    "name": "C4",
    "elements": [0, 1, 2, 3],
    "identity": 0,
    "op": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
}
C4_ALG = json.dumps({"alg": {"cayley": C4}})
CONVEX_ALG = '{"alg": {"convex": {"dim": 1}}}'

MS_SRC = '{"ms": [[3, 1], [4, 1], [5, 1]]}'
MS_TGT = '{"ms": [[5, 1], [7, 1]]}'
DIST_SRC = '{"dist": [[[0], [1, 2]], [[2], [1, 2]]]}'
DIST_MID = '{"dist": [[[0], [1, 4]], [[1], [1, 2]], [[2], [1, 4]]]}'
DIST_PT = '{"dist": [[[1], [1, 1]]]}'


# The benchmark's reference semantics: it imports no parteval.
_spec = importlib.util.spec_from_file_location(
    "pevbench_oracle", Path(__file__).resolve().parents[1] / "pevbench" / "oracle.py"
)
BENCH_ORACLE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(BENCH_ORACLE)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check.


def test_check_multiset_yes_prints_a_witness(capsys):
    code, out, _ = run(capsys, "check", MS_SRC, MS_TGT, "--alg", "nat-add")
    assert code == 0
    data = json.loads(out)
    w = parse_witness(data, nat_add_algebra())
    assert str(w.source) == "{3, 4, 5}"
    assert str(w.target) == "{5, 7}"


def test_check_multiset_no(capsys):
    code, out, _ = run(
        capsys, "check", MS_SRC, '{"ms": [[1, 1]]}', "--alg", "nat-add"
    )
    assert code == 1
    assert out.strip() == "no partial evaluation"


def test_check_dist_frozen_example(capsys):
    code, out, _ = run(capsys, "check", DIST_SRC, DIST_MID, "--alg", CONVEX_ALG)
    assert code == 0
    w = parse_witness(json.loads(out), convex_algebra(1))
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    assert w.value == expression(
        DIST,
        2,
        [
            ([([0], 1)], quarter),
            ([([0], half), ([2], half)], half),
            ([([2], 1)], quarter),
        ],
    )


def test_check_list_routes_through_enumeration(capsys):
    code, out, _ = run(capsys, "check", '{"list": [1, 2, 3]}', '{"list": [2]}',
                       "--alg", C4_ALG)
    assert code == 0
    w = parse_witness(json.loads(out), monoid_algebra(cyclic(4)))
    assert str(w.target) == "[2]"
    code, _, _ = run(capsys, "check", '{"list": [1, 2, 3]}', '{"list": [0]}',
                     "--alg", C4_ALG)
    assert code == 1


def test_check_action_instance(capsys):
    code, out, _ = run(capsys, "check", '{"act": {"g": 2, "x": 3}}',
                       '{"act": {"g": 1, "x": 0}}', "--alg", C4_ALG)
    assert code == 0
    w = parse_witness(json.loads(out), self_action_algebra(cyclic(4)))
    assert w.value.depth == 2


def test_check_reads_expression_files(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    q_file = tmp_path / "q.json"
    p_file.write_text(MS_SRC, encoding="utf-8")
    q_file.write_text(MS_TGT, encoding="utf-8")
    code, out, _ = run(capsys, "check", str(p_file), str(q_file), "--alg", "nat-add")
    assert code == 0
    assert "witness" in json.loads(out)


def test_check_reads_at_file_inputs(tmp_path, capsys):
    (tmp_path / "p.json").write_text(MS_SRC, encoding="utf-8")
    (tmp_path / "q.json").write_text(MS_TGT, encoding="utf-8")
    (tmp_path / "alg.json").write_text('{"alg": "nat-add"}', encoding="utf-8")
    inline = run(capsys, "check", MS_SRC, MS_TGT, "--alg", "nat-add")
    from_files = run(capsys, "check", f"@{tmp_path / 'p.json'}", f"@{tmp_path / 'q.json'}",
                     "--alg", f"@{tmp_path / 'alg.json'}")
    assert inline[0] == 0
    assert from_files == inline


def test_check_refuses_to_print_a_witness_that_fails_validation(capsys, monkeypatch):
    def forged(p, q, algebra, limit):
        # {3}, {4, 5} evaluates to {3, 9}, not the requested {5, 7}.
        return [Witness(expression(MULTISET, 2, [[3], [4, 5]]), p, q, algebra)]

    monkeypatch.setattr(cli, "enumerate_witnesses", forged)
    code, out, err = run(capsys, "check", MS_SRC, MS_TGT, "--alg", "nat-add")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")


def test_check_output_is_byte_deterministic(capsys):
    first = run(capsys, "check", MS_SRC, MS_TGT, "--alg", "nat-add")
    second = run(capsys, "check", MS_SRC, MS_TGT, "--alg", "nat-add")
    assert first == second


# ---------------------------------------------------------------------------
# graph and bar.


def test_graph_json_for_the_three_atom_multiset(capsys):
    code, out, _ = run(capsys, "graph", '{"ms": [[1, 2], [2, 1]]}',
                       "--alg", "nat-add")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 4
    assert sum(count for _, _, count in data["edges"]) == 9
    labels = {json.dumps(n, sort_keys=True) for n in data["nodes"]}
    assert json.dumps({"ms": [[4, 1]]}, sort_keys=True) in labels


def test_graph_dot_output(capsys):
    code, out, _ = run(capsys, "graph", '{"ms": [[1, 2], [2, 1]]}',
                       "--alg", "nat-add", "--dot")
    assert code == 0
    assert out.startswith("digraph reduction {")
    assert '"{1, 1, 2}"' in out
    assert "label=" in out
    assert out.endswith("}\n")


def test_graph_respects_the_node_cap(capsys):
    code, _, err = run(capsys, "graph", '{"ms": [[1, 1], [2, 1], [3, 1], [4, 1]]}',
                       "--alg", "nat-add", "--node-cap", "2")
    assert code == 2
    assert "error:" in err


def test_bar_json_matches_the_graph(capsys):
    seed = '{"ms": [[1, 2], [2, 1]]}'
    code, bar_out, _ = run(capsys, "bar", seed, "--alg", "nat-add")
    assert code == 0
    complex_data = json.loads(bar_out)
    code, graph_out, _ = run(capsys, "graph", seed, "--alg", "nat-add")
    assert code == 0
    graph_data = json.loads(graph_out)
    assert len(complex_data["levels"][0]) == len(graph_data["nodes"])
    assert len(complex_data["levels"][1]) == sum(
        count for _, _, count in graph_data["edges"]
    )
    assert complex_data["max_level"] == 2
    assert complex_data["faces"][0] == []
    # Every level-1 cell lists its two face indices into level 0.
    assert all(len(row) == 2 for row in complex_data["faces"][1])
    assert all(len(row) == 3 for row in complex_data["faces"][2])


def test_bar_level_flag_bounds(capsys):
    code, _, err = run(capsys, "bar", '{"ms": [[1, 2]]}', "--alg", "nat-add",
                       "--level", "3")
    assert code == 2
    assert "--level" in err
    code, out, _ = run(capsys, "bar", '{"ms": [[1, 2]]}', "--alg", "nat-add",
                       "--level", "0")
    assert code == 0
    assert json.loads(out)["levels"][0]


def test_bar_dot_skeleton(capsys):
    code, out, _ = run(capsys, "bar", '{"ms": [[1, 2], [2, 1]]}',
                       "--alg", "nat-add", "--dot")
    assert code == 0
    assert out.startswith("digraph skeleton {")


def test_graph_and_bar_agree_with_the_benchmark_oracle(capsys):
    O = BENCH_ORACLE
    rng = random.Random(2718)
    fold = O.cyclic_fold(4)
    cases = []
    for _ in range(10):
        atoms = tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(1, 4))))
        cases.append((dumps(O.ms_envelope(atoms)), "nat-add", O.read_ms, O.ms_label,
                      O.full_reduction_graph(atoms, lambda n: O.ms_targets(n, sum))))
        code, out, _ = run(capsys, "bar", cases[-1][0], "--alg", "nat-add", "--level", "2")
        assert O.judge_bar(code, out, atoms, sum) is None
    for _ in range(10):
        seq = tuple(rng.randrange(4) for _ in range(rng.randint(1, 6)))
        cases.append((dumps({"list": list(seq)}), C4_ALG, O.read_list, O.list_label,
                      O.full_reduction_graph(seq, lambda n: O.list_targets(n, fold))))
    for seed, alg, read, label, expected in cases:
        for dot in (False, True):
            code, out, _ = run(capsys, "graph", seed, "--alg", alg, *(["--dot"] if dot else []))
            assert code == 0
            nodes, edges = O.read_graph(out, dot, read, label)
            graph = {n: Counter() for n in nodes}
            for u, v, count in edges:
                graph[nodes[u]][nodes[v]] = count
            assert graph == expected


# ---------------------------------------------------------------------------
# laws.


@pytest.mark.parametrize(
    "instance,alg",
    [
        ("ms", "nat-add"),
        ("list", C4_ALG),
        ("act", C4_ALG),
        ("dist", CONVEX_ALG),
    ],
)
def test_laws_pass_on_every_instance(instance, alg, capsys):
    code, out, _ = run(capsys, "laws", instance, "--alg", alg,
                       "--samples", "25", "--seed", "3")
    assert code == 0
    assert "monad laws:" in out
    assert "algebra laws:" in out
    assert "FAIL" not in out


def test_laws_corrupt_mult_fails(capsys):
    code, out, _ = run(capsys, "laws", "ms", "--alg", "nat-add",
                       "--samples", "25", "--corrupt", "mult")
    assert code == 1
    assert "FAIL" in out


def test_laws_corrupt_eval_fails(capsys):
    code, out, _ = run(capsys, "laws", "ms", "--alg", "nat-add",
                       "--samples", "25", "--corrupt", "eval")
    assert code == 1
    assert "FAIL" in out


def test_laws_json_report(capsys):
    code, out, _ = run(capsys, "laws", "ms", "--alg", "nat-add",
                       "--samples", "10", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    laws = {entry["law"] for entry in data["monad"]["results"]}
    assert "associativity" in laws
    assert all(entry["passed"] for entry in data["algebra"]["results"])


def test_laws_json_is_byte_deterministic(capsys):
    args = ("laws", "dist", "--alg", CONVEX_ALG, "--samples", "15",
            "--seed", "7", "--json")
    assert run(capsys, *args) == run(capsys, *args)


# ---------------------------------------------------------------------------
# sosd.


def test_sosd_yes_prints_both_verdicts(capsys):
    code, out, _ = run(capsys, "sosd", DIST_SRC, DIST_PT)
    assert code == 0
    assert out == "sosd: yes\nlp: yes\n"


def test_sosd_no_exits_one(capsys):
    code, out, _ = run(capsys, "sosd", DIST_PT, DIST_SRC)
    assert code == 1
    assert out == "sosd: no\nlp: no\n"


def test_sosd_accepts_scalar_outcomes(capsys):
    code, out, _ = run(capsys, "sosd", '{"dist": [[0, [1, 2]], [2, [1, 2]]]}',
                       '{"dist": [[1, [1, 1]]]}')
    assert code == 0
    assert out.startswith("sosd: yes")


def test_sosd_rejects_non_dist_inputs(capsys):
    code, _, err = run(capsys, "sosd", MS_SRC, DIST_PT)
    assert code == 2
    assert "dist" in err


def test_sosd_rejects_planar_points(capsys):
    code, _, err = run(capsys, "sosd", '{"dist": [[[0, 0], [1, 1]]]}',
                       '{"dist": [[[0, 0], [1, 1]]]}')
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# Input errors.


def test_malformed_json_exits_two(capsys):
    code, _, err = run(capsys, "check", '{"ms": [[1, 1]',  '{"ms": [[1, 1]]}',
                       "--alg", "nat-add")
    assert code == 2
    assert "bad JSON" in err


DEEP_LIST = '{"list": ' + "[" * 5000 + "1" + "]" * 5000 + "}"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", DEEP_LIST, '{"list": [1]}', "--alg", "nat-add"],
        ["graph", DEEP_LIST, "--alg", "nat-add"],
        ["sosd", DEEP_LIST, DIST_PT],
    ],
    ids=["check", "graph", "sosd"],
)
def test_deeply_nested_json_exits_two(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "nests too deeply" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.json", MS_TGT,
                       "--alg", "nat-add")
    assert code == 2
    assert "cannot read" in err


def test_mixed_instances_exit_two(capsys):
    code, _, err = run(capsys, "check", MS_SRC, '{"list": [5, 7]}',
                       "--alg", "nat-add")
    assert code == 2
    assert "different instances" in err


def test_instance_assertion_mismatch(capsys):
    code, _, err = run(capsys, "check", MS_SRC, MS_TGT, "--alg", "nat-add",
                       "--instance", "list")
    assert code == 2
    assert "tagged" in err


def test_algebra_instance_mismatch(capsys):
    code, _, err = run(capsys, "check", MS_SRC, MS_TGT, "--alg", CONVEX_ALG)
    assert code == 2
    assert "error:" in err


def test_dist_weights_must_sum_to_one(capsys):
    code, _, err = run(capsys, "check", '{"dist": [[[0], [1, 2]]]}', DIST_PT,
                       "--alg", CONVEX_ALG)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["check", "sosd"])
@pytest.mark.parametrize(
    "weight, rest",
    [
        ("[1, 0]", "[1, 2]"),
        ('"1/0"', "[1, 2]"),
        ('"x"', "[1, 2]"),
        # Read as 0 and as 1/2, these would sum to one with the rest.
        ("[0.5, 1]", "[1, 1]"),
        ("[true, 2]", "[1, 2]"),
    ],
)
def test_unreadable_weights_exit_two(command, weight, rest, capsys):
    p = '{"dist": [[[0], %s], [[2], %s]]}' % (weight, rest)
    alg = ("--alg", CONVEX_ALG) if command == "check" else ()
    code, out, err = run(capsys, command, p, DIST_PT, *alg)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", '{"ms": [["a", 1]]}', '{"ms": [["a", 1]]}'],
        ["check", '{"ms": [[-4, 1]]}', '{"ms": [[-4, 1]]}'],
        ["graph", '{"ms": [[-4, 1], [5, 1]]}'],
    ],
)
def test_atoms_outside_the_carrier_exit_two(argv, capsys):
    code, out, err = run(capsys, *argv, "--alg", "nat-add")
    assert (code, out) == (2, "")
    assert "outside carrier" in err


def test_lp_cap_exits_two(capsys):
    code, _, err = run(capsys, "check", DIST_SRC, DIST_MID,
                       "--alg", CONVEX_ALG, "--lp-cap", "3")
    assert code == 2
    assert "cap" in err


def test_fiber_limit_exits_two(capsys):
    big = json.dumps({"ms": [[i, 1] for i in range(1, 9)]})
    code, _, err = run(capsys, "check", big, '{"ms": [[36, 1]]}',
                       "--alg", "nat-add", "--fiber-limit", "5")
    assert code == 2
    assert "error:" in err


def test_nonpositive_samples_exit_two(capsys):
    code, _, err = run(capsys, "laws", "ms", "--alg", "nat-add", "--samples", "0")
    assert code == 2
    assert "positive" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Codec round trips.


def ms_expr(depth, raw):
    return expression(MULTISET, depth, raw)


def test_expression_round_trip_multiset():
    x = ms_expr(2, [[1, 1, 2], [3]])
    data = expression_to_json(x)
    assert data["depth"] == 2
    assert parse_expression(data, MULTISET) == x


def test_expression_round_trip_omits_depth_one():
    x = ms_expr(1, [1, 1, 2])
    data = expression_to_json(x)
    assert "depth" not in data
    assert parse_expression(data, MULTISET) == x


def test_expression_round_trip_list_and_action():
    xs = expression(LIST, 2, [[1, 2], [], [3]])
    assert parse_expression(expression_to_json(xs), LIST) == xs
    act = self_action_algebra(cyclic(4)).monad
    xa = expression(act, 2, (1, (2, 3)))
    assert parse_expression(expression_to_json(xa), act) == xa


def test_expression_round_trip_dist_rationals():
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    x = expression(
        DIST,
        2,
        [([([0], 1)], third), ([([1], half), ([2], half)], 1 - third)],
    )
    data = expression_to_json(x)
    assert data["depth"] == 2
    assert [1, 3] in [w for _, w in data["dist"]]
    assert parse_expression(data, DIST) == x


def test_envelope_keys():
    assert envelope_key(MULTISET) == "ms"
    assert envelope_key(LIST) == "list"
    assert envelope_key(DIST) == "dist"
    assert envelope_key(self_action_algebra(cyclic(4)).monad) == "act"


def test_detect_instance_requires_one_envelope():
    assert detect_instance({"ms": []}) == "ms"
    with pytest.raises(MalformedExpression):
        detect_instance({"ms": [], "list": []})
    with pytest.raises(MalformedExpression):
        detect_instance({"depth": 1})


def test_parse_witness_rejects_doctored_boundaries():
    alg = nat_add_algebra()
    x = ms_expr(2, [[3, 4], [5]])
    from parteval import witness_from_value

    w = witness_from_value(x, alg)
    data = witness_to_json(w)
    assert parse_witness(data, alg) == w
    data["witness"]["source"] = expression_to_json(ms_expr(1, [1]))
    with pytest.raises(MalformedExpression):
        parse_witness(data, alg)


def test_dumps_sorts_keys_and_stays_compact():
    text = dumps({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}'


def test_parse_algebra_rejects_unknown_shapes():
    with pytest.raises(MalformedExpression):
        parse_algebra({"alg": {"mystery": 1}}, "ms")
    with pytest.raises(MalformedExpression):
        parse_algebra({"alg": "nat-add"}, "dist")
