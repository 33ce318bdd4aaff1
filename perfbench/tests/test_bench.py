"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import importlib
import json
import signal
import time

import pytest

import digests
import run
import spans
import timing
import workloads as W
from exists_lab import (
    Evaluator,
    Semantics,
    SolutionMapping,
    Variable,
    expand_all_stars,
    fixture,
    iri,
    parse_data,
    parse_query,
)
from exists_lab.serialize import serialize


# -- the percentile rule -------------------------------------------------


def test_p90_of_100_samples_has_ten_above_it():
    value, tail = timing.percentile([float(x) for x in range(100)], 0.9)
    assert (value, tail) == (89.0, 10)


def test_percentile_with_fewer_than_ten_above_is_refused():
    with pytest.raises(ValueError, match="fewer than 10"):
        timing.percentile([float(x) for x in range(99)], 0.9)


def test_ties_at_the_percentile_do_not_count_as_above():
    samples = [1.0] * 95 + [2.0] * 5
    with pytest.raises(ValueError):
        timing.percentile(samples, 0.9)


def test_a_timed_run_times_enough_ops_for_its_p90():
    assert run.MIN_OPS // 10 >= timing.MIN_TAIL


# -- self-time arithmetic ------------------------------------------------


def synthetic_tree():
    #  evaluate.solutions [0, 10]
    #  ├─ algebra.match_bgp [1, 4], then 0.5 s computing its counts
    #  │  └─ algebra.join [2, 3]
    #  └─ algebra.minus [5, 6]
    return [
        spans.Span("evaluate.solutions", 0.0, 10.0, None),
        spans.Span("algebra.match_bgp", 1.0, 4.0, 0, tail=0.5, counts={"rows_out": 3}),
        spans.Span("algebra.join", 2.0, 3.0, 1),
        spans.Span("algebra.minus", 5.0, 6.0, 0),
    ]


def test_self_time_is_duration_minus_children_and_their_tails():
    assert spans.self_times(synthetic_tree()) == [5.5, 2.0, 1.0, 1.0]


def test_self_times_of_a_tree_add_up_to_the_root_less_tails():
    assert sum(spans.self_times(synthetic_tree())) == pytest.approx(10.0 - 0.5)


def test_layer_metrics_add_spans_of_one_name_and_scale_seconds():
    tree = synthetic_tree() + [
        spans.Span("algebra.match_bgp", 7.0, 8.0, 0, counts={"rows_out": 2, "graph_triples_in": 6}),
    ]
    m = spans.layer_metrics(tree, {"algebra.match_bgp", "evaluate.solutions"}, [2.0] * len(tree))
    assert m == {
        "algebra.match_bgp.calls": 2,
        "algebra.match_bgp.self_s": 6.0,
        "algebra.match_bgp.rows_out": 5,
        "algebra.match_bgp.graph_triples_in": 6,
        "evaluate.solutions.calls": 1,
        "evaluate.solutions.self_s": 9.0,
    }


# -- failure accounting --------------------------------------------------


class FakeEvaluator:
    """Stands in for the evaluator; the query says what to do."""

    def __init__(self, dataset, semantics):
        pass

    def solutions(self, query):
        if query == "raise":
            raise KeyError("boom")
        if query == "recurse":
            raise RecursionError("maximum recursion depth exceeded")
        if query == "hang":
            time.sleep(5)
        return frozenset()


class FakePackage:
    Evaluator = FakeEvaluator


class FakeWorkload:
    op_deadline_s = 0.05


def op(query, expected=frozenset(), group=None):
    return run.Op(query, None, query, None, expected, group)


def test_exceptions_wrong_answers_and_deadlines_count_as_failed():
    tally = run.Tally()
    ops = [
        op("ok"),
        op("raise"),
        op("recurse"),
        op("hang"),
        op("wrong", expected=W.iri_rows("x", ["a"])),
        op("wrong-digest", expected="00000000"),
        op("unchecked", expected=None),
    ]
    started = time.perf_counter()
    run.run_round(FakePackage, FakeWorkload, ops, tally, stop_at=started + 60)
    assert time.perf_counter() - started < 2
    assert tally.attempted == 7
    assert tally.failures == {"exception": 2, "deadline": 1, "wrong": 2}
    assert tally.failed == 5
    assert (tally.checked, tally.unchecked) == (3, 1)


def test_semantics_that_disagree_on_an_exists_free_query_fail():
    one_row = frozenset([SolutionMapping.of({Variable("x"): iri("urn:ex:a")})])

    class Disagree(FakeEvaluator):
        def __init__(self, dataset, semantics):
            self.semantics = semantics

        def solutions(self, query):
            return frozenset() if self.semantics == "s1" else one_row

    class Package:
        Evaluator = Disagree

    ops = [run.Op(f"item0/{s}", None, "q", s, None, group=0) for s in W.SEMANTICS]
    tally = run.Tally()
    run.run_round(Package, FakeWorkload, ops, tally, stop_at=time.perf_counter() + 60)
    assert tally.failures == {"wrong": 3}


def test_the_deadline_timer_is_off_after_an_op():
    with timing.deadline(0.5):
        pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- the traced run's wrappers -------------------------------------------


def hooked_values():
    out = []
    for module, attr, _, _ in spans.HOOKS:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append(vars(owner)[name] if isinstance(owner, type) else getattr(owner, name))
    return out


def test_every_hook_resolves_at_this_commit():
    tracer = spans.Tracer()
    with tracer.install():
        pass
    assert tracer.missing == []


def test_wrappers_are_removed_so_untraced_runs_pay_nothing():
    before = hooked_values()
    tracer = spans.Tracer()
    ds = parse_data(W.FIG1)
    query = expand_all_stars(parse_query(W.deep_query(2)))
    with tracer.install():
        assert all(a is not b for a, b in zip(before, hooked_values()))
        Evaluator(ds, Semantics.S3).solutions(query)
    recorded = len(tracer.spans)
    assert recorded > 0
    assert all(a is b for a, b in zip(before, hooked_values()))
    Evaluator(ds, Semantics.S3).solutions(query)
    assert len(tracer.spans) == recorded


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = hooked_values()
    with pytest.raises(RuntimeError):
        with spans.Tracer().install():
            raise RuntimeError("stop")
    assert all(a is b for a, b in zip(before, hooked_values()))


def test_a_missing_hook_is_reported_and_its_metrics_left_out():
    hooks = spans.HOOKS + (("exists_lab.evaluate", "no_such_function", "algebra.ghost", None),)
    tracer = spans.Tracer(hooks)
    with tracer.install():
        pass
    assert tracer.missing == ["exists_lab.evaluate.no_such_function"]
    assert "algebra.ghost" not in tracer.names()
    metrics = spans.layer_metrics([], tracer.names())
    assert not any(k.startswith("algebra.ghost") for k in metrics)
    assert metrics["algebra.match_bgp.calls"] == 0


def test_a_span_name_survives_while_one_of_its_hooks_resolves():
    hooks = (
        ("exists_lab.evaluate", "expand_all_stars", "scope.expand_all_stars", None),
        ("exists_lab.gone", "expand_all_stars", "scope.expand_all_stars", None),
    )
    tracer = spans.Tracer(hooks)
    with tracer.install():
        pass
    assert tracer.missing == ["exists_lab.gone.expand_all_stars"]
    assert tracer.names() == {"scope.expand_all_stars"}


# -- generators and answers ----------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 9])
def test_chain_answers_derived_by_hand_hold_for_other_lengths(n):
    ds = parse_data(W.chain_data(seed=3, n=n))
    expected = W.chain_expected(n)
    for number, text in W.CHAIN_QUERIES.items():
        query = expand_all_stars(parse_query(text))
        for s in W.SEMANTICS:
            got = run.to_rows(Evaluator(ds, Semantics(s)).solutions(query))
            assert got == expected[number, s], (number, s)


def test_deep_query_at_depth_one_is_fixture_two():
    renamed = fixture(2).query.replace("?parent", "?v0").replace("?child", "?v1")
    assert serialize(parse_query(W.deep_query(1))) == serialize(parse_query(renamed))


def test_generators_are_seeded():
    assert W.mix_items(7, 0, 20) == W.mix_items(7, 0, 20)
    assert W.mix_items(7, 0, 20) != W.mix_items(8, 0, 20)
    assert W.mix_items(7, 10, 5) == W.mix_items(7, 0, 15)[10:]
    assert W.chain_data(1) != W.chain_data(2)
    assert sorted(W.chain_data(1).splitlines()) == sorted(W.chain_data(2).splitlines())


def test_random_items_stay_small_and_parse():
    for item in W.mix_items(3, 0, 100):
        ds = parse_data(item.data)
        assert len(ds.default) + sum(len(g) for g in ds.named.values()) <= W.MAX_TRIPLES
        parse_query(item.query)


def test_recorded_digests_cover_the_checked_items():
    recorded = digests.load()
    assert len(recorded) == 3 * digests.CHECKED_ITEMS
    assert {i for i, _ in recorded} == set(range(digests.CHECKED_ITEMS))


# -- BENCHMARK.json ------------------------------------------------------


def benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_end_to_end_metrics_a_run_reports():
    scaler = timing.Scaler()
    for i in range(100):
        scaler.add("op", 0.001 * (i + 1))
    scaler.add("setup", 0.01)
    scaler.mark()
    metrics, _ = run.end_to_end(scaler, run.Tally())
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared


def test_benchmark_json_names_the_per_layer_metrics_a_traced_run_reports():
    metrics = spans.layer_metrics([], set(spans.COUNTS))
    metrics["trace.overhead_ratio"] = 1.0
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: run.layer_units(k) for k in metrics} == declared
    assert [w["name"] for w in benchmark_json()["workloads"]] == list(run.WORKLOADS)
