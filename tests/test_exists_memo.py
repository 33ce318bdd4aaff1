"""The evaluator's memoized EXISTS against per-row `bind`.

`Evaluator._exists` prepares each nested pattern once and memoizes each
outcome on the solution's restriction to the variables `bind` reads.
`PerRowEvaluator` keeps the definition: `bind` from scratch for every
outer row. Both must give the same solution sets everywhere.
"""

from __future__ import annotations

import random

import pytest

from exists_lab import (
    Evaluator,
    Exists,
    FilterNode,
    NotExists,
    Semantics,
    bind,
    expand_all_stars,
    parse_data,
    parse_query,
    sol,
)
from exists_lab import binding
from exists_lab.fixtures import dataset

from gen import random_expression, random_graph, random_pattern, random_wide_pattern

SETTINGS = [(sem, links) for sem in Semantics for links in (True, False)]
CASES = 600


class PerRowEvaluator(Evaluator):
    """The reference path: the unmemoized `bind` for every outer row."""

    def _exists(self, pattern, mu, graph):
        return bool(
            self._pattern(
                bind(pattern, mu, self.semantics, s3_subselect_links=self._s3_links),
                graph,
            )
        )


class CountingEvaluator(Evaluator):
    """The evaluator under test, counting EXISTS calls and memo hits."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.exists_calls = 0

    def _exists(self, pattern, mu, graph):
        self.exists_calls += 1
        return super()._exists(pattern, mu, graph)

    @property
    def memo_hits(self) -> int:
        return self.exists_calls - len(self._outcomes)


def generated_case(seed: int):
    """A random dataset with named graphs, and a pattern under a
    FILTER (NOT) EXISTS whose body filters on a random expression that
    may itself hold EXISTS."""
    rng = random.Random(seed)
    ds = random_graph(rng, max_triples=20, named=True)
    make = random_pattern if seed % 2 else random_wide_pattern
    outer = make(rng, 2)
    body = FilterNode(make(rng, 1), random_expression(rng, exists=True))
    return ds, FilterNode(outer, rng.choice((Exists, NotExists))(body))


def deep_query(depth: int) -> str:
    """Fixture 2's shape nested `depth` deep; depth 1 is fixture 2."""

    def block(i: int) -> str:
        bgp = f"?v{i} :parent ?v{i - 1}"
        if i == depth:
            return bgp
        return f"{bgp} FILTER EXISTS {{ SELECT ?v{i + 1} WHERE {{ {block(i + 1)} }} }}"

    return f"SELECT ?v0 WHERE {{ ?v0 :country :j FILTER EXISTS {{ SELECT ?v1 WHERE {{ {block(1)} }} }} }}"


def evaluate_both(ds, pattern, sem, links):
    ev = CountingEvaluator(ds, sem, s3_subselect_links=links)
    got = ev.solutions(pattern)
    expected = PerRowEvaluator(ds, sem, s3_subselect_links=links).solutions(pattern)
    return got, expected, ev


def test_memo_agrees_with_per_row_bind_on_generated_cases():
    hit_and_nonempty = 0
    for seed in range(CASES):
        ds, pattern = generated_case(seed)
        for sem, links in SETTINGS:
            got, expected, ev = evaluate_both(ds, pattern, sem, links)
            assert got == expected, (seed, sem, links)
            hit_and_nonempty += ev.memo_hits > 0 and bool(got)
    # Most generated answers are empty; the comparison must still see
    # many answers that rows served from the memo helped decide.
    assert hit_and_nonempty >= 150


@pytest.mark.parametrize("depth", range(1, 6))
def test_memo_agrees_with_per_row_bind_on_nested_fixture_2(depth):
    ds = dataset("fig1")
    query = expand_all_stars(parse_query(deep_query(depth)))
    for sem, links in SETTINGS:
        got, expected, ev = evaluate_both(ds, query, sem, links)
        assert got == expected
        if depth > 1:
            assert ev.memo_hits > 0
    # S3 links each level's hidden variable: only :b has a chain.
    s3 = Evaluator(ds, Semantics.S3).solutions(query)
    assert s3 == (frozenset({sol(v0=":b")}) if depth == 1 else frozenset())


def test_each_nested_pattern_is_normalized_once(monkeypatch):
    calls = []

    def counting_normalize(*args, **kwargs):
        calls.append(args[0])
        return normalize(*args, **kwargs)

    normalize = binding.normalize
    monkeypatch.setattr(binding, "normalize", counting_normalize)
    query = expand_all_stars(parse_query(deep_query(4)))
    ev = CountingEvaluator(dataset("fig1"), Semantics.S3)
    ev.solutions(query)
    assert len(calls) == len(ev._prepared) == len(set(calls))
    assert len(calls) < ev.exists_calls


def test_outcomes_are_kept_apart_per_active_graph():
    # Both rows restrict to {?s=:a}; only the active graph tells the two
    # EXISTS calls apart.
    ds = parse_data(
        "@prefix : <urn:ex:> .\n"
        "GRAPH <urn:ex:g1> { :a :p :b . :a :q :c . }\n"
        "GRAPH <urn:ex:g2> { :a :p :b . }"
    )
    query = expand_all_stars(
        parse_query("SELECT * WHERE { GRAPH ?g { ?s :p ?o FILTER EXISTS { ?s :q ?z } } }")
    )
    for sem in Semantics:
        assert Evaluator(ds, sem).solutions(query) == frozenset(
            {sol(g=":g1", s=":a", o=":b")}
        )
