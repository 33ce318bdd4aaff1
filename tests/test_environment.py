"""EXISTS evaluated under an environment against per-row `bind`.

`Evaluator._exists` evaluates each normalized body `P'` in its fresh
names, with the g-keys read from an environment and the in-domain
values as a seed, instead of building `bind`'s substituted pattern per
outcome. `PerRowEvaluator` keeps the definition.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from exists_lab import (
    Evaluator,
    Semantics,
    expand_all_stars,
    fixture,
    parse_data,
    parse_query,
    sol,
)
from exists_lab import binding
from exists_lab.fixtures import dataset

from gen import random_graph
from test_exists_memo import SETTINGS, PerRowEvaluator, deep_query, generated_case
from test_seeded import chain_dataset, rows_read_by_exists


def cases():
    """Chain fixtures 1-8 and fixture 2 nested 1-4 deep on fig1."""
    out = [(dataset("fig1"), deep_query(d)) for d in range(1, 5)]
    chain = chain_dataset(60)
    out += [(chain, fixture(n).query) for n in range(1, 9)]
    return [(ds, expand_all_stars(parse_query(text))) for ds, text in out]


def test_no_substituted_pattern_is_built(monkeypatch):
    queries = cases()
    expected = [
        PerRowEvaluator(ds, sem).solutions(q) for ds, q in queries for sem in Semantics
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("mapping_substitute called")

    monkeypatch.setattr(binding, "mapping_substitute", refuse)
    got = [Evaluator(ds, sem).solutions(q) for ds, q in queries for sem in Semantics]
    assert got == expected
    assert any(got)


@pytest.mark.parametrize("number", [3, 5])
@pytest.mark.parametrize("sem", [Semantics.S2, Semantics.S3], ids=lambda s: s.name)
def test_an_environment_iri_seeds_the_match(number, sem, monkeypatch):
    # `?chparent = ?parent` reads ?parent's g-key from the environment;
    # it seeds ?chparent as the substituted `?chparent = <c>` would.
    rows = rows_read_by_exists(monkeypatch)
    ev = Evaluator(chain_dataset(200), sem)
    got = ev.solutions(expand_all_stars(parse_query(fixture(number).query)))
    assert len(got) == 99 and len(ev._outcomes) == 100
    assert rows[0] <= len(ev._outcomes)


def agree(ds, query, expected):
    query = expand_all_stars(parse_query(query))
    for sem, links in SETTINGS:
        got = Evaluator(ds, sem, s3_subselect_links=links).solutions(query)
        assert got == PerRowEvaluator(ds, sem, s3_subselect_links=links).solutions(query)
        assert got == expected[sem], (sem, links)


def test_an_unmapped_g_key_is_unbound():
    # :a has a ?z, :h has none. Under S2/S3 ?z is a g-key with no value
    # for :h: `?z != ?w` errors there, so NOT EXISTS holds, and
    # `bound(?z)` is false. Under S1 ?z is local to the body, so it is
    # unbound for both rows.
    ds = parse_data(":a :p :b . :b :q :c . :h :p :i . :a :r :c . :a :r :d . :h :r :c .")
    both = frozenset({sol(x=":a", y=":b", z=":c"), sol(x=":h", y=":i")})
    h_only = frozenset({sol(x=":h", y=":i")})
    expected = {Semantics.S1: both, Semantics.S2: h_only, Semantics.S3: h_only}
    agree(
        ds,
        "SELECT * WHERE { ?x :p ?y OPTIONAL { ?y :q ?z }"
        " FILTER NOT EXISTS { ?x :r ?w FILTER (?z != ?w) } }",
        expected,
    )
    agree(
        ds,
        "SELECT * WHERE { ?x :p ?y OPTIONAL { ?y :q ?z }"
        " FILTER EXISTS { ?x :r ?w FILTER (!bound(?z)) } }",
        expected,
    )


def test_one_evaluator_keeps_value_equal_queries_apart():
    # The memos key on pattern identity: two parses of one text share
    # no entry, and each still gives the per-row answer.
    ds = dataset("fig1")
    text = fixture(3).query
    for sem in Semantics:
        ev = Evaluator(ds, sem)
        first, second = (expand_all_stars(parse_query(text)) for _ in range(2))
        assert first == second and first is not second
        expected = fixture(3).expected[sem]
        assert ev.solutions(first) == expected
        entries = len(ev._prepared)
        assert ev.solutions(second) == expected
        assert len(ev._prepared) == 2 * entries


def test_one_evaluator_serves_many_short_lived_queries():
    # The memos key on `id(pattern)`, which a freed pattern hands on to
    # the next object at its address. So the memo holds every pattern it
    # keys on, and a query dropped by its caller is never freed under it.
    ds = random_graph(random.Random(7), max_triples=20, named=True)
    for sem, links in SETTINGS:
        ev = Evaluator(ds, sem, s3_subselect_links=links)
        for seed in range(60):
            _, pattern = generated_case(seed)
            expected = PerRowEvaluator(ds, sem, s3_subselect_links=links).solutions(pattern)
            assert ev.solutions(pattern) == expected, (seed, sem, links)
        body = weakref.ref(pattern.condition.pattern)
        del pattern
        gc.collect()
        assert body() is not None


def test_one_body_at_two_places_in_one_filter():
    ds = dataset("fig1")
    body = "{ ?child :parent ?parent FILTER (?parent != :c) }"
    agree(
        ds,
        "SELECT ?parent WHERE { ?parent :country :j"
        f" FILTER (EXISTS {body} && NOT EXISTS {body}) }}",
        {sem: frozenset() for sem in Semantics},
    )
    # Nested one level down, the two bodies are sub-nodes of one
    # normalized pattern and read the outer ?parent from the environment.
    agree(
        ds,
        "SELECT ?parent WHERE { ?parent :country :j FILTER EXISTS { ?x :country ?c"
        f" FILTER (EXISTS {body} || NOT EXISTS {body}) }} }}",
        {sem: frozenset({sol(parent=":a"), sol(parent=":b")}) for sem in Semantics},
    )
