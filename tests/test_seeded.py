"""Matching from a seed against matching from nothing.

`iter_bgp(graph, bgp, seed)` must yield exactly the matches compatible
with `seed`, and `Evaluator._rows(p, graph, seed)` may only leave out
rows incompatible with it. Both are checked against the unseeded
reference: `match_bgp` over a plain list (scanned whole, no lookup
table) and `Evaluator._pattern`.
"""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from exists_lab import (
    BGP,
    And,
    Compare,
    Const,
    Evaluator,
    FilterNode,
    Graph,
    Semantics,
    SolutionMapping,
    Triple,
    TriplePattern,
    Var,
    Variable,
    blank,
    expand_all_stars,
    fixture,
    integer,
    iri,
    parse_data,
    parse_query,
    in_domain,
    sol,
    string,
    typed_literal,
)
from exists_lab.algebra import EMPTY_MAPPING, canonical_order, compatible, iter_bgp, match_bgp
from exists_lab.fixtures import dataset

from gen import (
    NODES,
    VARS,
    random_expression,
    random_graph,
    random_mapping,
    random_pattern,
    random_wide_pattern,
)
from test_exists_memo import deep_query

# The package's `evaluate` function shadows the module of that name.
evaluate_module = importlib.import_module("exists_lab.evaluate")

# Terms that share a lexical value across kinds and datatypes, so a
# lookup that confused them would show.
SUBJECTS = (iri("urn:ex:t0"), iri("urn:ex:t1"), blank("b0"))
PREDICATES = (iri("urn:ex:p"), iri("urn:ex:q"))
OBJECTS = SUBJECTS + (
    string("urn:ex:t0"),
    string("1"),
    integer(1),
    typed_literal("1", "urn:ex:dt"),
)
# ?w occurs in no generated BGP: a seed may bind it.
SEED_VARS = VARS[:3] + (Variable("w"),)

terms = st.sampled_from(OBJECTS)
triples = st.builds(
    Triple, st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), terms
)


def position(constants):
    return st.one_of(
        st.sampled_from(VARS[:3]),
        st.sampled_from((blank("u"), blank("v"))),
        st.sampled_from(constants),
    )


triple_patterns = st.builds(
    TriplePattern,
    position(SUBJECTS),
    st.one_of(st.sampled_from(VARS[:3]), st.sampled_from(PREDICATES)),
    position(OBJECTS),
)
bgps = st.lists(triple_patterns, max_size=3).map(lambda tps: BGP(tuple(tps)))
seeds = st.dictionaries(st.sampled_from(SEED_VARS), terms, max_size=3).map(
    SolutionMapping.of
)
x, y = Variable("x"), Variable("y")
P = iri("urn:ex:p")


@settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.frozensets(triples, max_size=12), bgps, seeds)
# A repeated variable, with the seed agreeing and disagreeing.
@example(
    frozenset({Triple(SUBJECTS[0], P, SUBJECTS[0]), Triple(SUBJECTS[0], P, SUBJECTS[1])}),
    BGP((TriplePattern(x, P, x),)),
    SolutionMapping.of({x: SUBJECTS[0]}),
)
@example(
    frozenset({Triple(SUBJECTS[0], P, SUBJECTS[0])}),
    BGP((TriplePattern(x, P, x),)),
    SolutionMapping.of({x: SUBJECTS[1]}),
)
# A seed that fills a position with a term the constant beside it
# rules out: an IRI with a literal's lexical value.
@example(
    frozenset({Triple(SUBJECTS[0], P, string("urn:ex:t0"))}),
    BGP((TriplePattern(x, P, y),)),
    SolutionMapping.of({y: SUBJECTS[0]}),
)
# The empty BGP, under a seed of variables it lacks.
@example(
    frozenset({Triple(SUBJECTS[0], P, SUBJECTS[1])}),
    BGP(()),
    SolutionMapping.of({x: integer(1)}),
)
def test_iter_bgp_from_a_seed_yields_the_compatible_matches(data, bgp, seed):
    graph = Graph(data)
    expected = {mu for mu in match_bgp(list(data), bgp) if compatible(mu, seed)}
    assert set(iter_bgp(graph, bgp, seed)) == expected
    # A plain collection takes the same seed, scanned whole.
    assert set(iter_bgp(list(data), bgp, seed)) == expected
    if not seed:
        assert match_bgp(graph, bgp) == match_bgp(list(data), bgp)


def test_graph_lookup_keeps_kinds_and_datatypes_apart():
    ts = [Triple(SUBJECTS[0], P, o) for o in OBJECTS]
    graph = Graph(ts)
    for o in OBJECTS:
        assert graph.lookup(2, o) == (Triple(SUBJECTS[0], P, o),)
    assert graph.lookup(0, string("urn:ex:t0")) == ()
    assert graph.lookup(1, P) == graph.triples
    assert graph == frozenset(ts) and hash(graph) == hash(frozenset(ts))


def test_graph_order_does_not_follow_insertion_order():
    ts = [Triple(s, p, o) for s in SUBJECTS for p in PREDICATES for o in OBJECTS]
    orders = set()
    for seed in range(5):
        random.Random(seed).shuffle(ts)
        orders.add(Graph(ts).triples)
    assert len(orders) == 1


def test_datasets_store_graphs():
    ds = parse_data("GRAPH <urn:ex:g> { :a :p :b . }\n:a :q :c .")
    assert isinstance(ds.default, Graph)
    assert isinstance(ds.graph("urn:ex:g"), Graph)
    built = type(ds)(frozenset(ds.default), {"urn:ex:g": set(ds.graph("urn:ex:g"))})
    assert isinstance(built.default, Graph) and isinstance(built.named["urn:ex:g"], Graph)
    assert built == ds


def rows_case(case: int, sem: Semantics):
    """A pattern over the whole fragment, half of the time under a
    filter that opens with an `?x = <IRI>` conjunct, its evaluator and
    a seed: random, or half of the time part of one of its solutions."""
    rng = random.Random(case)
    ds = random_graph(rng, max_triples=30, named=True)
    p = (random_pattern if case % 2 else random_wide_pattern)(rng, 2)
    names = sorted(in_domain(p), key=lambda v: v.name) or list(VARS)
    if rng.random() < 0.5:
        condition = Compare("=", Var(rng.choice(names)), Const(rng.choice(NODES)))
        if rng.random() < 0.5:
            condition = And(condition, random_expression(rng, 1))
        p = FilterNode(p, condition)
    p = expand_all_stars(p)
    ev = Evaluator(ds, sem)
    whole = canonical_order(ev._pattern(p, ds.default))
    seed = random_mapping(rng, 3)
    if whole and rng.random() < 0.5:
        row = rng.choice(whole)
        names = sorted(row, key=lambda v: v.name)
        seed = row.restricted(rng.sample(names, rng.randint(0, len(names))))
    return ev, p, ds.default, frozenset(whole), seed


@pytest.mark.parametrize("sem", list(Semantics))
def test_seeded_rows_agree_with_whole_evaluation(sem):
    compared = 0
    for case in range(1000):
        ev, p, graph, whole, seed = rows_case(case, sem)
        expected = {mu for mu in whole if compatible(mu, seed)}
        got = {mu for mu in ev._rows(p, graph, seed) if compatible(mu, seed)}
        assert got == expected, case
        assert set(ev._rows(p, graph)) == whole, case
        compared += bool(seed) and bool(expected)
    assert compared >= 80


def seeds_passed(monkeypatch) -> list[SolutionMapping]:
    """Each seed `Evaluator._rows` hands to `iter_bgp` from now on."""
    seen = []
    real = evaluate_module.iter_bgp

    def recording(graph, bgp, seed=EMPTY_MAPPING):
        seen.append(seed)
        return real(graph, bgp, seed)

    monkeypatch.setattr(evaluate_module, "iter_bgp", recording)
    return seen


@pytest.mark.parametrize("sem", list(Semantics))
def test_literal_equality_is_by_value_so_it_does_not_seed(sem, monkeypatch):
    seen = seeds_passed(monkeypatch)
    ds = parse_data(':a :p "01"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    q = parse_query("SELECT * WHERE { ?s :p ?o FILTER EXISTS { ?s :p ?x FILTER (?x = 1) } }")
    got = Evaluator(ds, sem).solutions(expand_all_stars(q))
    o = typed_literal("01", integer(1).datatype)
    row = SolutionMapping.of({Variable("s"): iri("urn:ex:a"), Variable("o"): o})
    assert got == frozenset({row})
    assert all(Variable("x") not in seed for seed in seen)


def test_an_iri_equality_seeds_the_match(monkeypatch):
    seen = seeds_passed(monkeypatch)
    ds = parse_data("\n".join(f":x{i} :p :y{i} ." for i in range(50)))
    p = FilterNode(
        BGP((TriplePattern(x, P, y),)),
        And(
            Compare("=", Const(iri("urn:ex:y7")), Var(y)),
            Compare("!=", Var(x), Const(integer(1))),
        ),
    )
    ev = Evaluator(ds, Semantics.S2)
    assert list(ev._rows(p, ds.default)) == [sol(x=":x7", y=":y7")]
    assert seen == [sol(y=":y7")]
    # Two equalities that cannot both hold read nothing.
    seen.clear()
    clash = FilterNode(p, Compare("=", Var(y), Const(iri("urn:ex:y8"))))
    assert list(ev._rows(clash, ds.default)) == []
    assert seen == []


def chain_dataset(people: int):
    """A `:parent` chain; `:country` alternates :j, :k. Its first four
    people are fig1's :a :b :c :d, so the fixtures' constants occur."""
    names = ["a", "b", "c", "d"] + [f"p{i}" for i in range(4, people)]
    lines = [f":{a} :parent :{b} ." for a, b in zip(names, names[1:])]
    lines += [f":{a} :country :{'jk'[i % 2]} ." for i, a in enumerate(names)]
    return parse_data("\n".join(lines))


@pytest.mark.parametrize("sem", list(Semantics))
def test_fixture_1_reads_at_most_one_row_per_exists_outcome(sem, monkeypatch):
    # Counted in rows, not time: each outcome's match starts from the
    # VALUES row, so it reads the one triple naming ?parent as object.
    rows = 0
    real = evaluate_module.iter_bgp

    def counting(graph, bgp, seed=EMPTY_MAPPING):
        nonlocal rows
        for mu in real(graph, bgp, seed):
            rows += 1
            yield mu

    monkeypatch.setattr(evaluate_module, "iter_bgp", counting)
    ev = Evaluator(chain_dataset(200), sem)
    got = ev.solutions(expand_all_stars(parse_query(fixture(1).query)))
    assert len(got) == 99 and len(ev._outcomes) == 100
    assert rows <= len(ev._outcomes)


def exists_call_counts() -> list[int]:
    """`Evaluator._exists` calls for fixture 2 nested 1-4 deep on fig1
    and fixtures 1-8 on a 60-person chain, each under S1/S2/S3."""
    calls = 0

    class Counting(Evaluator):
        def _exists(self, *args):
            nonlocal calls
            calls += 1
            return super()._exists(*args)

    cases = [(dataset("fig1"), deep_query(d)) for d in range(1, 5)]
    chain = chain_dataset(60)
    cases += [(chain, fixture(n).query) for n in range(1, 9)]
    out = []
    for ds, text in cases:
        query = expand_all_stars(parse_query(text))
        for sem in Semantics:
            calls = 0
            Counting(ds, sem).solutions(query)
            out.append(calls)
    return out


def test_exists_calls_do_not_depend_on_the_hash_seed():
    # Which nested EXISTS calls happen depends on which row a lazy
    # stream yields first. Graphs are read in their sorted order, so
    # that no longer follows frozenset order, which varies with
    # PYTHONHASHSEED (and, for hash(None), with the process's address
    # layout).
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    counts = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", "import test_seeded; print(test_seeded.exists_call_counts())"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        counts.add(done.stdout.strip())
    assert len(counts) == 1, counts


def test_a_join_with_many_right_rows_reads_its_left_side_once():
    # Seeding the left side per right row would evaluate the OPTIONAL,
    # which ignores seeds, once for each of the 30 `:r` rows.
    class Counting(Evaluator):
        optionals = 0

        def _optional(self, p, graph):
            self.optionals += 1
            return super()._optional(p, graph)

    lines = [f":x{i} :p :y{i} .\n:y{i} :q :z{i} .\n:u{i} :r :w{i} ." for i in range(30)]
    ds = parse_data("\n".join(lines) + "\n:o :s :t .")
    q = parse_query(
        "SELECT * WHERE { ?o :s ?t FILTER NOT EXISTS { ?x :p ?y OPTIONAL { ?y :q ?z } ?z :r ?w } }"
    )
    for sem in Semantics:
        ev = Counting(ds, sem)
        assert ev.solutions(expand_all_stars(q)) == frozenset({sol(o=":o", t=":t")})
        assert ev.optionals == len(ev._outcomes) == 1
