"""BGP plans kept on the node, and queries evaluated as they are given.

Each `BGP` node compiles its triple patterns once (`algebra.cached_plan`)
and orders them once per set of seeded names; every later match of the
node, under any semantics, row or evaluator, runs that plan. What
depends on the graph is still chosen per call. `Evaluator.solutions`
no longer star-expands its query.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from exists_lab import (
    BGP,
    Evaluator,
    Exists,
    FilterNode,
    Minus,
    Optional,
    Semantics,
    SubSelect,
    Union,
    ValuesNode,
    Variable,
    alpha_equivalent,
    dataset,
    expand_all_stars,
    fixture,
    graph_terms,
    normalize,
    parse_query,
)
from exists_lab import algebra
from exists_lab.algebra import cached_plan, compatible, iter_bgp
from exists_lab.syntax import children, map_children

from gen import (
    VARS,
    random_bgp,
    random_expression,
    random_graph,
    random_mapping,
    random_pattern,
    random_wide_pattern,
)
from test_acceptance import _brute_force_bgp
from test_seeded import chain_dataset


def nodes(node) -> list:
    """`node` and every AST node under it, EXISTS bodies included."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(children(n))
    return out


def planned(roots) -> dict[int, BGP]:
    """The BGP nodes under `roots` that hold a plan, by identity."""
    return {
        id(n): n
        for root in roots
        for n in nodes(root)
        if isinstance(n, BGP) and "_plan" in vars(n)
    }


@pytest.mark.parametrize("number", range(1, 9))
def test_each_bgp_node_is_planned_once_per_seeded_name_set(number, monkeypatch):
    compiled, ordered = [], []
    real_plan, real_order = algebra.plan_bgp, algebra._greedy_order

    def counting_plan(patterns):
        compiled.append(patterns)
        return real_plan(patterns)

    def counting_order(patterns, bound):
        ordered.append((id(patterns), frozenset(bound)))
        return real_order(patterns, bound)

    monkeypatch.setattr(algebra, "plan_bgp", counting_plan)
    monkeypatch.setattr(algebra, "_greedy_order", counting_order)
    chain = chain_dataset(60)
    query = expand_all_stars(parse_query(fixture(number).query))
    # One parsed query, evaluated twice under each semantics, each time
    # by a new evaluator, which prepares its own EXISTS bodies.
    evaluators = [Evaluator(chain, sem) for _ in range(2) for sem in Semantics]
    answers = [ev.solutions(query) for ev in evaluators]
    assert answers[:3] == answers[3:]
    roots = [query] + [body.node for ev in evaluators for body in ev._prepared.values()]
    plans = planned(roots)
    assert plans and any(id(n) in plans for n in nodes(query))
    # Each node is compiled once, and ordered once per seeded-name set.
    assert len(compiled) == len(plans)
    assert {id(p) for p in compiled} == {id(n.triples) for n in plans.values()}
    assert len(ordered) == len(set(ordered))
    assert len(ordered) == sum(len(cached_plan(n)._orders) for n in plans.values())


def test_one_plan_serves_every_graph_and_seed():
    # One node matched in turn against two indexed graphs and a plain
    # list, under several seeds: no graph state may stay in the plan.
    rng = random.Random(1107)
    checked = 0
    while checked < 100:
        bgp = random_bgp(rng, max_triples=3, allow_blank=True)
        graphs = [random_graph(rng, max_triples=10).default for _ in range(2)]
        graphs.append(list(graphs[0] | graphs[1]))
        positions = {p for tp in bgp.triples for p in tp.positions()}
        holes = {p for p in positions if isinstance(p, Variable) or p.is_blank}
        if max(len(graph_terms(g)) for g in graphs) ** len(holes) > 2000:
            continue
        expected = [_brute_force_bgp(g, bgp.triples) for g in graphs]
        for _ in range(3):
            seed = random_mapping(rng, max_vars=3)
            for g, whole in zip(graphs + graphs[:1], expected + expected[:1]):
                got = set(iter_bgp(g, bgp, seed))
                assert got == {mu for mu in whole if compatible(mu, seed)}, (checked, seed)
        # Seeded names the BGP lacks key no order of their own.
        plan = cached_plan(bgp)
        assert all(key <= plan.variables.keys() for key in plan._orders)
        checked += 1


def plan_orders() -> list:
    """The steps of generated BGP nodes under seeds of their variables,
    as pattern indices and probes."""
    rng = random.Random(31)
    out = []
    for _ in range(300):
        bgp = random_bgp(rng, max_triples=5, allow_blank=True)
        ds = random_graph(rng, max_triples=8)
        plan = cached_plan(bgp)
        names = sorted(plan.variables)
        for k in range(len(names) + 1):
            seeded = frozenset(rng.sample(names, k))
            seed = random_mapping(rng).restricted({v for v in VARS if v.name in seeded})
            list(iter_bgp(ds.default, bgp, seed))
            steps = plan.steps(seeded)
            out.append([(plan.patterns.index(tp), probes) for tp, probes in steps])
    return out


def test_plan_order_does_not_depend_on_the_hash_seed():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    orders = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", "import test_plans; print(test_plans.plan_orders())"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        orders.add(done.stdout.strip())
    assert len(orders) == 1


def test_a_plan_leaves_the_node_as_it_was():
    text = fixture(2).query
    query, twin = (expand_all_stars(parse_query(text)) for _ in range(2))
    bgps = [n for n in nodes(query) if isinstance(n, BGP)]

    def snapshot():
        return (
            [hash(n) for n in bgps],
            [repr(n) for n in bgps],
            repr(query),
            hash(query) == hash(twin),
            query == twin,
            [alpha_equivalent(normalize(query, s), normalize(twin, s)) for s in Semantics],
            [map_children(n, lambda c: c) is n for n in nodes(query)],
            [f.name for f in fields(BGP)],
        )

    before = snapshot()
    assert before[3:6] == (True, True, [True] * 3)
    for sem in Semantics:
        Evaluator(dataset("fig1"), sem).solutions(query)
    # The outer BGP is matched itself; the EXISTS body through its
    # normalized copy.
    assert any("_plan" in vars(n) for n in bgps)
    assert not any("_plan" in vars(n) for n in nodes(twin) if isinstance(n, BGP))
    assert snapshot() == before


def starred(node):
    """`node` with every sub-select projection, EXISTS bodies included,
    replaced by `*`."""
    if isinstance(node, (BGP, ValuesNode, Variable)):
        return node
    node = map_children(node, starred)
    if isinstance(node, SubSelect) and not node.is_star:
        return SubSelect(None, node.pattern)
    return node


def star_cases():
    """Fixture queries, and generated patterns with star sub-selects at
    the top, under OPTIONAL, UNION and MINUS, and inside EXISTS."""
    out = [(dataset(f.dataset_id), parse_query(f.query)) for f in map(fixture, range(1, 11))]
    rng = random.Random(4242)
    for case in range(200):
        ds = random_graph(rng, max_triples=12, named=True)
        make = random_wide_pattern if case % 2 else random_pattern
        star = SubSelect(None, starred(make(rng, 2)))
        other = starred(make(rng, 2))
        out += [
            (ds, star),
            (ds, Optional(other, star)),
            (ds, Union(star, other)),
            (ds, Minus(other, star)),
            (ds, FilterNode(other, Exists(star))),
            (ds, FilterNode(star, starred(random_expression(rng, 2)))),
        ]
    return out


@pytest.mark.parametrize("sem", list(Semantics))
def test_solutions_need_no_star_expansion(sem):
    stars = 0
    for ds, p in star_cases():
        expanded = expand_all_stars(p)
        stars += expanded != p
        assert Evaluator(ds, sem).solutions(p) == Evaluator(ds, sem).solutions(expanded), p
    assert stars >= 1000
