"""Mapping substitution, VALUES encoding, and the bind operation."""

from __future__ import annotations

import pytest

from exists_lab import (
    BGP,
    And,
    Bound,
    Compare,
    Const,
    EMPTY_MAPPING,
    Exists,
    FilterNode,
    Join,
    Normalization,
    Not,
    Or,
    Semantics,
    SolutionMapping,
    SubSelect,
    TriplePattern,
    UnsupportedFeatureError,
    ValuesNode,
    Var,
    Variable,
    alpha_equivalent,
    apply_solution,
    bind,
    encode_values,
    evaluate,
    in_domain,
    integer,
    iri,
    join,
    mapping_substitute,
    parse_pattern,
    parse_query,
    prepare,
    serialize,
    sol,
    unit_values,
)
from exists_lab.fixtures import dataset, fixture
from exists_lab.syntax import FRESH

from gen import bgp_position_terms


def ex(name: str):
    return iri(f"urn:ex:{name}")


def v(name: str) -> Variable:
    return Variable(name)


def f(name: str) -> Variable:
    return Variable(name, FRESH)


def bgp(*spec) -> BGP:
    return BGP(tuple(TriplePattern(*t) for t in spec))


def alpha_nodes(a, b) -> bool:
    return alpha_equivalent(Normalization(a), Normalization(b))


class TestMappingSubstitute:
    def test_worked_example_with_bound_mapping(self):
        # (P', d, g) for {:a :p ?x} . {:b :q ?y FILTER (?y < ?x)} under
        # a mapping sending ?x to 1: the comparison role receives the
        # value, the output roles get their names back.
        x1, y1, x2 = f("x1"), f("y1"), f("x2")
        n = Normalization(
            Join(
                bgp((ex("a"), ex("p"), x1)),
                FilterNode(bgp((ex("b"), ex("q"), y1)), Compare("<", Var(y1), Var(x2))),
            ),
            {x1: v("x"), y1: v("y")},
            {x2: v("x")},
        )
        got = mapping_substitute(n, sol(x="1"))
        expected = Join(
            bgp((ex("a"), ex("p"), v("x"))),
            FilterNode(
                bgp((ex("b"), ex("q"), v("y"))),
                Compare("<", Var(v("y")), Const(integer(1))),
            ),
        )
        assert got == expected

    def test_empty_mapping_restores_names_and_falsifies_bound(self):
        x1, x2 = f("x1"), f("x2")
        n = Normalization(
            FilterNode(bgp((x1, ex("p"), ex("a"))), And(Bound(x2), Compare("=", Var(x1), Var(x2)))),
            {x1: v("x")},
            {x2: v("x")},
        )
        got = mapping_substitute(n, EMPTY_MAPPING)
        expected = FilterNode(
            bgp((v("x"), ex("p"), ex("a"))),
            And(Const_bool(False), Compare("=", Var(v("x")), Var(v("x")))),
        )
        assert got == expected

    def test_exists_expression_under_partial_mapping(self):
        # EXISTS { ?child :parent ?parent } bound with ?parent -> :a:
        # the ?parent link collapses onto the constant, the ?child link
        # keeps the (unbound) original name and a FALSE bound() guard.
        e = Exists(bgp((v("child"), ex("parent"), v("parent"))))
        got = bind(e, sol(parent=":a"), Semantics.S2)
        c, p = f("c"), f("p")
        expected = Exists(
            FilterNode(
                FilterNode(
                    bgp((c, ex("parent"), p)),
                    Or(
                        Not(And(Bound(c), Const_bool(False))),
                        Compare("=", Var(c), Var(v("child"))),
                    ),
                ),
                Or(
                    Not(And(Bound(p), Const_bool(True))),
                    Compare("=", Var(p), Const(ex("a"))),
                ),
            )
        )
        assert alpha_nodes(got, expected)


def Const_bool(value: bool):
    from exists_lab import boolean

    return Const(boolean(value))


class TestEncodeValues:
    def test_two_variable_mapping(self):
        mu = sol(x="1", y="2")
        got = encode_values(mu, {v("x"), v("y")})
        assert got == ValuesNode((v("x"), v("y")), ((integer(1), integer(2)),))

    def test_empty_mapping_gives_unit(self):
        assert encode_values(EMPTY_MAPPING, {v("x")}) == unit_values()

    def test_disjoint_restriction_gives_unit(self):
        assert encode_values(sol(parent=":a"), {v("child")}) == unit_values()


class TestBind:
    def test_s1_reduces_to_join_with_restricted_mapping(self, fig1):
        inner = parse_query(fixture(2).query).pattern.condition.pattern
        mu = sol(parent=":b", child=":a")
        got = evaluate(fig1, bind(inner, mu, Semantics.S1), Semantics.S1)
        expected = join(
            evaluate(fig1, inner, Semantics.S1),
            frozenset({mu.restricted(in_domain(inner))}),
        )
        assert got == expected

    def test_s2_subselect_substitution_shape(self):
        inner = parse_query(fixture(3).query).pattern.condition.pattern
        got = bind(inner, sol(parent=":b"), Semantics.S2)
        cp = f("cp")
        expected = Join(
            SubSelect(
                (v("child"),),
                FilterNode(
                    bgp((v("child"), ex("parent"), cp)),
                    Compare("=", Var(cp), Const(ex("b"))),
                ),
            ),
            unit_values(),
        )
        assert alpha_nodes(got, expected)

    def test_partial_mapping_joins_values_on_shared_domain(self, fig2):
        # Binding ?z :r ?v with a mapping over ?x ?y ?z keeps only the
        # ?z column in the VALUES encoding.
        p = bgp((v("z"), ex("r"), v("v")))
        mu = sol(x=":a", y=":b", z=":c")
        for sem in Semantics:
            got = evaluate(fig2, bind(p, mu, sem), sem)
            expected = join(
                evaluate(fig2, p, sem),
                frozenset({SolutionMapping.of({v("z"): ex("c")})}),
            )
            assert got == expected

    def test_empty_mapping_identity_on_fixtures(self):
        for n in range(1, 11):
            fx = fixture(n)
            ds = dataset(fx.dataset_id)
            q = parse_query(fx.query)
            for sem in Semantics:
                assert evaluate(ds, bind(q, EMPTY_MAPPING, sem), sem) == evaluate(
                    ds, q, sem
                )

    def test_s1_expression_bind_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            bind(Bound(v("x")), EMPTY_MAPPING, Semantics.S1)

    def test_grammar_preservation_on_fixtures(self):
        mappings = [EMPTY_MAPPING, sol(parent=":a"), sol(x=":h", y=":i")]
        for n in range(1, 11):
            q = parse_query(fixture(n).query)
            for sem in Semantics:
                for mu in mappings:
                    bound = bind(q, mu, sem)
                    assert parse_pattern(serialize(bound)) == bound

    def test_blank_node_values_stay_out_of_bgp_positions(self):
        from exists_lab import blank

        inner = parse_query(fixture(3).query).pattern.condition.pattern
        mu = SolutionMapping.of({v("parent"): blank("node")})
        for sem in Semantics:
            bound = bind(inner, mu, sem)
            assert not any(t.is_blank for t in bgp_position_terms(bound))

    def test_semantics_agree_on_patterns_without_hidden_variables(self):
        # Without filters, binds, or variable-hiding sub-selects, the
        # three semantics bind to evaluation-identical patterns.
        import random

        from exists_lab import Optional, Union

        from gen import random_bgp, random_graph, random_mapping

        rng = random.Random(60602)
        for _ in range(40):
            p = random_bgp(rng)
            for _ in range(rng.randint(0, 2)):
                p = rng.choice((Join, Union, Optional))(p, random_bgp(rng))
            ds = random_graph(rng)
            mu = random_mapping(rng)
            results = {
                sem: evaluate(ds, bind(p, mu, sem), sem) for sem in Semantics
            }
            assert results[Semantics.S1] == results[Semantics.S2]
            assert results[Semantics.S2] == results[Semantics.S3]


class TestPrepare:
    def test_bind_is_prepare_then_apply_solution(self):
        mappings = [EMPTY_MAPPING, sol(parent=":a"), sol(x=":h", y=":i")]
        for n in range(1, 11):
            q = parse_query(fixture(n).query)
            for sem in Semantics:
                prepared = prepare(q, sem)
                for mu in mappings:
                    assert apply_solution(prepared, mu) == bind(q, mu, sem)

    def test_relevant_is_g_range_and_domain(self):
        q = parse_query(fixture(2).query)
        for sem in Semantics:
            prepared = prepare(q, sem)
            assert prepared.domain == in_domain(q)
            assert prepared.relevant == frozenset(prepared.normalization.g.values()) | in_domain(q)
        condition = prepare(Bound(v("x")), Semantics.S2)
        assert condition.domain == frozenset()
        assert condition.relevant == {v("x")}

    def test_s1_expression_prepare_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            prepare(Bound(v("x")), Semantics.S1)

    def test_bind_reads_the_mapping_only_on_relevant_variables(self):
        # The invariant the evaluator's EXISTS memo rests on:
        # bind(P, mu) == bind(P, mu|relevant) for every P, mu, semantics.
        import random

        from gen import random_expression, random_mapping, random_pattern, random_wide_pattern

        rng = random.Random(20150302)
        narrowed = 0
        for i in range(300):
            node = (random_pattern, random_wide_pattern, random_expression)[i % 3](rng)
            mu = random_mapping(rng, max_vars=6)
            for sem in Semantics:
                if sem is Semantics.S1 and i % 3 == 2:
                    continue
                relevant = prepare(node, sem).relevant
                restricted = mu.restricted(relevant)
                narrowed += restricted != mu
                assert bind(node, mu, sem) == bind(node, restricted, sem)
        # Enough cases drop a variable that the check is not vacuous.
        assert narrowed >= 400
