"""Normalization under S1, S2, and S3: the rewrite rules, the renaming
helpers, and the well-formedness invariants."""

from __future__ import annotations

import random

import pytest

from exists_lab import (
    BGP,
    And,
    Bound,
    Compare,
    Const,
    Exists,
    FilterNode,
    Join,
    Minus,
    Normalization,
    Not,
    Optional,
    Or,
    Semantics,
    SolutionMapping,
    SubSelect,
    TriplePattern,
    Union,
    UnsupportedFeatureError,
    Var,
    Variable,
    alpha_equivalent,
    cr,
    eval_expr,
    filter_link,
    fixture,
    integer,
    iri,
    normalization_violations,
    normalize,
    parse_query,
    rename,
    vars_in,
)
from exists_lab.syntax import FRESH

from gen import random_bgp, random_wide_pattern


def ex(name: str):
    return iri(f"urn:ex:{name}")


def v(name: str) -> Variable:
    return Variable(name)


def f(name: str) -> Variable:
    """A stand-in fresh variable for hand-built expected normalizations."""
    return Variable(name, FRESH)


def bgp(*spec) -> BGP:
    return BGP(tuple(TriplePattern(*t) for t in spec))


def link(x: Variable, y: Variable):
    return filter_link(x, y)


def alpha_nodes(a, b) -> bool:
    return alpha_equivalent(Normalization(a), Normalization(b))


class TestCr:
    def test_shared_original(self):
        out = cr({f("x1"): v("x")}, {f("y2"): v("x")})
        assert out == {f("y2"): f("x1")}

    def test_empty_second_argument(self):
        assert cr({f("x1"): v("x")}, {}) == {}

    def test_disjoint_ranges(self):
        assert cr({f("x1"): v("x")}, {f("y1"): v("y")}) == {}

    def test_lemma_key_renaming_recovers_f(self):
        # Renaming the keys of g by cr(f, g) turns g into f on the
        # shared originals.
        f_map = {f("x1"): v("x"), f("z1"): v("z")}
        g_map = {f("y1"): v("x"), f("y2"): v("w")}
        renamed = rename(cr(f_map, g_map), g_map)
        assert renamed == {f("x1"): v("x"), f("y2"): v("w")}

    def test_requires_injective_first_argument(self):
        with pytest.raises(ValueError):
            cr({f("a"): v("x"), f("b"): v("x")}, {})


class TestFilterLink:
    def test_structure(self):
        p1, y1 = v("p1"), v("y1")
        assert filter_link(p1, y1) == Or(
            Not(And(Bound(p1), Bound(y1))), Compare("=", Var(p1), Var(y1))
        )

    def test_reflexive_case_is_true_when_bound(self, fig1):
        x = v("x")
        val = eval_expr(fig1, filter_link(x, x), SolutionMapping.of({x: ex("a")}), Semantics.S2)
        assert val.is_true

    def test_truth_table_over_bound_unbound_cases(self, fig1):
        # Hand oracle: the link constrains only when both sides are bound.
        x, y = v("x"), v("y")
        expr = filter_link(x, y)
        cases = [
            (SolutionMapping.of({}), True),
            (SolutionMapping.of({x: ex("a")}), True),
            (SolutionMapping.of({y: ex("a")}), True),
            (SolutionMapping.of({x: ex("a"), y: ex("a")}), True),
            (SolutionMapping.of({x: ex("a"), y: ex("b")}), False),
        ]
        for mu, expected in cases:
            val = eval_expr(fig1, expr, mu, Semantics.S2)
            assert (not val.is_error and val.is_true) == expected, mu


class TestRename:
    def test_single_substitution_in_expression(self):
        got = rename({f("y2"): f("x1")}, Compare("=", Var(f("y2")), Const(ex("c"))))
        assert got == Compare("=", Var(f("x1")), Const(ex("c")))

    def test_empty_renaming_is_identity(self, queries):
        for q in queries.values():
            assert rename({}, q) == q

    def test_renaming_a_renaming_renames_keys(self):
        assert rename({v("y"): v("x")}, {v("y"): v("p")}) == {v("x"): v("p")}


class TestNormS1:
    def test_bgp(self):
        got = normalize(bgp((v("child"), ex("parent"), v("parent"))), Semantics.S1)
        expected = Normalization(
            bgp((f("c1"), ex("parent"), f("p1"))),
            {f("c1"): v("child"), f("p1"): v("parent")},
            {},
        )
        assert alpha_equivalent(got, expected)

    def test_subselect_hides_unprojected_variable(self):
        inner = parse_query(fixture(2).query).pattern.condition.pattern
        got = normalize(inner, Semantics.S1)
        assert set(got.d.values()) == {v("child")}
        assert got.g == {}
        # ?parent was renamed to an unrecorded fresh variable
        pattern_vars = vars_in(got.node)
        assert len(pattern_vars) == 2
        assert all(var.origin == FRESH for var in pattern_vars)

    def test_empty_bgp(self):
        got = normalize(BGP(), Semantics.S1)
        assert got == Normalization(BGP(), {}, {})


class TestNormS2:
    def test_worked_join_filter_example(self):
        # {:a :p ?x} . {:b :q ?y FILTER (?y < ?x)}
        p = Join(
            bgp((ex("a"), ex("p"), v("x"))),
            FilterNode(bgp((ex("b"), ex("q"), v("y"))), Compare("<", Var(v("y")), Var(v("x")))),
        )
        got = normalize(p, Semantics.S2)
        expected = Normalization(
            Join(
                bgp((ex("a"), ex("p"), f("x1"))),
                FilterNode(
                    bgp((ex("b"), ex("q"), f("y1"))),
                    Compare("<", Var(f("y1")), Var(f("x2"))),
                ),
            ),
            {f("x1"): v("x"), f("y1"): v("y")},
            {f("x2"): v("x")},
        )
        assert alpha_equivalent(got, expected)

    def test_correlated_filter_subselect(self):
        # Inner sub-select of the ?chparent = ?parent query: the filter is
        # rewritten onto the pattern variable, ?parent stays substitutable,
        # ?chparent becomes local.
        inner = parse_query(fixture(3).query).pattern.condition.pattern
        got = normalize(inner, Semantics.S2)
        expected = Normalization(
            SubSelect(
                (f("c"),),
                FilterNode(
                    bgp((f("c"), ex("parent"), f("cp"))),
                    Compare("=", Var(f("cp")), Var(f("y"))),
                ),
            ),
            {f("c"): v("child")},
            {f("y"): v("parent")},
        )
        assert alpha_equivalent(got, expected)

    def test_exists_expression_wraps_pattern_with_links(self):
        got = normalize(Exists(bgp((v("child"), ex("parent"), v("parent")))), Semantics.S2)
        c, p, y1, y2 = f("c"), f("p"), f("y1"), f("y2")
        expected = Normalization(
            Exists(
                FilterNode(
                    FilterNode(bgp((c, ex("parent"), p)), link(c, y1)),
                    link(p, y2),
                )
            ),
            {},
            {y1: v("child"), y2: v("parent")},
        )
        assert alpha_equivalent(got, expected)

    def test_expression_normalization_has_empty_d(self):
        got = normalize(Compare("=", Var(v("a")), Const(integer(1))), Semantics.S2)
        assert got.d == {}
        assert set(got.g.values()) == {v("a")}


class TestNormS3:
    def test_subselect_links_hidden_domain_variable(self):
        inner = parse_query(fixture(2).query).pattern.condition.pattern
        got = normalize(inner, Semantics.S3)
        c, p, y = f("c"), f("p"), f("y")
        expected = Normalization(
            SubSelect(
                (c,),
                FilterNode(bgp((c, ex("parent"), p)), link(p, y)),
            ),
            {c: v("child")},
            {y: v("parent")},
        )
        assert alpha_equivalent(got, expected)

    def test_matches_s2_without_subselect_or_minus(self):
        cases = [
            bgp((v("x"), ex("p"), v("y"))),
            FilterNode(bgp((v("x"), ex("p"), v("y"))), Compare("<", Var(v("y")), Const(integer(2)))),
            Optional(bgp((v("x"), ex("p"), v("y"))), bgp((v("y"), ex("q"), v("z")))),
        ]
        for p in cases:
            assert alpha_equivalent(normalize(p, Semantics.S2), normalize(p, Semantics.S3))

    def test_minus_right_side_gains_one_link(self):
        p = Minus(bgp((v("a"), ex("p"), v("b"))), bgp((v("b"), ex("q"), v("v"))))
        got = normalize(p, Semantics.S3)
        a, b, w, y = f("a"), f("b"), f("w"), f("y")
        expected = Normalization(
            Minus(
                bgp((a, ex("p"), b)),
                FilterNode(bgp((b, ex("q"), w)), link(w, y)),
            ),
            {a: v("a"), b: v("b")},
            {y: v("v")},
        )
        assert alpha_equivalent(got, expected)

    def test_subselect_links_can_be_disabled(self):
        inner = parse_query(fixture(2).query).pattern.condition.pattern
        downgraded = normalize(inner, Semantics.S3, s3_subselect_links=False)
        assert alpha_equivalent(downgraded, normalize(inner, Semantics.S2))


class TestNormalizeDispatch:
    def test_s1_expression_is_rejected(self):
        with pytest.raises(UnsupportedFeatureError, match="S1 expression"):
            normalize(Compare("=", Var(v("x")), Const(integer(1))), Semantics.S1)

    def test_fresh_start_offsets_names(self):
        n = normalize(bgp((v("x"), ex("p"), v("y"))), Semantics.S2, fresh_start=5)
        names = sorted(var.name for var in vars_in(n.node))
        assert names == ["__f5", "__f6"]

    def test_reserved_looking_user_names_are_not_captured(self):
        q = parse_query("SELECT ?__f0 WHERE { ?__f0 :p ?y }")
        n = normalize(q, Semantics.S2)
        assert Variable("__f0") not in vars_in(n.node)
        assert v("__f0") in set(n.d.values())


class TestInvariants:
    def test_wellformed_on_fixtures(self, queries):
        for q in queries.values():
            for sem in Semantics:
                n = normalize(q, sem)
                assert normalization_violations(n, q, sem) == []

    def test_wellformed_on_random_patterns(self):
        rng = random.Random(90125)
        for _ in range(60):
            p = random_wide_pattern(rng, 3)
            for sem in Semantics:
                n = normalize(p, sem)
                assert normalization_violations(n, p, sem) == [], (sem, p)

    def test_d_injective_on_fixtures(self, queries):
        for q in queries.values():
            for sem in Semantics:
                n = normalize(q, sem)
                assert len(set(n.d.values())) == len(n.d)

    def test_three_semantics_agree_on_nonhiding_patterns(self):
        # Without filters, binds, or hidden sub-select/MINUS variables,
        # the three normalizations coincide up to fresh names with g = {}.
        rng = random.Random(8080)
        for _ in range(60):
            parts = [random_bgp(rng) for _ in range(3)]
            p = parts[0]
            for part in parts[1:]:
                ctor = rng.choice((Join, Union, Optional))
                p = ctor(p, part)
            n1, n2, n3 = (normalize(p, sem) for sem in (Semantics.S1, Semantics.S2, Semantics.S3))
            assert n2.g == {} and n3.g == {}
            assert alpha_equivalent(n1, n2)
            assert alpha_equivalent(n2, n3)

    def test_determinism(self, queries):
        for q in queries.values():
            for sem in Semantics:
                assert normalize(q, sem) == normalize(q, sem)


class TestAlphaEquivalence:
    def test_detects_structural_difference(self):
        a = normalize(bgp((v("x"), ex("p"), v("y"))), Semantics.S2)
        b = normalize(bgp((v("x"), ex("q"), v("y"))), Semantics.S2)
        assert not alpha_equivalent(a, b)

    def test_detects_map_difference(self):
        p = bgp((v("x"), ex("p"), v("y")))
        n = normalize(p, Semantics.S2)
        twisted = Normalization(n.node, {k: v("zzz") for k in n.d}, dict(n.g))
        assert not alpha_equivalent(n, twisted)

    def test_requires_consistent_bijection(self):
        one = bgp((f("a"), ex("p"), f("a")))
        two = bgp((f("a"), ex("p"), f("b")))
        assert not alpha_nodes(one, two)
        assert not alpha_nodes(two, one)
