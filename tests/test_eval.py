"""Algebra operations, BGP matching, three-valued expressions, and
pattern evaluation."""

from __future__ import annotations

import pytest

from exists_lab import (
    BGP,
    And,
    BindNode,
    Bound,
    Compare,
    Const,
    EMPTY_MAPPING,
    Exists,
    FilterNode,
    GraphNode,
    Minus,
    Not,
    NotExists,
    Or,
    Semantics,
    ServiceNode,
    SolutionMapping,
    TriplePattern,
    Union,
    UnsupportedFeatureError,
    ValuesNode,
    Var,
    Variable,
    blank,
    boolean,
    compatible,
    eval_expr,
    evaluate,
    fixture,
    integer,
    iri,
    join,
    left_join,
    match_bgp,
    minus,
    parse_data,
    parse_query,
    results_document,
    results_tsv,
    sol,
    string,
    union,
)
from exists_lab.algebra import iter_bgp


def ex(name: str):
    return iri(f"urn:ex:{name}")


def v(name: str) -> Variable:
    return Variable(name)


def bgp(*spec) -> BGP:
    return BGP(tuple(TriplePattern(*t) for t in spec))


MU_CD = sol(z=":c", v=":d")


class TestCompatible:
    def test_empty_is_compatible_with_anything(self):
        assert compatible(EMPTY_MAPPING, MU_CD)

    def test_agreeing_shared_key(self):
        assert compatible(sol(z=":c"), MU_CD)

    def test_disagreeing_shared_key(self):
        assert not compatible(sol(z=":g"), MU_CD)


class TestAlgebraOps:
    def test_join_unit(self):
        omega = frozenset({sol(x=":a"), sol(x=":b")})
        assert join(omega, frozenset({EMPTY_MAPPING})) == omega

    def test_join_merges_compatible_pairs(self):
        left = frozenset({sol(x=":a"), sol(x=":b")})
        right = frozenset({sol(x=":a", y=":c")})
        assert join(left, right) == frozenset({sol(x=":a", y=":c")})

    def test_left_join_keeps_unmatched_rows(self):
        left = frozenset({sol(x=":a"), sol(x=":b")})
        right = frozenset({sol(x=":a", y=":c")})
        assert left_join(left, right) == frozenset({sol(x=":a", y=":c"), sol(x=":b")})

    def test_left_join_condition_is_checked_on_merged_rows(self):
        left = frozenset({sol(x=":a"), sol(x=":b")})
        right = frozenset({sol(x=":a", y=":c"), sol(x=":b", y=":d")})
        got = left_join(left, right, condition=lambda mu: mu.get(v("y")) == ex("c"))
        assert got == frozenset({sol(x=":a", y=":c"), sol(x=":b")})

    def test_union_is_set_union(self):
        assert union(frozenset({sol(x=":a")}), frozenset({sol(x=":a"), sol(y=":b")})) == frozenset(
            {sol(x=":a"), sol(y=":b")}
        )

    def test_minus_of_empty_right(self):
        omega = frozenset({sol(x=":a")})
        assert minus(omega, frozenset()) == omega

    def test_minus_removes_compatible_sharing_rows(self):
        left = frozenset({sol(x=":a", y=":b"), sol(x=":c")})
        right = frozenset({sol(x=":a")})
        assert minus(left, right) == frozenset({sol(x=":c")})

    def test_minus_disjoint_domain_escape(self):
        left = frozenset({sol(x=":a")})
        right = frozenset({sol(y=":b")})
        assert minus(left, right) == left


class TestMatchBgp:
    def test_parent_pattern_over_fig1(self, fig1):
        got = match_bgp(fig1.default, bgp((v("child"), ex("parent"), v("parent"))))
        assert got == frozenset(
            {
                sol(child=":a", parent=":b"),
                sol(child=":b", parent=":c"),
                sol(child=":c", parent=":d"),
            }
        )

    def test_empty_bgp_yields_the_empty_mapping(self, fig1):
        assert match_bgp(fig1.default, BGP()) == frozenset({EMPTY_MAPPING})

    def test_shared_variable_within_bgp(self, fig1):
        got = match_bgp(
            fig1.default,
            bgp((v("x"), ex("parent"), v("y")), (v("x"), ex("country"), ex("j"))),
        )
        assert got == frozenset({sol(x=":a", y=":b"), sol(x=":b", y=":c")})

    def test_blank_nodes_act_as_scoped_existentials(self):
        ds = parse_data(":a :p :b .\n:c :p :b .")
        got = match_bgp(ds.default, bgp((blank("s"), ex("p"), v("y"))))
        assert got == frozenset({sol(y=":b")})

    def test_repeated_blank_label_is_one_existential(self):
        ds = parse_data(":a :p :b .\n:a :q :c .\n:x :p :b .\n:y :q :c .")
        got = match_bgp(
            ds.default, bgp((blank("s"), ex("p"), v("u")), (blank("s"), ex("q"), v("w")))
        )
        # the shared label must denote one node per match
        assert got == frozenset({sol(u=":b", w=":c")})

    def test_iter_bgp_stops_scanning_at_the_first_match(self):
        class CountingGraph(list):
            scanned = 0

            def __iter__(self):
                for t in super().__iter__():
                    self.scanned += 1
                    yield t

        graph = CountingGraph(parse_data(
            "\n".join(f":x{i} :p :y{i} ." for i in range(100))
        ).default)
        pattern = bgp((v("s"), ex("p"), v("o")))
        first = next(iter_bgp(graph, pattern))
        assert graph.scanned == 1
        assert first in match_bgp(graph, pattern)


class TestLazyExists:
    """EXISTS reads its correlated pattern only up to the first row."""

    @pytest.mark.parametrize("sem", list(Semantics))
    @pytest.mark.parametrize(
        "right",
        [
            "SERVICE <urn:s> { ?y :p ?z }",
            "?y :p ?z FILTER EXISTS { SERVICE <urn:s> { ?y :p ?z } }",
        ],
    )
    def test_service_in_a_branch_the_stream_never_reaches_still_raises(self, sem, right):
        ds = parse_data(":a :p :b .")
        q = parse_query(
            f"SELECT * WHERE {{ ?x :p ?w FILTER EXISTS {{ {{ ?y :p ?z }} UNION {{ {right} }} }} }}"
        )
        with pytest.raises(UnsupportedFeatureError, match="SERVICE"):
            evaluate(ds, q, sem)

    @pytest.mark.parametrize("sem", list(Semantics))
    @pytest.mark.parametrize(
        "where",
        [
            # The right side is empty, so the left side, and the
            # SERVICE in it, is never read.
            "SERVICE <urn:s> { ?x :p ?y } ?x :nomatch ?z",
            # The single right row seeds the left side, so no row of it
            # reaches the EXISTS.
            "{ ?x :p ?y FILTER EXISTS { SERVICE <urn:s> { } } } VALUES (?x) { (:zzz) }",
            # The `?x = :zzz` conjunct seeds the match, so no row reaches
            # the EXISTS, which `&&` evaluates on every row.
            "?x :p ?y FILTER (?x = :zzz && EXISTS { SERVICE <urn:s> { } })",
        ],
    )
    def test_service_skipped_by_a_stream_still_raises(self, sem, where):
        ds = parse_data(":a :p :b .")
        with pytest.raises(UnsupportedFeatureError, match="SERVICE"):
            evaluate(ds, parse_query(f"SELECT * WHERE {{ {where} }}"), sem)

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_service_in_an_exists_body_raises_from_eval_expr(self, sem):
        ds = parse_data(":a :p :b .")
        body = bgp((v("x"), ex("p"), v("y")))
        e = Exists(Union(body, ServiceNode(ex("s"), body)))
        with pytest.raises(UnsupportedFeatureError, match="SERVICE"):
            eval_expr(ds, e, EMPTY_MAPPING, sem)

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_a_query_holding_service_raises_at_its_first_exists_body(self, sem):
        # Read whole, the OPTIONAL's right side has no row, so its
        # condition, and the SERVICE in it, is never evaluated. The
        # stream raises anyway: it reads each body only up to its first
        # row, so a query that holds SERVICE raises wherever it prepares
        # an EXISTS body.
        ds = parse_data(":a :p :b .")
        q = parse_query(
            "SELECT * WHERE { ?x :p ?y FILTER EXISTS { ?x :p ?y"
            " OPTIONAL { ?y :q ?w FILTER EXISTS { SERVICE <urn:s> {} } } } }"
        )
        with pytest.raises(UnsupportedFeatureError, match="SERVICE"):
            evaluate(ds, q, sem)

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_a_ground_body_yields_the_empty_mapping_which_counts(self, sem):
        ds = parse_data(":a :p :b .")
        q = parse_query("SELECT * WHERE { ?x :p ?y FILTER EXISTS { :a :p :b } }")
        assert evaluate(ds, q, sem) == frozenset({sol(x=":a", y=":b")})

    @pytest.mark.parametrize("sem", list(Semantics))
    def test_exists_over_a_long_bgp(self, sem):
        ds = parse_data(":a :p :a .")
        long_bgp = bgp(*((v(f"v{i}"), ex("p"), v(f"v{i + 1}")) for i in range(1500)))
        p = FilterNode(bgp((v("x"), ex("p"), v("y"))), Exists(long_bgp))
        assert evaluate(ds, p, sem) == frozenset({sol(x=":a", y=":a")})


class TestEvalExpr:
    def test_tautology_errors_when_unbound(self, fig1):
        e = Or(
            Compare("=", Var(v("parent")), Const(integer(1))),
            Compare("!=", Var(v("parent")), Const(integer(1))),
        )
        assert eval_expr(fig1, e, EMPTY_MAPPING, Semantics.S2).is_error

    def test_tautology_true_when_bound_to_iri(self, fig1):
        e = Or(
            Compare("=", Var(v("parent")), Const(integer(1))),
            Compare("!=", Var(v("parent")), Const(integer(1))),
        )
        got = eval_expr(fig1, e, sol(parent=":a"), Semantics.S2)
        assert got.is_true

    def test_bound_on_empty_mapping(self, fig1):
        got = eval_expr(fig1, Bound(v("x")), EMPTY_MAPPING, Semantics.S2)
        assert got.is_false

    def test_iri_vs_literal_compares_unequal_not_error(self, fig1):
        eq = eval_expr(
            fig1, Compare("=", Const(ex("a")), Const(integer(1))), EMPTY_MAPPING, Semantics.S2
        )
        ne = eval_expr(
            fig1, Compare("!=", Const(ex("a")), Const(integer(1))), EMPTY_MAPPING, Semantics.S2
        )
        assert eq.is_false and ne.is_true

    def test_incomparable_literals_error(self, fig1):
        got = eval_expr(
            fig1,
            Compare("=", Const(string("1")), Const(integer(1))),
            EMPTY_MAPPING,
            Semantics.S2,
        )
        assert got.is_error

    def test_numeric_comparison_and_addition(self, fig1):
        lt = eval_expr(
            fig1,
            Compare("<", Const(integer(1)), Const(integer(2))),
            EMPTY_MAPPING,
            Semantics.S2,
        )
        assert lt.is_true
        plus = eval_expr(
            fig1,
            Compare(
                ">=",
                add_expr(Const(integer(1)), Const(integer(2))),
                Const(integer(3)),
            ),
            EMPTY_MAPPING,
            Semantics.S2,
        )
        assert plus.is_true
        bad = eval_expr(
            fig1,
            Compare("<", Const(ex("a")), Const(integer(2))),
            EMPTY_MAPPING,
            Semantics.S2,
        )
        assert bad.is_error

    def test_three_valued_tables(self, fig1):
        err = Compare("=", Var(v("u")), Const(integer(1)))  # unbound -> error
        t = Const(boolean(True))
        f_ = Const(boolean(False))
        cases = [
            (And(f_, err), "false"),
            (And(err, f_), "false"),
            (And(t, err), "error"),
            (Or(t, err), "true"),
            (Or(err, t), "true"),
            (Or(f_, err), "error"),
            (Not(err), "error"),
            (Not(f_), "true"),
        ]
        for expr, expected in cases:
            got = eval_expr(fig1, expr, EMPTY_MAPPING, Semantics.S2)
            label = "error" if got.is_error else ("true" if got.is_true else "false")
            assert label == expected, expr

    def test_all_errors_compare_equal(self, fig1):
        a = eval_expr(fig1, Var(v("u")), EMPTY_MAPPING, Semantics.S2)
        b = eval_expr(
            fig1, Compare("<", Const(ex("a")), Const(integer(1))), EMPTY_MAPPING, Semantics.S2
        )
        assert a == b

    def test_exists_and_not_exists(self, fig1):
        pattern = bgp((v("child"), ex("parent"), v("parent")))
        yes = eval_expr(fig1, Exists(pattern), sol(parent=":b"), Semantics.S2)
        no = eval_expr(fig1, Exists(pattern), sol(parent=":a"), Semantics.S2)
        assert yes.is_true and no.is_false
        flipped = eval_expr(fig1, NotExists(pattern), sol(parent=":a"), Semantics.S2)
        assert flipped.is_true


def add_expr(a, b):
    from exists_lab import Add

    return Add(a, b)


class TestEvalPattern:
    def test_subselect_query_results_per_semantics(self, fig1):
        q = parse_query(fixture(2).query)
        assert evaluate(fig1, q, Semantics.S1) == frozenset(
            {sol(parent=":a"), sol(parent=":b")}
        )
        assert evaluate(fig1, q, Semantics.S3) == frozenset({sol(parent=":b")})

    def test_optional_chain_over_fig2(self, fig2):
        q = parse_query(fixture(10).query)
        expected = frozenset({sol(x=":a", y=":b", z=":c"), sol(x=":h", y=":i")})
        for sem in Semantics:
            assert evaluate(fig2, q, sem) == expected

    def test_filter_drops_on_error_and_false(self, fig1):
        p = FilterNode(
            bgp((v("x"), ex("country"), v("c"))),
            Compare("=", Var(v("missing")), Const(integer(1))),
        )
        assert evaluate(fig1, p, Semantics.S2) == frozenset()

    def test_filter_requires_boolean_ebv(self, fig1):
        p = FilterNode(bgp((v("x"), ex("country"), ex("j"))), Const(integer(1)))
        assert evaluate(fig1, p, Semantics.S2) == frozenset()

    def test_bind_extends_and_errors_leave_unbound(self, fig1):
        p = BindNode(
            bgp((v("x"), ex("country"), ex("j"))),
            Compare("=", Var(v("x")), Const(ex("a"))),
            v("is_a"),
        )
        got = evaluate(fig1, p, Semantics.S2)
        assert sol(x=":a", is_a="true") in got
        broken = BindNode(
            bgp((v("x"), ex("country"), ex("j"))), Var(v("missing")), v("out")
        )
        got = evaluate(fig1, broken, Semantics.S2)
        assert got == frozenset({sol(x=":a"), sol(x=":b")})

    def test_values_rows_with_undef(self, fig1):
        p = ValuesNode((v("x"), v("y")), ((ex("a"), None), (ex("b"), integer(2))))
        got = evaluate(fig1, p, Semantics.S2)
        assert got == frozenset({sol(x=":a"), sol(x=":b", y="2")})

    def test_optional_inline_filter_uses_left_join_conditions(self):
        ds = parse_data(":a :p 1 .\n:a :q 2 .\n:b :p 3 .\n:b :q 2 .")
        q = parse_query(
            "SELECT * WHERE { ?x :p ?v OPTIONAL { ?x :q ?w FILTER (?v < ?w) } }"
        )
        got = evaluate(ds, q, Semantics.S2)
        assert got == frozenset({sol(x=":a", v="1", w="2"), sol(x=":b", v="3")})

    def test_graph_by_iri_and_unknown_graph(self):
        ds = parse_data("GRAPH <urn:ex:g> { :a :p :b . }")
        found = evaluate(
            ds, GraphNode(ex("g"), bgp((v("x"), ex("p"), v("y")))), Semantics.S2
        )
        assert found == frozenset({sol(x=":a", y=":b")})
        missing = evaluate(
            ds, GraphNode(ex("nope"), bgp((v("x"), ex("p"), v("y")))), Semantics.S2
        )
        assert missing == frozenset()

    def test_graph_by_variable_unions_named_graphs(self):
        ds = parse_data(
            "GRAPH <urn:ex:g1> { :a :p :b . }\nGRAPH <urn:ex:g2> { :c :p :d . }"
        )
        got = evaluate(ds, GraphNode(v("g"), bgp((v("x"), ex("p"), v("y")))), Semantics.S2)
        assert got == frozenset(
            {
                sol(g=":g1", x=":a", y=":b"),
                sol(g=":g2", x=":c", y=":d"),
            }
        )

    def test_service_evaluation_is_unsupported(self, fig1):
        p = ServiceNode(ex("svc"), bgp((v("x"), ex("p"), v("y"))))
        with pytest.raises(UnsupportedFeatureError, match="SERVICE"):
            evaluate(fig1, p, Semantics.S2)

    def test_union_and_minus(self, fig1):
        p = Union(
            bgp((v("x"), ex("country"), ex("j"))),
            bgp((v("x"), ex("country"), ex("k"))),
        )
        assert evaluate(fig1, p, Semantics.S2) == frozenset(
            {sol(x=":a"), sol(x=":b"), sol(x=":c")}
        )
        m = Minus(p, bgp((v("x"), ex("parent"), ex("d"))))
        assert evaluate(fig1, m, Semantics.S2) == frozenset({sol(x=":a"), sol(x=":b")})

    def test_exists_free_patterns_agree_across_semantics(self, fig1):
        p = parse_query(
            "SELECT ?x WHERE { {?x :parent ?y} UNION {?x :country ?y} FILTER (bound(?y)) }"
        )
        results = {sem: evaluate(fig1, p, sem) for sem in Semantics}
        assert results[Semantics.S1] == results[Semantics.S2] == results[Semantics.S3]


class TestResults:
    def test_document_shape_and_order(self, fig1):
        q = parse_query(fixture(2).query)
        doc = results_document(evaluate(fig1, q, Semantics.S1), list(q.projection))
        assert doc["head"] == {"vars": ["parent"]}
        assert doc["results"]["bindings"] == [
            {"parent": {"type": "uri", "value": "urn:ex:a"}},
            {"parent": {"type": "uri", "value": "urn:ex:b"}},
        ]

    def test_term_json_variants(self):
        doc = results_document(
            frozenset({SolutionMapping.of({v("x"): integer(3)})}), [v("x")]
        )
        binding = doc["results"]["bindings"][0]["x"]
        assert binding == {
            "type": "literal",
            "value": "3",
            "datatype": "http://www.w3.org/2001/XMLSchema#integer",
        }
        doc = results_document(
            frozenset({SolutionMapping.of({v("x"): blank("n")})}), [v("x")]
        )
        assert doc["results"]["bindings"][0]["x"] == {"type": "bnode", "value": "n"}

    def test_tsv_output(self, fig1):
        q = parse_query(fixture(2).query)
        text = results_tsv(evaluate(fig1, q, Semantics.S1), list(q.projection))
        assert text == "?parent\n:a\n:b\n"

    def test_evaluation_is_deterministic(self, fig2):
        q = parse_query(fixture(10).query)
        first = results_document(evaluate(fig2, q, Semantics.S2))
        second = results_document(evaluate(fig2, q, Semantics.S2))
        assert first == second

    def test_unbound_variables_absent_from_bindings(self, fig2):
        q = parse_query(fixture(10).query)
        doc = results_document(evaluate(fig2, q, Semantics.S1))
        partial = [b for b in doc["results"]["bindings"] if "z" not in b]
        assert len(partial) == 1 and partial[0]["x"]["value"] == "urn:ex:h"
