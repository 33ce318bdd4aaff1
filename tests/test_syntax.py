"""The generic child map: `map_children`, `children` and `ordered_vars`,
and the walkers built on them."""

from __future__ import annotations

import pytest

from exists_lab import (
    BGP,
    Add,
    And,
    BindNode,
    Bound,
    Compare,
    Const,
    Exists,
    Expression,
    FilterNode,
    GraphNode,
    GraphPattern,
    Join,
    Minus,
    Normalization,
    Not,
    NotExists,
    Optional,
    Or,
    Semantics,
    ServiceNode,
    SubSelect,
    Term,
    TriplePattern,
    Union,
    ValuesNode,
    Var,
    Variable,
    integer,
    iri,
    normalization_violations,
    parse_query,
    rename,
    vars_in,
)
from exists_lab.syntax import children, map_children, ordered_vars


def ex(name: str):
    return iri(f"urn:ex:{name}")


def v(name: str) -> Variable:
    return Variable(name)


def tp(s, p, o) -> TriplePattern:
    return TriplePattern(s, p, o)


BODY = BGP((tp(v("s"), ex("p"), v("o")), tp(ex("a"), v("q"), integer(1))))
COND = Compare("=", Var(v("c")), Const(ex("a")))

# One instance of every concrete node class, each with a variable in
# every field that can hold one.
SAMPLES = {
    TriplePattern: tp(v("s"), v("p"), v("o")),
    BGP: BODY,
    Join: Join(BODY, BGP((tp(v("j"), ex("p"), v("k")),))),
    Union: Union(BODY, BGP((tp(v("u"), ex("p"), v("w")),))),
    Optional: Optional(BODY, BGP((tp(v("s"), ex("q"), v("r")),))),
    Minus: Minus(BODY, BGP((tp(v("s"), ex("q"), v("m")),))),
    GraphNode: GraphNode(v("g"), BODY),
    ServiceNode: ServiceNode(ex("svc"), BODY),
    FilterNode: FilterNode(BODY, COND),
    BindNode: BindNode(BODY, Add(Var(v("o")), Const(integer(1))), v("t")),
    ValuesNode: ValuesNode((v("x"), v("y")), ((ex("a"), None), (None, integer(2)))),
    SubSelect: SubSelect((v("s"), v("o")), BODY),
    Const: Const(ex("a")),
    Var: Var(v("x")),
    Compare: COND,
    And: And(Bound(v("x")), COND),
    Or: Or(COND, Not(Bound(v("y")))),
    Not: Not(Bound(v("x"))),
    Add: Add(Var(v("x")), Const(integer(2))),
    Bound: Bound(v("x")),
    Exists: Exists(FilterNode(BODY, Bound(v("e")))),
    NotExists: NotExists(BODY),
}


def _concrete(base: type) -> set[type]:
    out = set()
    for cls in base.__subclasses__():
        out.add(cls)
        out |= _concrete(cls)
    return out


def test_every_node_class_has_a_sample():
    assert set(SAMPLES) == _concrete(GraphPattern) | _concrete(Expression) | {TriplePattern}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_identity_map_returns_the_node_itself(cls):
    node = SAMPLES[cls]
    assert map_children(node, lambda x: x) is node


def test_terms_and_variables_are_returned_as_they_are():
    term, var = ex("a"), v("x")
    assert map_children(term, lambda x: pytest.fail("no children")) is term
    assert map_children(var, lambda x: pytest.fail("no children")) is var


def test_only_nodes_and_variables_reach_f():
    seen = []

    def f(x):
        seen.append(x)
        return x

    for node in (
        tp(ex("a"), ex("p"), integer(1)),
        GraphNode(ex("g"), BODY),
        ServiceNode(ex("svc"), BODY),
        SAMPLES[ValuesNode],
        Const(ex("a")),
        Compare("<", Const(integer(1)), Const(integer(2))),
    ):
        map_children(node, f)
    assert seen == [
        BODY,
        BODY,
        v("x"),
        v("y"),
        Const(integer(1)),
        Const(integer(2)),
    ]
    assert not any(isinstance(x, (Term, str, tuple)) for x in seen)


def test_map_applies_f_in_field_order_and_rebuilds():
    node = BindNode(BODY, Var(v("o")), v("t"))
    calls = []

    def f(x):
        calls.append(x)
        return v("t2") if x == v("t") else x

    got = map_children(node, f)
    assert calls == [BODY, Var(v("o")), v("t")]
    assert got == BindNode(BODY, Var(v("o")), v("t2"))
    assert got.pattern is BODY


def test_tuple_fields_keep_unchanged_items():
    got = map_children(BODY, lambda t: tp(v("z"), t.p, t.o) if t.s == v("s") else t)
    assert got.triples[0] == tp(v("z"), ex("p"), v("o"))
    assert got.triples[1] is BODY.triples[1]


def test_rebuild_runs_the_constructor_checks():
    node = SubSelect((v("a"), v("b")), BGP((tp(v("a"), ex("p"), v("b")),)))
    with pytest.raises(ValueError, match="duplicate variable in projection"):
        map_children(node, lambda x: v("a") if x == v("b") else x)
    with pytest.raises(ValueError, match="duplicate variable in projection"):
        rename({v("b"): v("a")}, node)


def test_children_leaves_out_variables_and_terms():
    assert children(SAMPLES[GraphNode]) == (BODY,)
    assert children(SAMPLES[BindNode]) == (BODY, SAMPLES[BindNode].expression)
    assert children(BODY) == BODY.triples
    assert children(SAMPLES[ValuesNode]) == ()
    assert children(Const(ex("a"))) == ()


def test_ordered_vars_follows_field_order():
    inner = Join(
        BGP((tp(v("a"), ex("p"), v("b")),)),
        ValuesNode((v("c"), v("a")), ((ex("x"), ex("y")),)),
    )
    node = SubSelect(
        (v("p"), v("t")),
        GraphNode(v("g"), BindNode(inner, Var(v("e")), v("t"))),
    )
    assert ordered_vars(node) == [v("p"), v("t"), v("g"), v("a"), v("b"), v("c"), v("e")]
    assert vars_in(node) == frozenset(ordered_vars(node))


def test_ordered_vars_keeps_the_first_occurrence():
    fresh_x = Variable("x", "fresh")
    node = Join(BGP((tp(v("x"), ex("p"), fresh_x),)), BGP((tp(fresh_x, ex("p"), v("y")),)))
    got = ordered_vars(node)
    assert got == [v("x"), v("y")]
    assert got[0].origin == "user"


def test_violations_name_the_first_non_fresh_variable_in_field_order():
    p = parse_query("SELECT * WHERE { ?a :p ?b . ?c :q ?d }").pattern
    problems = normalization_violations(Normalization(p), p, Semantics.S2)
    assert problems[0] == "non-fresh variable ?a in normalized node"


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_total_renaming_leaves_no_variable_of_its_domain(cls):
    node = SAMPLES[cls]
    domain = vars_in(node)
    renaming = {x: Variable(f"r_{x.name}") for x in domain}
    got = rename(renaming, node)
    assert not vars_in(got) & domain
    assert vars_in(got) == frozenset(renaming.values())
