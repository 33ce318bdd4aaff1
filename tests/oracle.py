"""A naive evaluator of the three semantics, independent of `Evaluator`.

It reads the definitions literally and nothing else. A pattern is
evaluated bottom-up to a frozenset of solution mappings over a plain
frozenset of triples: no lookup table, seed, laziness, memo or
environment. A BGP is matched by scanning the whole graph once per
triple pattern and partial match. `EXISTS { P }` under a solution `mu`
holds when `bind(P, mu, semantics)`, evaluated whole, has a solution.

From the package it takes only the AST and term types, `SolutionMapping`
and `bind` (which normalizes). Its join, left join, minus, union and
three-valued expressions are its own, written from the SPARQL 1.1
algebra as this fragment restricts it:

- only `xsd:boolean` literals have an effective boolean value; every
  other term, and an error, is an error there;
- `=` is term identity, except that integers compare by value and two
  literals of different datatypes are an error;
- `<`, `<=`, `>`, `>=` and `+` take integers only;
- `&&` is false when either side is false, `||` true when either side is
  true; otherwise an error on either side makes the result an error.
"""

from __future__ import annotations

import operator

from exists_lab import (
    BGP,
    Add,
    And,
    BindNode,
    Bound,
    Compare,
    Const,
    Exists,
    FilterNode,
    GraphNode,
    Join,
    Minus,
    Not,
    NotExists,
    Optional,
    Or,
    Semantics,
    ServiceNode,
    SolutionMapping,
    SubSelect,
    Union,
    UnsupportedFeatureError,
    ValuesNode,
    Var,
    Variable,
    bind,
    boolean,
    integer,
    iri,
)
from exists_lab.terms import XSD_BOOLEAN, XSD_INTEGER

ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compatible(m1: SolutionMapping, m2: SolutionMapping) -> bool:
    other = dict(m2.items())
    return all(other.get(k, v) == v for k, v in m1.items())


def merge(m1: SolutionMapping, m2: SolutionMapping) -> SolutionMapping:
    return SolutionMapping.of({**dict(m1.items()), **dict(m2.items())})


def join(o1: frozenset, o2: frozenset) -> frozenset:
    return frozenset(merge(a, b) for a in o1 for b in o2 if compatible(a, b))


def left_join(o1: frozenset, o2: frozenset, keep) -> frozenset:
    """Filter(keep, Join(o1, o2)) plus each row of `o1` that no row of
    `o2` joins with under `keep`."""
    out = set()
    for a in o1:
        mates = {m for m in join(frozenset({a}), o2) if keep(m)}
        out |= mates or {a}
    return frozenset(out)


def minus(o1: frozenset, o2: frozenset) -> frozenset:
    return frozenset(
        a for a in o1 if not any(compatible(a, b) and set(a) & set(b) for b in o2)
    )


def union(o1: frozenset, o2: frozenset) -> frozenset:
    return o1 | o2


def match(bgp: BGP, graph: frozenset) -> frozenset:
    """Every mapping of the BGP's variables under which each triple
    pattern is a triple of `graph`; blank nodes are existential."""
    partial = [{}]
    for tp in bgp.triples:
        partial = [
            row
            for before in partial
            for t in graph
            if (row := extend(before, tp.positions(), t.terms())) is not None
        ]
    return frozenset(
        SolutionMapping.of({k: v for k, v in row.items() if isinstance(k, Variable)})
        for row in partial
    )


def extend(row: dict, positions, terms) -> dict | None:
    row = dict(row)
    for pos, term in zip(positions, terms):
        if isinstance(pos, Variable) or pos.is_blank:
            if row.setdefault(pos, term) != term:
                return None
        elif pos != term:
            return None
    return row


def ebv(v):
    """True, False, or None for an error."""
    if v is None or v.datatype != XSD_BOOLEAN:
        return None
    return v.value == "true"


def equal(a, b):
    """`a = b`: True, False, or None for an error."""
    if a.datatype == b.datatype == XSD_INTEGER:
        return int(a.value) == int(b.value)
    if a == b:
        return True
    if a.is_literal and b.is_literal and a.datatype != b.datatype:
        return None
    return False


class Oracle:
    """The solution sets of patterns over one dataset under one semantics."""

    def __init__(self, dataset, semantics: Semantics, *, s3_subselect_links: bool = True):
        self.default = frozenset(dataset.default)
        self.named = {name: frozenset(g) for name, g in dataset.named.items()}
        self.semantics = semantics
        self.links = s3_subselect_links

    def solutions(self, pattern, graph=None) -> frozenset:
        return self.eval(pattern, self.default if graph is None else frozenset(graph))

    def eval(self, p, graph: frozenset) -> frozenset:
        if isinstance(p, BGP):
            return match(p, graph)
        if isinstance(p, (Join, Union, Minus)):
            op = {Join: join, Union: union, Minus: minus}[type(p)]
            return op(self.eval(p.left, graph), self.eval(p.right, graph))
        if isinstance(p, Optional):
            # An inline filter on the right is the left join's condition.
            right, condition = p.right, None
            if isinstance(right, FilterNode):
                right, condition = right.pattern, right.condition
            return left_join(
                self.eval(p.left, graph),
                self.eval(right, graph),
                lambda mu: condition is None or ebv(self.expr(condition, mu, graph)) is True,
            )
        if isinstance(p, FilterNode):
            inner = self.eval(p.pattern, graph)
            return frozenset(mu for mu in inner if ebv(self.expr(p.condition, mu, graph)))
        if isinstance(p, GraphNode):
            if not isinstance(p.name, Variable):
                named = self.named.get(p.name.value)
                return frozenset() if named is None else self.eval(p.pattern, named)
            out = frozenset()
            for name, named in self.named.items():
                label = frozenset({SolutionMapping.of({p.name: iri(name)})})
                out = union(out, join(self.eval(p.pattern, named), label))
            return out
        if isinstance(p, BindNode):
            out = set()
            for mu in self.eval(p.pattern, graph):
                v = self.expr(p.expression, mu, graph)
                out.add(mu if v is None else merge(mu, SolutionMapping.of({p.var: v})))
            return frozenset(out)
        if isinstance(p, ValuesNode):
            return frozenset(
                SolutionMapping.of({v: c for v, c in zip(p.variables, row) if c is not None})
                for row in p.rows
            )
        if isinstance(p, SubSelect):
            inner = self.eval(p.pattern, graph)
            if p.projection is None:
                return inner
            keep = set(p.projection)
            return frozenset(
                SolutionMapping.of({k: v for k, v in mu.items() if k in keep}) for mu in inner
            )
        if isinstance(p, ServiceNode):
            raise UnsupportedFeatureError("SERVICE evaluation unsupported")
        raise TypeError(f"not a graph pattern: {p!r}")

    def expr(self, e, mu: SolutionMapping, graph: frozenset):
        """The value of `e` under `mu`: a term, or None for an error."""
        if isinstance(e, Const):
            return e.term
        if isinstance(e, Var):
            return mu.get(e.var)
        if isinstance(e, Bound):
            return boolean(e.var in mu)
        if isinstance(e, (Exists, NotExists)):
            bound = bind(e.pattern, mu, self.semantics, s3_subselect_links=self.links)
            return boolean(bool(self.eval(bound, graph)) == isinstance(e, Exists))
        if isinstance(e, Not):
            b = ebv(self.expr(e.inner, mu, graph))
            return None if b is None else boolean(not b)
        if isinstance(e, (And, Or)):
            decisive = isinstance(e, Or)
            sides = [ebv(self.expr(side, mu, graph)) for side in (e.left, e.right)]
            if decisive in sides:
                return boolean(decisive)
            return None if None in sides else boolean(not decisive)
        a, b = self.expr(e.left, mu, graph), self.expr(e.right, mu, graph)
        if a is None or b is None:
            return None
        if isinstance(e, Compare) and e.op in ("=", "!="):
            eq = equal(a, b)
            return None if eq is None else boolean(eq == (e.op == "="))
        if a.datatype != XSD_INTEGER or b.datatype != XSD_INTEGER:
            return None
        if isinstance(e, Add):
            return integer(int(a.value) + int(b.value))
        if isinstance(e, Compare):
            return boolean(ORDER[e.op](int(a.value), int(b.value)))
        raise TypeError(f"not an expression: {e!r}")
