"""Set-semantics evaluation with three-valued filter logic.

EXISTS is evaluated operationally: at filter time the nested pattern is
correlated with the current solution via `bind` under the selected
semantics, then checked for non-emptiness against the active graph.
Expression errors are values, never exceptions; a filter drops a
candidate solution on both false and error.

`bind` stays the definition, but an `Evaluator` runs its two steps
separately: each nested pattern is prepared (star-expanded and
normalized) once per evaluator, and each EXISTS outcome is memoized on
the pattern, the solution restricted to `Prepared.relevant`, and the
active graph. `bind` reads nothing else of the solution, so the memo
returns exactly what per-row `bind` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    SolutionMapping,
    canonical_order,
    compatible,
    join,
    left_join,
    match_bgp,
    minus,
    union,
)
from .binding import Prepared, apply_solution, prepare
# Not called here any more; perfbench/spans.py still hooks the name
# `exists_lab.evaluate.bind`, which then records zero calls.
from .binding import bind  # noqa: F401
from .errors import UnsupportedFeatureError
from .normalize import Semantics
from .scope import expand_all_stars, in_domain
from .syntax import (
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
    Not,
    NotExists,
    Optional,
    Or,
    ServiceNode,
    SubSelect,
    Union,
    ValuesNode,
    Var,
    Variable,
)
from .terms import (
    XSD_BOOLEAN,
    XSD_INTEGER,
    Dataset,
    Term,
    Triple,
    boolean,
    integer,
    iri,
)

TRUE = boolean(True)
FALSE = boolean(False)


@dataclass(frozen=True)
class ExprValue:
    """An expression result: a term, or an error.

    All errors compare equal; the reason is informational only.
    """

    term: Term | None
    reason: str = field(default="", compare=False)

    @property
    def is_error(self) -> bool:
        return self.term is None

    @property
    def is_true(self) -> bool:
        return self.term == TRUE

    @property
    def is_false(self) -> bool:
        return self.term == FALSE


def value(term: Term) -> ExprValue:
    return ExprValue(term)


_TRUE_VALUE = value(TRUE)
_FALSE_VALUE = value(FALSE)


def _truth(b: bool) -> ExprValue:
    """The boolean expression value for `b`, without building a term."""
    return _TRUE_VALUE if b else _FALSE_VALUE


def error(reason: str) -> ExprValue:
    return ExprValue(None, reason)


def ebv(v: ExprValue) -> ExprValue:
    """Effective boolean value: booleans pass through, all else errors."""
    if v.is_error:
        return v
    if v.term.datatype == XSD_BOOLEAN:
        return v
    return error(f"no boolean value for {v.term.value!r}")


def _term_equal(a: Term, b: Term) -> bool | None:
    """RDFterm equality; None signals an error (incomparable literals)."""
    if a == b:
        return True
    if a.kind != b.kind:
        return False
    if not a.is_literal:
        return False
    if a.datatype == b.datatype:
        if a.datatype == XSD_INTEGER:
            return a.as_int() == b.as_int()
        return a.value == b.value
    return None


class Evaluator:
    """Evaluates patterns of one query against an immutable dataset."""

    def __init__(
        self,
        dataset: Dataset,
        semantics: Semantics,
        *,
        s3_subselect_links: bool = True,
    ) -> None:
        self.dataset = dataset
        self.semantics = semantics
        self._s3_links = s3_subselect_links
        # Per-instance memos for `_exists`; see the module docstring.
        self._prepared: dict[GraphPattern, Prepared] = {}
        self._outcomes: dict[
            tuple[GraphPattern, SolutionMapping, frozenset[Triple]], bool
        ] = {}

    def solutions(
        self, pattern: GraphPattern, graph: frozenset[Triple] | None = None
    ) -> frozenset:
        active = self.dataset.default if graph is None else graph
        return self._pattern(expand_all_stars(pattern), active)

    # -- patterns ------------------------------------------------------

    def _pattern(self, p: GraphPattern, graph: frozenset[Triple]) -> frozenset:
        match p:
            case BGP():
                return match_bgp(graph, p)
            case Join():
                return join(self._pattern(p.left, graph), self._pattern(p.right, graph))
            case Union():
                return union(self._pattern(p.left, graph), self._pattern(p.right, graph))
            case Minus():
                return minus(self._pattern(p.left, graph), self._pattern(p.right, graph))
            case Optional():
                return self._optional(p, graph)
            case GraphNode():
                return self._graph(p, graph)
            case ServiceNode():
                raise UnsupportedFeatureError("SERVICE evaluation unsupported")
            case FilterNode():
                inner = self._pattern(p.pattern, graph)
                return frozenset(
                    mu
                    for mu in inner
                    if ebv(self._expr(p.condition, mu, graph)).is_true
                )
            case BindNode():
                return self._bind_node(p, graph)
            case ValuesNode():
                return frozenset(
                    SolutionMapping.of(
                        {
                            v: cell
                            for v, cell in zip(p.variables, row)
                            if cell is not None
                        }
                    )
                    for row in p.rows
                )
            case SubSelect():
                inner = self._pattern(p.pattern, graph)
                projection = (
                    frozenset(p.projection)
                    if p.projection is not None
                    else in_domain(p.pattern)
                )
                return frozenset(mu.restricted(projection) for mu in inner)
            case _:
                raise TypeError(f"not a graph pattern: {p!r}")

    def _optional(self, p: Optional, graph: frozenset[Triple]) -> frozenset:
        o1 = self._pattern(p.left, graph)
        # An inline filter on the right-hand group becomes the left-join
        # condition, evaluated over the merged solution.
        if isinstance(p.right, FilterNode):
            condition = p.right.condition
            o2 = self._pattern(p.right.pattern, graph)
        else:
            condition = None
            o2 = self._pattern(p.right, graph)
        if condition is None:
            return left_join(o1, o2)
        out: set[SolutionMapping] = set()
        for m1 in o1:
            extended = False
            for m2 in o2:
                if not compatible(m1, m2):
                    continue
                merged = m1.merged(m2)
                if ebv(self._expr(condition, merged, graph)).is_true:
                    extended = True
                    out.add(merged)
            if not extended:
                out.add(m1)
        return frozenset(out)

    def _graph(self, p: GraphNode, graph: frozenset[Triple]) -> frozenset:
        if isinstance(p.name, Variable):
            out: frozenset = frozenset()
            for name in sorted(self.dataset.named):
                named = self.dataset.named[name]
                bound_name = frozenset([SolutionMapping.of({p.name: iri(name)})])
                out = union(out, join(self._pattern(p.pattern, named), bound_name))
            return out
        named = self.dataset.graph(p.name.value)
        if named is None:
            return frozenset()
        return self._pattern(p.pattern, named)

    def _bind_node(self, p: BindNode, graph: frozenset[Triple]) -> frozenset:
        out: set[SolutionMapping] = set()
        for mu in self._pattern(p.pattern, graph):
            v = self._expr(p.expression, mu, graph)
            if v.is_error:
                out.add(mu)
            else:
                out.add(mu.merged(SolutionMapping.of({p.var: v.term})))
        return frozenset(out)

    # -- expressions ---------------------------------------------------

    def _expr(self, e: Expression, mu: SolutionMapping, graph: frozenset[Triple]) -> ExprValue:
        match e:
            case Const():
                return value(e.term)
            case Var():
                term = mu.get(e.var)
                if term is None:
                    return error(f"unbound variable ?{e.var.name}")
                return value(term)
            case Bound():
                return _truth(e.var in mu)
            case And():
                return self._and(e, mu, graph)
            case Or():
                return self._or(e, mu, graph)
            case Not():
                v = ebv(self._expr(e.inner, mu, graph))
                if v.is_error:
                    return v
                return _truth(v.is_false)
            case Compare():
                return self._compare(e, mu, graph)
            case Add():
                left = self._expr(e.left, mu, graph)
                right = self._expr(e.right, mu, graph)
                if left.is_error:
                    return left
                if right.is_error:
                    return right
                try:
                    return value(integer(left.term.as_int() + right.term.as_int()))
                except ValueError:
                    return error("'+' requires integer operands")
            case Exists():
                return _truth(self._exists(e.pattern, mu, graph))
            case NotExists():
                return _truth(not self._exists(e.pattern, mu, graph))
            case _:
                raise TypeError(f"not an expression: {e!r}")

    def _exists(self, pattern: GraphPattern, mu: SolutionMapping, graph: frozenset[Triple]) -> bool:
        prepared = self._prepared.get(pattern)
        if prepared is None:
            prepared = prepare(pattern, self.semantics, s3_subselect_links=self._s3_links)
            self._prepared[pattern] = prepared
        restricted = mu.restricted(prepared.relevant)
        key = (pattern, restricted, graph)
        outcome = self._outcomes.get(key)
        if outcome is None:
            correlated = apply_solution(prepared, restricted)
            outcome = self._outcomes[key] = bool(self._pattern(correlated, graph))
        return outcome

    def _and(self, e: And, mu: SolutionMapping, graph: frozenset[Triple]) -> ExprValue:
        left = ebv(self._expr(e.left, mu, graph))
        right = ebv(self._expr(e.right, mu, graph))
        if left.is_false or right.is_false:
            return _FALSE_VALUE
        if left.is_error or right.is_error:
            return left if left.is_error else right
        return _TRUE_VALUE

    def _or(self, e: Or, mu: SolutionMapping, graph: frozenset[Triple]) -> ExprValue:
        left = ebv(self._expr(e.left, mu, graph))
        right = ebv(self._expr(e.right, mu, graph))
        if left.is_true or right.is_true:
            return _TRUE_VALUE
        if left.is_error or right.is_error:
            return left if left.is_error else right
        return _FALSE_VALUE

    def _compare(self, e: Compare, mu: SolutionMapping, graph: frozenset[Triple]) -> ExprValue:
        left = self._expr(e.left, mu, graph)
        right = self._expr(e.right, mu, graph)
        if left.is_error:
            return left
        if right.is_error:
            return right
        a, b = left.term, right.term
        if e.op in ("=", "!="):
            eq = _term_equal(a, b)
            if eq is None:
                return error(f"incomparable literals {a.value!r} and {b.value!r}")
            return _truth(eq if e.op == "=" else not eq)
        if a.datatype != XSD_INTEGER or b.datatype != XSD_INTEGER:
            return error(f"{e.op!r} requires numeric operands")
        x, y = a.as_int(), b.as_int()
        result = {
            "<": x < y,
            "<=": x <= y,
            ">": x > y,
            ">=": x >= y,
        }[e.op]
        return _truth(result)


def evaluate(
    dataset: Dataset,
    pattern: GraphPattern,
    semantics: Semantics,
    *,
    graph: frozenset[Triple] | None = None,
    s3_subselect_links: bool = True,
) -> frozenset:
    """Evaluate a pattern; returns the duplicate-free solution set."""
    ev = Evaluator(dataset, semantics, s3_subselect_links=s3_subselect_links)
    return ev.solutions(pattern, graph)


def eval_expr(
    dataset: Dataset,
    expression: Expression,
    mu: SolutionMapping,
    semantics: Semantics,
    *,
    graph: frozenset[Triple] | None = None,
) -> ExprValue:
    """Evaluate one expression under a current solution mapping."""
    ev = Evaluator(dataset, semantics)
    active = dataset.default if graph is None else graph
    return ev._expr(expression, mu, active)


# -- result serialization ----------------------------------------------


def term_json(t: Term) -> dict:
    if t.is_iri:
        return {"type": "uri", "value": t.value}
    if t.is_blank:
        return {"type": "bnode", "value": t.value}
    out = {"type": "literal", "value": t.value}
    if t.datatype is not None:
        out["datatype"] = t.datatype
    return out


def results_document(solutions: frozenset, variables: list[Variable] | None = None) -> dict:
    """The canonical JSON results document."""
    if variables is None:
        seen: set[Variable] = set()
        for mu in solutions:
            seen.update(mu.keys())
        names = sorted(v.name for v in seen)
    else:
        names = sorted(v.name for v in variables)
    bindings = [
        {k.name: term_json(v) for k, v in mu.items()}
        for mu in canonical_order(solutions)
    ]
    return {"head": {"vars": names}, "results": {"bindings": bindings}}


def results_tsv(solutions: frozenset, variables: list[Variable] | None = None) -> str:
    """Tab-separated results with a ?var header row."""
    from .turtle import term_text

    doc_vars = results_document(solutions, variables)["head"]["vars"]
    lines = ["\t".join(f"?{name}" for name in doc_vars)]
    for mu in canonical_order(solutions):
        cells = []
        for name in doc_vars:
            term = mu.get(Variable(name))
            cells.append("" if term is None else term_text(term))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
