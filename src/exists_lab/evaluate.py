"""Set-semantics evaluation with three-valued filter logic.

EXISTS is evaluated operationally: at filter time the nested pattern is
correlated with the current solution under the selected semantics, then
checked for non-emptiness against the active graph. Expression errors
are values, never exceptions; a filter drops a candidate solution on
both false and error.

`bind` stays the definition: normalize the nested pattern to
`(P', d, g)`, substitute the solution into the g-registered variables,
rename back by `d` and join with the solution's in-domain part as
VALUES. An `Evaluator` computes the same outcome without rebuilding
`P'`. It prepares (star-expands and normalizes) each nested pattern
once, and evaluates `P'` in its fresh names under an environment that
maps each g-key to the solution's value of its original. The VALUES
join becomes a seed, the in-domain values under their d-keys, and a
compatibility probe on each row; renaming back changes no emptiness.
Each outcome is memoized on the pattern object, the solution (and the
enclosing environment) restricted to `Prepared.relevant`, and the
active graph. `bind` reads nothing else of the solution, so the memo
returns exactly what per-row `bind` would.

Only the emptiness of a correlated pattern is observed, so `_exists`
reads it from a lazy row source, `_rows`, and stops at the first row.
`_rows` streams BGPs (through `iter_bgp`), filters, sub-select
projections, unions and joins, and hands every other node to the eager
`_pattern`. It also takes a seed: it may leave out rows incompatible
with it. BGPs start their match from the seed and read the graph's
lookup lists instead of scanning it. A filter adds the variable of
each `?x = <IRI>` conjunct to the seed, and of each `?x = ?y` conjunct
whose `?y` the environment binds to an IRI. A nested pattern that
holds SERVICE anywhere is decided by `_pattern` alone, so SERVICE
raises wherever it raised before, even in a branch the stream would
never reach. `docs/substitution-notes.md` gives the argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .algebra import (
    EMPTY_MAPPING,
    SolutionMapping,
    canonical_order,
    compatible,
    iter_bgp,
    join,
    left_join,
    match_bgp,
    minus,
    union,
)
from .binding import Prepared, prepare
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
    children,
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
        # Per-instance memos for `_exists`, keyed on the identity of a
        # nested pattern; see the module docstring.
        self._prepared: dict[int, _Body] = {}
        self._outcomes: dict[tuple[int, SolutionMapping, frozenset[Triple]], bool] = {}
        # The g-keys of the normalized body being evaluated, mapped to
        # their terms; empty outside every EXISTS.
        self._env: dict[Variable, Term] = {}

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
                projection = _projection(p)
                return frozenset(mu.restricted(projection) for mu in inner)
            case _:
                raise TypeError(f"not a graph pattern: {p!r}")

    def _rows(
        self,
        p: GraphPattern,
        graph: frozenset[Triple],
        seed: SolutionMapping = EMPTY_MAPPING,
    ) -> Iterator[SolutionMapping]:
        """The solutions of `p`, produced lazily and possibly repeated.

        Rows incompatible with `seed` may be left out; every row
        compatible with it is produced. BGPs start their match from the
        seed, and joins, filters, sub-selects and unions pass it down.
        Nodes other than those matched here ignore the seed and come
        from `_pattern` whole.
        """
        match p:
            case BGP():
                yield from iter_bgp(graph, p, seed)
            case FilterNode():
                # Every row the condition keeps binds each `?x = <IRI>`
                # conjunct's variable to that IRI (see `_seed_equalities`).
                inner = _seed_equalities(seed, p.condition, self._env)
                if inner is None:
                    return
                for mu in self._rows(p.pattern, graph, inner):
                    if ebv(self._expr(p.condition, mu, graph)).is_true:
                        yield mu
            case SubSelect():
                projection = _projection(p)
                for mu in self._rows(p.pattern, graph, seed.restricted(projection)):
                    yield mu.restricted(projection)
            case Union():
                yield from self._rows(p.left, graph, seed)
                yield from self._rows(p.right, graph, seed)
            case Join():
                # The right side is whole first: when it is empty, the
                # left side is never read. A single right row seeds the
                # left side. With several, the left side is read once
                # from `seed` alone: seeding it per right row would
                # evaluate a left side that ignores seeds (OPTIONAL,
                # say) once per row.
                right = self._pattern(p.right, graph)
                if not right:
                    return
                left_seed = seed.merged(next(iter(right))) if len(right) == 1 else seed
                for m1 in self._rows(p.left, graph, left_seed):
                    for m2 in right:
                        if compatible(m1, m2):
                            yield m1.merged(m2)
            case _:
                yield from self._pattern(p, graph)

    def _optional(self, p: Optional, graph: frozenset[Triple]) -> frozenset:
        o1 = self._pattern(p.left, graph)
        # An inline filter on the right-hand group becomes the left-join
        # condition, evaluated over the merged solution.
        right = p.right
        if not isinstance(right, FilterNode):
            return left_join(o1, self._pattern(right, graph))
        return left_join(
            o1,
            self._pattern(right.pattern, graph),
            condition=lambda mu: ebv(self._expr(right.condition, mu, graph)).is_true,
        )

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
                # A g-key is never in a row, so the two never disagree.
                term = mu.get(e.var) or self._env.get(e.var)
                if term is None:
                    return error(f"unbound variable ?{e.var.name}")
                return value(term)
            case Bound():
                return _truth(e.var in mu or e.var in self._env)
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
        """Whether `bind(pattern, mu)` has a solution in `graph`.

        The normalized body `P'` is evaluated in its fresh names with
        `self._env` mapping each g-key to `mu`'s value of its original,
        and seeded with `mu`'s in-domain values under their d-keys.
        `mu` here is the row in the enclosing body's names, read
        together with the enclosing environment. The environment is an
        attribute, not a parameter, because the row sources keep their
        signatures; that is safe for the lazy rows, since every stream
        opened under an environment is consumed by `any` before this
        call restores the enclosing one.
        """
        body = self._prepared.get(id(pattern))
        if body is None:
            prepared = prepare(pattern, self.semantics, s3_subselect_links=self._s3_links)
            body = self._prepared[id(pattern)] = _Body.of(pattern, prepared)
        known = mu.restricted(body.relevant)
        outer = [kv for kv in self._env.items() if kv[0] in body.relevant]
        if outer:
            known = known.merged(SolutionMapping(tuple(outer)))
        key = (id(pattern), known, graph)
        outcome = self._outcomes.get(key)
        if outcome is None:
            values = dict(known.bindings)
            env = {k: values[v] for k, v in body.g if v in values}
            seed = SolutionMapping.of((k, values[v]) for k, v in body.d if v in values)
            enclosing, self._env = self._env, env
            try:
                if body.eager:
                    rows = self._pattern(body.node, graph)
                else:
                    rows = self._rows(body.node, graph, seed)
                outcome = self._outcomes[key] = any(compatible(r, seed) for r in rows)
            finally:
                self._env = enclosing
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


def _seed_equalities(
    seed: SolutionMapping, condition: Expression, env: dict[Variable, Term]
) -> SolutionMapping | None:
    """`seed` plus ?x = <c> for each top-level `&&` conjunct `?x = <c>`
    (either way round) of `condition`, or None when two of them, or one
    and the seed, bind a variable to different terms. A conjunct
    `?x = ?y` whose `?y` the environment `env` binds to <c> counts as
    `?x = <c>`: it is what substituting the solution would have written.
    A variable of `env` is a constant, never seeded itself.

    Only IRIs seed: `=` on IRIs is term identity, so a row the condition
    keeps binds ?x to exactly <c>. On literals `=` compares values, and
    `?x = 1` also holds for "01"^^xsd:integer.
    """
    extra: dict[Variable, Term] = {}
    stack = [condition]
    while stack:
        e = stack.pop()
        if isinstance(e, And):
            stack += (e.right, e.left)
        elif isinstance(e, Compare) and e.op == "=":
            for a, b in ((e.left, e.right), (e.right, e.left)):
                if not isinstance(a, Var) or a.var in env:
                    continue
                if isinstance(b, Const):
                    term = b.term
                elif isinstance(b, Var):
                    term = env.get(b.var)
                else:
                    continue
                if term is not None and term.is_iri:
                    known = extra.get(a.var) or seed.get(a.var)
                    if known is not None and known != term:
                        return None
                    extra[a.var] = term
    return seed.merged(SolutionMapping.of(extra)) if extra else seed


@dataclass(frozen=True)
class _Body:
    """A nested pattern as `_exists` evaluates it: its normalized body,
    the variables of a solution that `bind` reads, the `(g-key,
    original)` pairs and the in-domain `(d-key, original)` pairs, and
    whether SERVICE occurs anywhere in it. The pattern itself is held so
    that its `id`, the memo key, is never reused."""

    pattern: GraphPattern
    node: GraphPattern
    relevant: frozenset[Variable]
    g: tuple[tuple[Variable, Variable], ...]
    d: tuple[tuple[Variable, Variable], ...]
    eager: bool

    @classmethod
    def of(cls, pattern: GraphPattern, prepared: Prepared) -> "_Body":
        n = prepared.normalization
        return cls(
            pattern,
            n.node,
            prepared.relevant,
            tuple(n.g.items()),
            tuple((k, v) for k, v in n.d.items() if v in prepared.domain),
            _holds_service(n.node),
        )


def _projection(p: SubSelect) -> frozenset[Variable]:
    return frozenset(p.projection) if p.projection is not None else in_domain(p.pattern)


def _holds_service(node: GraphPattern) -> bool:
    """Whether a SERVICE occurs anywhere in the node, EXISTS bodies too."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ServiceNode):
            return True
        stack.extend(children(n))
    return False


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
