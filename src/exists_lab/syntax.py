"""AST for the query fragment: graph patterns and filter expressions.

All nodes are immutable. Variable identity is the bare name (no `?`
sigil); the `origin` tag records whether a variable came from user text
or was minted during normalization, and is deliberately excluded from
equality so round-tripping through concrete syntax preserves structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache

from .terms import Term

USER = "user"
FRESH = "fresh"

FRESH_PREFIX = "__f"


@dataclass(frozen=True)
class Variable:
    name: str
    origin: str = field(default=USER, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name cannot be empty")

    def __repr__(self) -> str:
        return f"?{self.name}"


class GraphPattern:
    """Base class for pattern nodes."""

    __slots__ = ()


class Expression:
    """Base class for filter/bind expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class TriplePattern:
    s: Term | Variable
    p: Term | Variable
    o: Term | Variable

    def positions(self) -> tuple[Term | Variable, Term | Variable, Term | Variable]:
        return (self.s, self.p, self.o)


@dataclass(frozen=True)
class BGP(GraphPattern):
    triples: tuple[TriplePattern, ...] = ()


@dataclass(frozen=True)
class Join(GraphPattern):
    left: GraphPattern
    right: GraphPattern


@dataclass(frozen=True)
class Union(GraphPattern):
    left: GraphPattern
    right: GraphPattern


@dataclass(frozen=True)
class Optional(GraphPattern):
    left: GraphPattern
    right: GraphPattern


@dataclass(frozen=True)
class Minus(GraphPattern):
    left: GraphPattern
    right: GraphPattern


@dataclass(frozen=True)
class GraphNode(GraphPattern):
    name: Term | Variable
    pattern: GraphPattern


@dataclass(frozen=True)
class ServiceNode(GraphPattern):
    iri: Term
    pattern: GraphPattern


@dataclass(frozen=True)
class FilterNode(GraphPattern):
    pattern: GraphPattern
    condition: Expression


@dataclass(frozen=True)
class BindNode(GraphPattern):
    pattern: GraphPattern
    expression: Expression
    var: Variable


@dataclass(frozen=True)
class ValuesNode(GraphPattern):
    variables: tuple[Variable, ...]
    # Row cells align with `variables`; None marks UNDEF.
    rows: tuple[tuple[Term | None, ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.variables):
                raise ValueError("VALUES row width does not match its variable list")


@dataclass(frozen=True)
class SubSelect(GraphPattern):
    # None means `SELECT *`.
    projection: tuple[Variable, ...] | None
    pattern: GraphPattern

    def __post_init__(self) -> None:
        if self.projection is not None:
            names = [v.name for v in self.projection]
            if len(names) != len(set(names)):
                raise ValueError("duplicate variable in projection")

    @property
    def is_star(self) -> bool:
        return self.projection is None


def unit_values() -> ValuesNode:
    """The join identity: no variables, one empty row."""
    return ValuesNode((), ((),))


@dataclass(frozen=True)
class Const(Expression):
    term: Term


@dataclass(frozen=True)
class Var(Expression):
    var: Variable


@dataclass(frozen=True)
class Compare(Expression):
    op: str  # one of = != < <= > >=
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ("=", "!=", "<", "<=", ">", ">="):
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class And(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Or(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Not(Expression):
    inner: Expression


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Bound(Expression):
    var: Variable

    def __post_init__(self) -> None:
        if not isinstance(self.var, Variable):
            raise TypeError("bound() takes a variable, not a general expression")


@dataclass(frozen=True)
class Exists(Expression):
    pattern: GraphPattern


@dataclass(frozen=True)
class NotExists(Expression):
    pattern: GraphPattern


def vars_in(node: GraphPattern | Expression | TriplePattern) -> frozenset[Variable]:
    """Every variable occurring anywhere in the node, including inside
    EXISTS patterns, projections, VALUES headers, and bound()."""
    out: set[Variable] = set()
    _collect_vars(node, out)
    return frozenset(out)


def children(node) -> tuple:
    """The AST nodes directly under `node`, in field order: patterns,
    expressions and triple patterns, but not terms, variables or VALUES
    rows."""
    out = []
    for name in _field_names(type(node)):
        value = getattr(node, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, (GraphPattern, Expression, TriplePattern)):
                out.append(item)
    return tuple(out)


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _collect_vars(node, out: set[Variable]) -> None:
    match node:
        case TriplePattern():
            for pos in node.positions():
                if isinstance(pos, Variable):
                    out.add(pos)
        case BGP():
            for tp in node.triples:
                _collect_vars(tp, out)
        case Join() | Union() | Optional() | Minus():
            _collect_vars(node.left, out)
            _collect_vars(node.right, out)
        case GraphNode():
            if isinstance(node.name, Variable):
                out.add(node.name)
            _collect_vars(node.pattern, out)
        case ServiceNode():
            _collect_vars(node.pattern, out)
        case FilterNode():
            _collect_vars(node.pattern, out)
            _collect_vars(node.condition, out)
        case BindNode():
            _collect_vars(node.pattern, out)
            _collect_vars(node.expression, out)
            out.add(node.var)
        case ValuesNode():
            out.update(node.variables)
        case SubSelect():
            if node.projection is not None:
                out.update(node.projection)
            _collect_vars(node.pattern, out)
        case Const():
            pass
        case Var():
            out.add(node.var)
        case Bound():
            out.add(node.var)
        case Compare() | And() | Or() | Add():
            _collect_vars(node.left, out)
            _collect_vars(node.right, out)
        case Not():
            _collect_vars(node.inner, out)
        case Exists() | NotExists():
            _collect_vars(node.pattern, out)
        case _:
            raise TypeError(f"not an AST node: {node!r}")
