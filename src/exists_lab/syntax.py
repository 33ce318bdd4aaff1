"""AST for the query fragment: graph patterns and filter expressions.

All nodes are immutable. Variable identity is the bare name (no `?`
sigil); the `origin` tag records whether a variable came from user text
or was minted during normalization, and is deliberately excluded from
equality so round-tripping through concrete syntax preserves structure.

A node's children are derived from its dataclass fields: `children`
lists them and `map_children` rebuilds a node from them, so a walker
states only the cases in which it differs from plain recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import get_args, get_origin, get_type_hints

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


_NODES = (GraphPattern, Expression, TriplePattern)
_CHILDREN = (Variable,) + _NODES


def vars_in(node: GraphPattern | Expression | TriplePattern) -> frozenset[Variable]:
    """Every variable occurring anywhere in the node, including inside
    EXISTS patterns, projections, VALUES headers, and bound()."""
    return frozenset(ordered_vars(node))


def ordered_vars(node) -> list[Variable]:
    """The distinct variables of `node` in depth-first field order: a
    GRAPH name before its pattern, a projection before its body, a BIND
    target after its expression."""
    seen: dict[Variable, None] = {}

    def visit(n):
        if isinstance(n, Variable):
            seen.setdefault(n)
        else:
            map_children(n, visit)
        return n

    visit(node)
    return list(seen)


def children(node) -> tuple:
    """The AST nodes directly under `node`, in field order: patterns,
    expressions and triple patterns, but not variables."""
    out = []
    for _, name, many in _child_fields(type(node)):
        value = getattr(node, name)
        for item in (value or ()) if many else (value,):
            if isinstance(item, _NODES):
                out.append(item)
    return tuple(out)


def map_children(node, f):
    """Rebuild `node` through its constructor with `f` applied to each
    child node and each variable, in field order.

    Only fields whose type admits a node or a variable are read, so
    terms, `Compare.op`, `ServiceNode.iri` and VALUES rows never reach
    `f`; a term in a triple or GRAPH position is kept as it is. When `f`
    returns every argument unchanged, `node` itself is returned.
    Otherwise the constructor runs, and with it every `__post_init__`
    check. A term, a variable or any other node without such fields is
    returned as it is.
    """
    cls = type(node)
    args = None
    for i, name, many in _child_fields(cls):
        old = getattr(node, name)
        if many:
            if old is None:
                continue
            items = None
            for j, item in enumerate(old):
                mapped = f(item)
                if mapped is not item:
                    if items is None:
                        items = list(old)
                    items[j] = mapped
            if items is None:
                continue
            new = tuple(items)
        elif isinstance(old, _CHILDREN):
            new = f(old)
            if new is old:
                continue
        else:
            continue
        if args is None:
            args = [getattr(node, n) for n in field_names(cls)]
        args[i] = new
    return node if args is None else cls(*args)



@cache
def field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


@cache
def _child_fields(cls: type) -> tuple[tuple[int, str, bool], ...]:
    """(position, name, holds a tuple) of each field of `cls` whose type
    admits a node or a variable."""
    hints = get_type_hints(cls)
    return tuple(
        (i, name, _is_tuple(hints[name]))
        for i, name in enumerate(field_names(cls))
        if _admits_child(hints[name])
    )


def _admits_child(hint) -> bool:
    # On Python 3.10 a parameterized alias such as `tuple[X, ...]` also
    # passes `isinstance(hint, type)`; it has arguments, a class has none.
    if isinstance(hint, type) and not get_args(hint):
        return issubclass(hint, _CHILDREN)
    return any(_admits_child(arg) for arg in get_args(hint) if arg is not Ellipsis)


def _is_tuple(hint) -> bool:
    return get_origin(hint) is tuple or any(get_origin(arg) is tuple for arg in get_args(hint))
