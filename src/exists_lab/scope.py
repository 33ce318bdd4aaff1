"""In-domain (in-scope) variables, computed purely from syntax.

A variable is in-domain for a pattern when it can appear in the
pattern's output solutions. This is the computable characterization;
soundness against actual evaluation is covered by a property test.
"""

from __future__ import annotations

from .syntax import (
    BGP,
    BindNode,
    FilterNode,
    GraphNode,
    GraphPattern,
    Join,
    Minus,
    Optional,
    ServiceNode,
    SubSelect,
    Union,
    ValuesNode,
    Variable,
    map_children,
    vars_in,
)


def in_domain(p: GraphPattern) -> frozenset[Variable]:
    match p:
        case BGP():
            return vars_in(p)
        case Join() | Union() | Optional():
            return in_domain(p.left) | in_domain(p.right)
        case Minus():
            return in_domain(p.left)
        case GraphNode():
            inner = in_domain(p.pattern)
            if isinstance(p.name, Variable):
                return inner | {p.name}
            return inner
        case ServiceNode() | FilterNode():
            return in_domain(p.pattern)
        case ValuesNode():
            return frozenset(p.variables)
        case BindNode():
            return in_domain(p.pattern) | {p.var}
        case SubSelect():
            if p.projection is None:
                return in_domain(p.pattern)
            return frozenset(p.projection)
        case _:
            raise TypeError(f"not a graph pattern: {p!r}")


def expand_star(p: SubSelect) -> SubSelect:
    """Replace a `SELECT *` projection by the sorted in-domain variables."""
    if not p.is_star:
        raise ValueError("expand_star requires a star projection")
    projection = tuple(sorted(in_domain(p.pattern), key=lambda v: v.name))
    return SubSelect(projection, p.pattern)


def expand_all_stars(node):
    """Expand every star projection in a pattern or expression, bottom-up.

    Run once before normalization so all semantics see identical
    projections. A node without a star projection is returned itself.
    """
    if isinstance(node, (BGP, ValuesNode, Variable)):
        return node
    node = map_children(node, expand_all_stars)
    if isinstance(node, SubSelect) and node.is_star:
        return expand_star(node)
    return node
