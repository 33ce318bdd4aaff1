"""Mapping substitution and the correlated binding of a solution.

`bind` replaces textual substitution when evaluating nested patterns:
the pattern is normalized first, the solution mapping is applied to the
substitutable (g-registered) variables only, the fresh output variables
are renamed back to their original names, and the solution's in-domain
part is joined back in as inline VALUES data.

`bind` is the composition of a per-pattern step, `prepare`, and a
per-row step, `apply_solution`. The per-row step reads the solution
only on `Prepared.relevant`, so callers that correlate one pattern with
many solutions may normalize it once and memoize on the restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import SolutionMapping
from .errors import UnsupportedFeatureError
from .normalize import Normalization, Semantics, normalize, rename
from .scope import expand_all_stars, in_domain
from .syntax import (
    Bound,
    Const,
    Expression,
    GraphNode,
    GraphPattern,
    Join,
    TriplePattern,
    ValuesNode,
    Var,
    Variable,
    map_children,
    unit_values,
)
from .terms import Term, boolean


def mapping_substitute(
    n: Normalization, mu: SolutionMapping
) -> GraphPattern | Expression:
    """Apply a solution mapping to a normalization.

    Step 1 resolves every `bound(x)` over a g-registered x to TRUE or
    FALSE; step 2 replaces remaining g-registered occurrences by the
    mapped term, or restores the original name when unmapped. Finally
    the d-registered fresh variables are renamed back to their original
    names. Step 1 strictly precedes step 2 so `bound` never receives a
    constant argument.
    """
    node = _substitute(n.node, n.g, mu)
    return rename(n.d, node)


def _substitute(node, g: dict[Variable, Variable], mu: SolutionMapping):
    """Steps 1 and 2 of `mapping_substitute`.

    The input positions, which a solution may fill with a term, are the
    triple positions, the GRAPH name, `Var` and `bound()`. Every other
    variable field is a naming position (BIND target, VALUES header,
    projection) that cannot hold a term: a g-registered variable there
    gets its original name back.
    """

    def position(pos: Term | Variable) -> Term | Variable:
        if isinstance(pos, Variable) and pos in g:
            orig = g[pos]
            value = mu.get(orig)
            return value if value is not None else orig
        return pos

    def walk(n):
        if isinstance(n, Variable):
            return g.get(n, n)
        if isinstance(n, TriplePattern):
            return map_children(n, position)
        if isinstance(n, GraphNode):
            return GraphNode(position(n.name), walk(n.pattern))
        if isinstance(n, Var):
            replaced = position(n.var)
            return Const(replaced) if isinstance(replaced, Term) else Var(replaced)
        if isinstance(n, Bound):
            return Const(boolean(g[n.var] in mu)) if n.var in g else n
        return map_children(n, walk)

    return walk(node)


def encode_values(mu: SolutionMapping, doms: frozenset[Variable] | set[Variable]) -> ValuesNode:
    """Encode the restriction of a solution to `doms` as inline data.

    An empty restriction yields the unit VALUES node, the join identity,
    so unbound in-domain variables impose no constraint.
    """
    header = sorted((v for v in mu.keys() if v in doms), key=lambda v: v.name)
    if not header:
        return unit_values()
    row = tuple(mu.get(v) for v in header)
    return ValuesNode(tuple(header), (row,))


@dataclass(frozen=True)
class Prepared:
    """The per-pattern part of `bind`: a star-expanded pattern or
    expression and its normalization.

    `domain` is the input's in-domain variables (empty for an
    expression, which gets no VALUES join). `relevant` is every
    variable of a solution that `apply_solution` reads: the originals
    in the range of `g`, plus `domain`.
    """

    node: GraphPattern | Expression
    normalization: Normalization
    domain: frozenset[Variable]
    relevant: frozenset[Variable]


def prepare(
    p: GraphPattern | Expression,
    semantics: Semantics,
    *,
    fresh_start: int = 0,
    s3_subselect_links: bool = True,
) -> Prepared:
    """Expand stars and normalize; independent of any solution."""
    node = expand_all_stars(p)
    if isinstance(node, Expression) and semantics is Semantics.S1:
        raise UnsupportedFeatureError("S1 expression normalization undefined")
    n = normalize(
        node, semantics, fresh_start=fresh_start, s3_subselect_links=s3_subselect_links
    )
    domain = frozenset() if isinstance(node, Expression) else in_domain(node)
    return Prepared(node, n, domain, frozenset(n.g.values()) | domain)


def apply_solution(prepared: Prepared, mu: SolutionMapping) -> GraphPattern | Expression:
    """Correlate a prepared pattern or expression with one solution."""
    substituted = mapping_substitute(prepared.normalization, mu)
    if isinstance(prepared.node, Expression):
        return substituted
    return Join(substituted, encode_values(mu, prepared.domain))


def bind(
    p: GraphPattern | Expression,
    mu: SolutionMapping,
    semantics: Semantics,
    *,
    fresh_start: int = 0,
    s3_subselect_links: bool = True,
) -> GraphPattern | Expression:
    """Correlate a pattern or expression with the current solution.

    For a graph pattern the result is the substituted normalization
    joined with the solution's in-domain restriction as VALUES data; for
    an expression (S2/S3 only) it is the substituted normalization
    alone.
    """
    prepared = prepare(
        p, semantics, fresh_start=fresh_start, s3_subselect_links=s3_subselect_links
    )
    return apply_solution(prepared, mu)
