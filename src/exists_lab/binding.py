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
    TriplePattern,
    Union,
    ValuesNode,
    Var,
    Variable,
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
    def subst_pos(pos: Term | Variable) -> Term | Variable:
        if isinstance(pos, Variable) and pos in g:
            orig = g[pos]
            value = mu.get(orig)
            return value if value is not None else orig
        return pos

    def subst_naming(v: Variable) -> Variable:
        # Naming positions cannot hold terms; unrecorded here, restored.
        return g.get(v, v)

    def walk(n):
        match n:
            case TriplePattern():
                return TriplePattern(*(subst_pos(p) for p in n.positions()))
            case BGP():
                return BGP(tuple(walk(tp) for tp in n.triples))
            case Join() | Union() | Optional() | Minus():
                return type(n)(walk(n.left), walk(n.right))
            case GraphNode():
                return GraphNode(subst_pos(n.name), walk(n.pattern))
            case ServiceNode():
                return ServiceNode(n.iri, walk(n.pattern))
            case FilterNode():
                return FilterNode(walk(n.pattern), walk(n.condition))
            case BindNode():
                return BindNode(walk(n.pattern), walk(n.expression), subst_naming(n.var))
            case ValuesNode():
                return ValuesNode(tuple(subst_naming(v) for v in n.variables), n.rows)
            case SubSelect():
                projection = n.projection
                if projection is not None:
                    projection = tuple(subst_naming(v) for v in projection)
                return SubSelect(projection, walk(n.pattern))
            case Const():
                return n
            case Bound():
                if n.var in g:
                    return Const(boolean(g[n.var] in mu))
                return n
            case Var():
                replaced = subst_pos(n.var)
                if isinstance(replaced, Term):
                    return Const(replaced)
                return Var(replaced)
            case Compare():
                return Compare(n.op, walk(n.left), walk(n.right))
            case And() | Or() | Add():
                return type(n)(walk(n.left), walk(n.right))
            case Not():
                return Not(walk(n.inner))
            case Exists() | NotExists():
                return type(n)(walk(n.pattern))
            case _:
                raise TypeError(f"cannot substitute in {n!r}")

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
