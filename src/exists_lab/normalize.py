"""Pattern and expression normalization under the three semantics.

A normalization is a triple (pattern', d, g): the pattern rewritten so
every variable is fresh and plays a single role, plus two bookkeeping
maps from fresh variables back to the original names. `d` records
output-role variables (those that can appear in solutions); `g` records
input-role variables that a solution mapping may substitute.

Under S1 every variable outside the pattern's domain is local: `g` is
always empty. S2 additionally exposes expression-role variables through
`g`. S3 extends S2 by also exposing in-domain-but-hidden variables of
sub-selects and MINUS right operands, linking them to fresh `g`
variables with `!(bound(x) && bound(y)) || x = y` filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import UnsupportedFeatureError
from .scope import expand_all_stars, in_domain
from .syntax import (
    BGP,
    FRESH,
    FRESH_PREFIX,
    And,
    BindNode,
    Bound,
    Compare,
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
    field_names,
    map_children,
    ordered_vars,
    vars_in,
)


class Semantics(Enum):
    S1 = "s1"
    S2 = "s2"
    S3 = "s3"

    @classmethod
    def parse(cls, text: str) -> "Semantics":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown semantics {text!r}, expected s1, s2, or s3") from None


# Finite partial map between variables. Used both for the d/g components
# (fresh -> original) and for generic renamings.
VarRenaming = dict[Variable, Variable]


@dataclass(frozen=True)
class Normalization:
    node: GraphPattern | Expression
    d: VarRenaming = field(default_factory=dict)
    g: VarRenaming = field(default_factory=dict)


class FreshVars:
    """Monotone fresh-variable source, call-local to each normalization.

    Skips any name already present in the input so reserved-looking user
    names can never be captured.
    """

    def __init__(self, avoid: Iterable[str] = (), start: int = 0) -> None:
        self._avoid = set(avoid)
        self._next = start

    def mint(self) -> Variable:
        while True:
            name = f"{FRESH_PREFIX}{self._next}"
            self._next += 1
            if name not in self._avoid:
                return Variable(name, FRESH)


def filter_link(x: Variable, y: Variable) -> Expression:
    """The linking clause `!(bound(x) && bound(y)) || x = y`."""
    return Or(Not(And(Bound(x), Bound(y))), Compare("=", Var(x), Var(y)))


def cr(f: VarRenaming, g: VarRenaming) -> VarRenaming:
    """Consequent renaming: map each key of `g` whose original lies in
    range(f) to the unique key of `f` with the same original.

    Renaming the keys of `g` by the result makes `g` agree with `f` on
    their shared originals. Requires `f` injective.
    """
    rev: dict[Variable, Variable] = {}
    for k, v in f.items():
        if v in rev:
            raise ValueError("cr requires an injective first argument")
        rev[v] = k
    return {y: rev[orig] for y, orig in g.items() if orig in rev}


def rename(m: VarRenaming, node):
    """Replace every occurrence of a key variable by its image.

    Accepts patterns, expressions, triple patterns, variables, terms,
    and renamings (whose *keys* are renamed). Every variable field is
    renamed, naming positions (BIND target, VALUES header, projection)
    included; a node with nothing to rename is returned itself.
    """
    if isinstance(node, dict):
        return {m.get(k, k): v for k, v in node.items()}

    def walk(n):
        if isinstance(n, Variable):
            return m.get(n, n)
        return map_children(n, walk)

    return walk(node)


def _vars_outside_exists(e: Expression) -> list[Variable]:
    """Distinct variables of an expression occurring outside every
    maximal EXISTS clause, in traversal order."""
    seen: dict[Variable, None] = {}

    def visit(n):
        if isinstance(n, Variable):
            seen.setdefault(n)
        elif not isinstance(n, (Exists, NotExists)):
            map_children(n, visit)
        return n

    visit(e)
    return list(seen)


def _norm_s1(p: GraphPattern, fresh: FreshVars) -> Normalization:
    dom = in_domain(p)
    mapping: VarRenaming = {}
    d: VarRenaming = {}
    for v in sorted(dom, key=lambda v: v.name):
        k = fresh.mint()
        d[k] = v
        mapping[v] = k
    for v in sorted(vars_in(p) - dom, key=lambda v: v.name):
        mapping[v] = fresh.mint()
    return Normalization(rename(mapping, p), d, {})


class _Normalizer:
    """Structural normalizer for S2 and S3."""

    def __init__(self, semantics: Semantics, fresh: FreshVars, s3_subselect_links: bool) -> None:
        self.fresh = fresh
        self.s3 = semantics is Semantics.S3
        self.s3_links = s3_subselect_links

    # -- patterns ------------------------------------------------------

    def pattern(self, p: GraphPattern) -> Normalization:
        match p:
            case BGP():
                return self._leaf(p, ordered_vars(p))
            case ValuesNode():
                return self._leaf(p, list(p.variables))
            case SubSelect():
                return self._sub_select(p)
            case Join() | Union() | Optional():
                return self._combine(p)
            case Minus():
                return self._minus(p)
            case GraphNode():
                return self._graph(p)
            case ServiceNode():
                inner = self.pattern(p.pattern)
                return Normalization(ServiceNode(p.iri, inner.node), inner.d, inner.g)
            case FilterNode():
                return self._filter(p)
            case BindNode():
                return self._bind(p)
            case _:
                raise TypeError(f"not a graph pattern: {p!r}")

    def _leaf(self, p: GraphPattern, variables: list[Variable]) -> Normalization:
        d: VarRenaming = {}
        mapping: VarRenaming = {}
        for v in variables:
            k = self.fresh.mint()
            d[k] = v
            mapping[v] = k
        return Normalization(rename(mapping, p), d, {})

    def _sub_select(self, p: SubSelect) -> Normalization:
        assert p.projection is not None, "stars are expanded before normalization"
        inner = self.pattern(p.pattern)
        projected = set(p.projection)
        d_p: VarRenaming = {}
        hidden: VarRenaming = {}
        for k, v in inner.d.items():
            (d_p if v in projected else hidden)[k] = v
        inv = {v: k for k, v in d_p.items()}
        for v in p.projection:
            # A projected variable the body can never bind still needs a
            # fresh name to keep d surjective onto the domain.
            if v not in inv:
                k = self.fresh.mint()
                d_p[k] = v
                inv[v] = k
        body = inner.node
        g_p = dict(inner.g)
        if self.s3 and self.s3_links:
            for k, v in hidden.items():
                y = self.fresh.mint()
                body = FilterNode(body, filter_link(k, y))
                g_p[y] = v
        projection = tuple(inv[v] for v in p.projection)
        return Normalization(SubSelect(projection, body), d_p, g_p)

    def _combine(self, p: Join | Union | Optional) -> Normalization:
        nq = self.pattern(p.left)
        nr = self.pattern(p.right)
        f = cr(nq.d, nr.d)
        right = rename(f, nr.node)
        d = dict(nq.d)
        for k, v in nr.d.items():
            d[f.get(k, k)] = v
        return Normalization(type(p)(nq.node, right), d, {**nq.g, **nr.g})

    def _minus(self, p: Minus) -> Normalization:
        nq = self.pattern(p.left)
        nr = self.pattern(p.right)
        f = cr(nq.d, nr.d)
        right = rename(f, nr.node)
        g = {**nq.g, **nr.g}
        if self.s3 and self.s3_links:
            left_dom = set(nq.d.values())
            for k, v in nr.d.items():
                if v in left_dom:
                    continue
                y = self.fresh.mint()
                right = FilterNode(right, filter_link(f.get(k, k), y))
                g[y] = v
        return Normalization(Minus(nq.node, right), dict(nq.d), g)

    def _graph(self, p: GraphNode) -> Normalization:
        inner = self.pattern(p.pattern)
        if not isinstance(p.name, Variable):
            return Normalization(GraphNode(p.name, inner.node), inner.d, inner.g)
        inv = {v: k for k, v in inner.d.items()}
        d = dict(inner.d)
        key = inv.get(p.name)
        if key is None:
            key = self.fresh.mint()
            d[key] = p.name
        return Normalization(GraphNode(key, inner.node), d, dict(inner.g))

    def _filter(self, p: FilterNode) -> Normalization:
        nq = self.pattern(p.pattern)
        nc = self.expression(p.condition)
        f = cr(nq.d, nc.g)
        condition = rename(f, nc.node)
        g = dict(nq.g)
        for y, orig in nc.g.items():
            key = f.get(y, y)
            if key in nq.d:
                # The pattern side already records this original; the
                # rename above unified the occurrences.
                continue
            g[key] = orig
        return Normalization(FilterNode(nq.node, condition), dict(nq.d), g)

    def _bind(self, p: BindNode) -> Normalization:
        nq = self.pattern(p.pattern)
        ne = self.expression(p.expression)
        f = cr(nq.d, ne.g)
        expr = rename(f, ne.node)
        g = dict(nq.g)
        for y, orig in ne.g.items():
            key = f.get(y, y)
            if key in nq.d:
                continue
            g[key] = orig
        key = self.fresh.mint()
        d = {**nq.d, key: p.var}
        return Normalization(BindNode(nq.node, expr, key), d, g)

    # -- expressions ---------------------------------------------------

    def expression(self, e: Expression) -> Normalization:
        g0: VarRenaming = {}
        inv0: VarRenaming = {}
        for v in _vars_outside_exists(e):
            k = self.fresh.mint()
            g0[k] = v
            inv0[v] = k
        g = dict(g0)

        def walk(node):
            if isinstance(node, Variable):
                return inv0[node]
            if not isinstance(node, (Exists, NotExists)):
                return map_children(node, walk)
            nq = self.pattern(node.pattern)
            f = cr(g0, nq.g)
            body = rename(f, nq.node)
            for y, orig in nq.g.items():
                g[f.get(y, y)] = orig
            # Expose each in-domain variable of the nested pattern
            # through a linked, substitutable twin.
            for x, orig in nq.d.items():
                y = self.fresh.mint()
                body = FilterNode(body, filter_link(x, y))
                g[y] = orig
            return type(node)(body)

        return Normalization(walk(e), {}, g)


def normalize(
    node: GraphPattern | Expression,
    semantics: Semantics,
    *,
    fresh_start: int = 0,
    s3_subselect_links: bool = True,
) -> Normalization:
    """Normalize a pattern or expression under the given semantics."""
    node = expand_all_stars(node)
    fresh = FreshVars(avoid={v.name for v in vars_in(node)}, start=fresh_start)
    if semantics is Semantics.S1:
        if isinstance(node, Expression):
            raise UnsupportedFeatureError("S1 expression normalization undefined")
        return _norm_s1(node, fresh)
    normalizer = _Normalizer(semantics, fresh, s3_subselect_links)
    if isinstance(node, Expression):
        return normalizer.expression(node)
    return normalizer.pattern(node)


def norm_s1(p: GraphPattern, *, fresh_start: int = 0) -> Normalization:
    return normalize(p, Semantics.S1, fresh_start=fresh_start)


def norm_s2(node: GraphPattern | Expression, *, fresh_start: int = 0) -> Normalization:
    return normalize(node, Semantics.S2, fresh_start=fresh_start)


def norm_s3(
    node: GraphPattern | Expression,
    *,
    fresh_start: int = 0,
    subselect_links: bool = True,
) -> Normalization:
    return normalize(
        node, Semantics.S3, fresh_start=fresh_start, s3_subselect_links=subselect_links
    )


# -- structural checks used by tests and the CLI -----------------------


def alpha_equivalent(a: Normalization, b: Normalization) -> bool:
    """Structural equality up to a bijection of the rewritten variables.

    The bijection is collected from the two patterns in lockstep; the
    d and g components must then correspond under it.
    """
    bij: dict[Variable, Variable] = {}
    rev: dict[Variable, Variable] = {}

    def match_var(x: Variable, y: Variable) -> bool:
        if x in bij:
            return bij[x] == y
        if y in rev:
            return False
        bij[x] = y
        rev[y] = x
        return True

    def same(x, y) -> bool:
        # Nodes correspond field by field, variables through the
        # bijection, and everything else (terms, operators, VALUES rows)
        # by equality.
        if isinstance(x, Variable):
            return isinstance(y, Variable) and match_var(x, y)
        if isinstance(x, tuple):
            if not isinstance(y, tuple) or len(x) != len(y):
                return False
            for x1, y1 in zip(x, y):
                if not same(x1, y1):
                    return False
            return True
        if isinstance(x, (GraphPattern, Expression, TriplePattern)):
            if type(x) is not type(y):
                return False
            for name in field_names(type(x)):
                if not same(getattr(x, name), getattr(y, name)):
                    return False
            return True
        return x == y

    if not same(a.node, b.node):
        return False

    def translated(m: VarRenaming) -> VarRenaming | None:
        out: VarRenaming = {}
        for k, v in m.items():
            if k not in bij:
                return None
            out[bij[k]] = v
        return out

    return translated(a.d) == b.d and translated(a.g) == b.g


def _bgp_position_vars(node) -> frozenset[Variable]:
    """Variables occurring in a triple position of any BGP, anywhere."""
    out: set[Variable] = set()

    def visit(n):
        if isinstance(n, TriplePattern):
            out.update(vars_in(n))
        elif not isinstance(n, Variable):
            map_children(n, visit)
        return n

    visit(node)
    return frozenset(out)


def normalization_violations(
    n: Normalization,
    original: GraphPattern | Expression,
    semantics: Semantics,
) -> list[str]:
    """Check the normalization invariants; returns a list of violations."""
    problems: list[str] = []

    for v in ordered_vars(n.node):
        if v.origin != FRESH:
            problems.append(f"non-fresh variable ?{v.name} in normalized node")
            break

    if isinstance(original, GraphPattern):
        expected_dom = in_domain(expand_all_stars(original))
        if frozenset(n.d.values()) != expected_dom:
            problems.append("range(d) differs from the original pattern's domain")
    elif n.d:
        problems.append("expression normalization must have empty d")

    if len(set(n.d.values())) != len(n.d):
        problems.append("d is not injective")

    if set(n.d) & set(n.g):
        problems.append("d and g share keys")

    if semantics is Semantics.S1 and n.g:
        problems.append("S1 normalization must have empty g")

    if semantics in (Semantics.S2, Semantics.S3):
        offenders = _bgp_position_vars(n.node) & set(n.g)
        if offenders:
            names = ", ".join(sorted(f"?{v.name}" for v in offenders))
            problems.append(f"g keys occur in BGP positions: {names}")

    return problems
