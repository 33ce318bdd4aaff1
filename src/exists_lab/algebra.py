"""Solution mappings and the set-semantics pattern algebra."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .syntax import BGP, TriplePattern, Variable
from .terms import Term, Triple


@dataclass(frozen=True)
class SolutionMapping:
    """An immutable partial map from variables to terms (one result row)."""

    bindings: tuple[tuple[Variable, Term], ...] = ()

    @classmethod
    def of(
        cls, mapping: Mapping[Variable, Term] | Iterable[tuple[Variable, Term]] = ()
    ) -> "SolutionMapping":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        return cls(tuple(sorted(items, key=lambda kv: kv[0].name)))

    def get(self, var: Variable) -> Term | None:
        for k, v in self.bindings:
            if k == var:
                return v
        return None

    def __contains__(self, var: Variable) -> bool:
        return any(k == var for k, _ in self.bindings)

    def __iter__(self) -> Iterator[Variable]:
        return (k for k, _ in self.bindings)

    def __len__(self) -> int:
        return len(self.bindings)

    def keys(self) -> frozenset[Variable]:
        return frozenset(k for k, _ in self.bindings)

    def items(self) -> tuple[tuple[Variable, Term], ...]:
        return self.bindings

    def restricted(self, variables: Iterable[Variable]) -> "SolutionMapping":
        allowed = variables if isinstance(variables, (set, frozenset)) else set(variables)
        return SolutionMapping(tuple(kv for kv in self.bindings if kv[0] in allowed))

    def merged(self, other: "SolutionMapping") -> "SolutionMapping":
        combined = dict(self.bindings)
        combined.update(other.bindings)
        return SolutionMapping.of(combined)

    def sort_key(self) -> tuple:
        return tuple((k.name, *v.sort_key()) for k, v in self.bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"?{k.name}={v.value}" for k, v in self.bindings)
        return "{" + inner + "}"


EMPTY_MAPPING = SolutionMapping()

SolutionSet = frozenset  # of SolutionMapping


def canonical_order(solutions: Iterable[SolutionMapping]) -> list[SolutionMapping]:
    """Deterministic iteration order: sorted by serialized bindings."""
    return sorted(solutions, key=lambda m: m.sort_key())


def compatible(m1: SolutionMapping, m2: SolutionMapping) -> bool:
    """True iff the two mappings agree on every shared variable."""
    if len(m1) > len(m2):
        m1, m2 = m2, m1
    for k, v in m1.bindings:
        w = m2.get(k)
        if w is not None and w != v:
            return False
    return True


def join(o1: frozenset, o2: frozenset) -> frozenset:
    return frozenset(
        m1.merged(m2) for m1 in o1 for m2 in o2 if compatible(m1, m2)
    )


def left_join(o1: frozenset, o2: frozenset) -> frozenset:
    out: set[SolutionMapping] = set()
    for m1 in o1:
        mates = [m2 for m2 in o2 if compatible(m1, m2)]
        if mates:
            out.update(m1.merged(m2) for m2 in mates)
        else:
            out.add(m1)
    return frozenset(out)


def union(o1: frozenset, o2: frozenset) -> frozenset:
    return o1 | o2


def minus(o1: frozenset, o2: frozenset) -> frozenset:
    """Left rows with no compatible right row sharing at least one key."""
    out: set[SolutionMapping] = set()
    for m1 in o1:
        keys1 = m1.keys()
        if any(compatible(m1, m2) and keys1 & m2.keys() for m2 in o2):
            continue
        out.add(m1)
    return frozenset(out)


def match_bgp(
    graph: Iterable[Triple], bgp: BGP | Iterable[TriplePattern]
) -> frozenset:
    """All mappings over the BGP's variables whose instantiation is a
    subset of the graph.

    Blank nodes in patterns act as existential variables scoped to the
    BGP: they constrain matching but are projected away.
    """
    patterns = bgp.triples if isinstance(bgp, BGP) else tuple(bgp)
    # Blank labels cannot collide with variables: ':' is not a legal
    # variable-name character.
    prepared = [
        TriplePattern(*(
            Variable(f"_:{pos.value}") if isinstance(pos, Term) and pos.is_blank else pos
            for pos in tp.positions()
        ))
        for tp in patterns
    ]
    rows: list[dict[Variable, Term]] = [{}]
    for tp in prepared:
        nxt: list[dict[Variable, Term]] = []
        for row in rows:
            for t in graph:
                extended = _match_triple(tp, t, row)
                if extended is not None:
                    nxt.append(extended)
        rows = nxt
        if not rows:
            break
    return frozenset(
        SolutionMapping.of(
            {k: v for k, v in row.items() if not k.name.startswith("_:")}
        )
        for row in rows
    )


def _match_triple(
    tp: TriplePattern, t: Triple, row: dict[Variable, Term]
) -> dict[Variable, Term] | None:
    extended = row
    for pos, datum in zip(tp.positions(), t.terms()):
        if isinstance(pos, Variable):
            bound = extended.get(pos)
            if bound is None:
                if extended is row:
                    extended = dict(row)
                extended[pos] = datum
            elif bound != datum:
                return None
        elif pos != datum:
            return None
    return extended
