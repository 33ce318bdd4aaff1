"""Solution mappings and the set-semantics pattern algebra."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .syntax import BGP, TriplePattern, Variable
from .terms import Graph, Term, Triple


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


def left_join(
    o1: frozenset,
    o2: frozenset,
    condition: Callable[[SolutionMapping], bool] | None = None,
) -> frozenset:
    """Each left row merged with every compatible right row, or kept
    alone when it has none.

    With a `condition`, a merged row counts only when the condition
    holds on it; OPTIONAL's inline filter is such a condition.
    """
    out: set[SolutionMapping] = set()
    for m1 in o1:
        mates = [m1.merged(m2) for m2 in o2 if compatible(m1, m2)]
        if condition is not None:
            mates = [m for m in mates if condition(m)]
        if mates:
            out.update(mates)
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
    subset of the graph: the set of what `iter_bgp` yields."""
    return frozenset(iter_bgp(graph, bgp))


def iter_bgp(
    graph: Iterable[Triple],
    bgp: BGP | Iterable[TriplePattern],
    seed: SolutionMapping = EMPTY_MAPPING,
) -> Iterator[SolutionMapping]:
    """Yield the BGP's matches that are compatible with `seed`, one at
    a time, depth first.

    The match starts from `seed`: each seeded variable of the BGP is
    bound before any triple is read, and seed variables the BGP lacks
    are ignored. Triple patterns are taken greedily, most bound
    positions first, counting constants, seeded variables and variables
    bound by the patterns taken before; ties keep BGP order. Over a
    `Graph`, each pattern reads the shortest lookup list among its bound
    positions, and the whole graph only when none is bound. Any other
    collection is scanned whole for every pattern, in its own order.

    The search keeps an explicit stack with one iterator per triple
    pattern it has bound so far, so it uses no recursion however long
    the BGP is, and a caller that stops after the first match reads no
    further. `graph` is read once per partial match, so it must be a
    collection, not a one-shot iterator.

    Blank nodes in patterns act as existential variables scoped to the
    BGP: they constrain matching but are projected away, so the same
    mapping can be yielded more than once.
    """
    patterns = bgp.triples if isinstance(bgp, BGP) else tuple(bgp)
    if not patterns:
        yield EMPTY_MAPPING
        return
    # Partial matches are keyed by variable name, whose hash is cached.
    # A blank node is keyed as "_:label", which cannot collide with a
    # variable name (':' is not a legal variable-name character).
    compiled = []
    variables: dict[str, Variable] = {}
    for tp in patterns:
        consts, names = [], []
        for i, pos in enumerate(tp.positions()):
            if isinstance(pos, Variable):
                names.append((i, pos.name))
                variables.setdefault(pos.name, pos)
            elif pos.is_blank:
                names.append((i, f"_:{pos.value}"))
            else:
                consts.append((i, pos))
        compiled.append((tuple(consts), tuple(names)))
    start = {k.name: v for k, v in seed.bindings if k.name in variables}
    output = sorted(variables.items())
    indexed = isinstance(graph, Graph)
    # steps[d] is the d-th pattern taken: its constants and names, the
    # positions whose name is bound before it, and the shortest lookup
    # list of its constants (None when it has none or `graph` is not
    # indexed).
    steps = []
    bound = set(start)
    for k in _greedy_order(compiled, bound):
        consts, names = compiled[k]
        probes = tuple((i, name) for i, name in names if name in bound)
        bound.update(name for _, name in names)
        shortest = None
        if indexed:
            for i, term in consts:
                found = graph.lookup(i, term)
                if shortest is None or len(found) < len(shortest):
                    shortest = found
        steps.append(((consts, names), probes, shortest))

    def candidates(depth: int, row: dict[str, Term]) -> Iterable[Triple]:
        if not indexed:
            return graph
        _, probes, shortest = steps[depth]
        for i, name in probes:
            found = graph.lookup(i, row[name])
            if shortest is None or len(found) < len(shortest):
                shortest = found
        return graph.triples if shortest is None else shortest

    last = len(steps) - 1
    # rows[d] is the partial match that steps[d] extends; scans[d] is
    # where the read of its candidate triples resumes.
    rows: list[dict[str, Term]] = [start]
    scans = [iter(candidates(0, start))]
    while scans:
        depth = len(scans) - 1
        tp, row = steps[depth][0], rows[depth]
        for t in scans[depth]:
            extended = _match_triple(tp, t, row)
            if extended is not None:
                break
        else:
            scans.pop()
            rows.pop()
            continue
        if depth == last:
            yield SolutionMapping(tuple((var, extended[name]) for name, var in output))
        else:
            rows.append(extended)
            scans.append(iter(candidates(depth + 1, extended)))


def _greedy_order(
    compiled: list[tuple[tuple[tuple[int, Term], ...], tuple[tuple[int, str], ...]]],
    bound: set[str],
) -> list[int]:
    """Pattern indices, each time the first one with the most bound
    positions, given the names in `bound` and those of the patterns
    taken before it."""
    if len(compiled) == 1:
        return [0]
    # users[name]: the patterns holding the unbound `name`, once per
    # position; binding it adds one to each of their counts.
    users: dict[str, list[int]] = {}
    counts = []
    for k, (consts, names) in enumerate(compiled):
        count = len(consts)
        for _, name in names:
            if name in bound:
                count += 1
            elif name in users:
                users[name].append(k)
            else:
                users[name] = [k]
        counts.append(count)
    remaining = list(range(len(compiled)))
    order = []
    while remaining:
        k = max(remaining, key=counts.__getitem__)
        remaining.remove(k)
        order.append(k)
        for _, name in compiled[k][1]:
            for j in users.pop(name, ()):
                counts[j] += 1
    return order


def _match_triple(
    tp: tuple[tuple[tuple[int, Term], ...], tuple[tuple[int, str], ...]],
    t: Triple,
    row: dict[str, Term],
) -> dict[str, Term] | None:
    """`row` extended to match `t`, or None; `row` itself is not changed."""
    consts, names = tp
    terms = t.terms()
    for i, term in consts:
        if terms[i] != term:
            return None
    extended = row
    for i, name in names:
        datum = terms[i]
        bound = extended.get(name)
        if bound is None:
            if extended is row:
                extended = dict(row)
            extended[name] = datum
        elif bound != datum:
            return None
    return extended
