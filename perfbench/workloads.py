"""Input generators and hand-derived answers for the three workloads.

Everything here is plain text and plain Python values; nothing imports
the package under test, so a change to the program cannot silently
change a workload. Each generator takes the seed as an argument and the
same seed always yields the same inputs.

An answer is a frozenset of rows, a row being a tuple of
(variable name, term kind, term value, datatype or "") sorted by name,
so it can be compared with the evaluator's output without building
program objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NS = "urn:ex:"
SEMANTICS = ("s1", "s2", "s3")

# -- chain -------------------------------------------------------------

# People in a `:parent` chain. The first four are fig1's :a :b :c :d so
# the constants in the fixture queries (:c, :d) occur in the data.
CHAIN_PEOPLE = 60

# Fixture queries 1-8 of the paper, verbatim. Fixture 9 is left out: its
# doubly nested EXISTS is cubic in the chain length.
CHAIN_QUERIES = {
    1: """SELECT ?parent
WHERE { ?parent :country :j
        FILTER ( EXISTS { ?child :parent ?parent })}""",
    2: """SELECT ?parent
WHERE { ?parent :country :j
        FILTER ( EXISTS { SELECT ?child
                          WHERE { ?child :parent ?parent }})}""",
    3: """SELECT ?parent
WHERE { ?parent :country :j
        FILTER ( EXISTS { SELECT ?child
                          WHERE { ?child :parent ?chparent
                                  FILTER (?chparent = ?parent) }})}""",
    4: """SELECT ?parent
WHERE { ?parent :country :j
        FILTER ( EXISTS { SELECT ?child
                          WHERE { ?child :parent ?chparent
                                  FILTER (bound(?parent)) }})}""",
    5: """SELECT ?parent
WHERE { ?parent :country :j
        FILTER ( EXISTS { SELECT ?child
                          WHERE { ?child :parent ?chparent
                                  FILTER (?chparent = ?parent &&
                                          bound(?parent)) }})}""",
    6: """SELECT ?parent
WHERE { ?parent :country :j
        FILTER ( EXISTS { SELECT ?child ?chparent
                          WHERE { ?child :parent ?chparent
                                  FILTER (?parent = 1 ||
                                          ?parent != 1 )}})}""",
    7: """SELECT ?parent
WHERE { ?parent :country :j
        FILTER ( EXISTS { SELECT *
                          WHERE { ?child :parent ?chparent
                                  FILTER (?parent = 1 ||
                                          ?parent != 1 )}})}""",
    8: """SELECT ?parent
WHERE { ?parent :country :j
        FILTER ( EXISTS { SELECT ?child
                          WHERE { ?child :parent ?parent
                                  FILTER (?parent = :c)}})}""",
}


def chain_people(n: int = CHAIN_PEOPLE) -> list[str]:
    return ["a", "b", "c", "d"] + [f"p{i}" for i in range(4, n)]


def chain_data(seed: int, n: int = CHAIN_PEOPLE) -> str:
    """Person i `:parent` person i+1; `:country` alternates :j, :k from :a.

    The seed only shuffles the order of the lines; the graph is the same.
    """
    people = chain_people(n)
    lines = [f":{x} :parent :{y} ." for x, y in zip(people, people[1:])]
    lines += [f":{x} :country :{'jk'[i % 2]} ." for i, x in enumerate(people)]
    random.Random(seed).shuffle(lines)
    return "\n".join(lines) + "\n"


def iri_rows(var: str, names) -> frozenset:
    """Rows binding `var` alone, to each IRI :name in turn."""
    return frozenset(((var, "iri", NS + x, ""),) for x in names)


def _parents(names) -> frozenset:
    return iri_rows("parent", names)


def chain_expected(n: int = CHAIN_PEOPLE) -> dict[tuple[int, str], frozenset]:
    """Answers of fixture queries 1-8 on the chain, derived by hand.

    The outer pattern keeps the people with country :j, the even
    positions J. E is J without :a, the people that have a child.
    S1 never substitutes into a sub-select, so a filter on the hidden
    ?parent is an error there (queries 3-7 give nothing). S2
    substitutes the filter occurrences. S3 also links the hidden
    ?parent of a BGP (queries 2 and 8).
    """
    people = chain_people(n)
    j = _parents(people[0::2])
    e = _parents(people[2::2])
    none = frozenset()
    table = {
        1: (e, e, e),
        2: (j, j, e),
        3: (none, e, e),
        4: (none, j, j),
        5: (none, e, e),
        6: (none, j, j),
        7: (none, j, j),
        8: (j, j, _parents(["c"])),
    }
    return {
        (q, s): answers[i]
        for q, answers in table.items()
        for i, s in enumerate(SEMANTICS)
    }


# -- deep_exists -------------------------------------------------------

DEEP_MAX_DEPTH = 4

FIG1 = """\
:a :parent :b .
:b :parent :c .
:c :parent :d .
:a :country :j .
:b :country :j .
:c :country :k .
"""


def deep_query(depth: int) -> str:
    """Fixture 2's shape nested `depth` deep; depth 1 is fixture 2."""
    if depth < 1:
        raise ValueError("depth must be at least 1")

    def block(i: int) -> str:
        bgp = f"?v{i} :parent ?v{i - 1}"
        if i == depth:
            return bgp
        return f"{bgp} FILTER EXISTS {{ SELECT ?v{i + 1} WHERE {{ {block(i + 1)} }} }}"

    return f"SELECT ?v0 WHERE {{ ?v0 :country :j FILTER EXISTS {{ SELECT ?v1 WHERE {{ {block(1)} }} }} }}"


def deep_expected(depth: int, semantics: str) -> frozenset:
    """S1 and S2 never link the hidden ?v(i-1) of a sub-select, so each
    level only asks for some :parent triple: {a, b} at every depth. S3
    links it, so ?v0 needs a chain ?vd :parent ... :parent ?v0 of length
    d. In fig1 only :b has such a chain, of length 1.
    """
    if semantics != "s3":
        return iri_rows("v0", ["a", "b"])
    return iri_rows("v0", ["b"]) if depth == 1 else frozenset()


# -- random_mix --------------------------------------------------------

VARS = ("a", "b", "c", "x", "y", "z")
NODES = tuple(f":t{i}" for i in range(5))
PREDICATES = (":p", ":q", ":r")
INTS = ("0", "1", "2")
GRAPHS = (":g1", ":g2")
MAX_TRIPLES = 20


@dataclass(frozen=True)
class MixItem:
    data: str
    query: str
    # True when no EXISTS occurs, so S1, S2 and S3 must agree.
    exists_free: bool


def mix_items(seed: int, start: int, count: int) -> list[MixItem]:
    """Items start..start+count-1 of the seed's stream.

    Each item has its own random generator, so an item does not depend
    on how many were drawn before it.
    """
    return [_mix_item(random.Random(f"{seed}:{i}")) for i in range(start, start + count)]


def _mix_item(rng: random.Random) -> MixItem:
    gen = _QueryGen(rng)
    query = gen.query()
    return MixItem(_mix_data(rng), query, not gen.used_exists)


def _mix_data(rng: random.Random) -> str:
    def triple() -> str:
        return f"{rng.choice(NODES)} {rng.choice(PREDICATES)} {rng.choice(NODES + INTS)} ."

    graphs = [g for g in GRAPHS if rng.random() < 0.7]
    default = rng.randint(6, MAX_TRIPLES - 4 * len(graphs))
    lines = [triple() for _ in range(default)]
    for g in graphs:
        lines.append(f"GRAPH {g} {{ " + " ".join(triple() for _ in range(rng.randint(1, 4))) + " }")
    return "\n".join(lines) + "\n"


class _QueryGen:
    """Random queries over MINUS, OPTIONAL, UNION, GRAPH, BIND, VALUES,
    sub-select, FILTER and (NOT) EXISTS. Sizes are capped so that no
    item is much dearer than the rest: one item must not dominate a run.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used_exists = False
        self.bind_targets = 0

    def query(self) -> str:
        extra = []
        if self.rng.random() < 0.35:
            extra.append(f"FILTER ({self.exists(1)})")
        group = self.group(2, exists_budget=1, extra=extra)
        return f"SELECT {self.projection()} WHERE {group}"

    def projection(self) -> str:
        if self.rng.random() < 0.25:
            return "*"
        return " ".join(f"?{v}" for v in self.rng.sample(VARS, self.rng.randint(1, 3)))

    def term(self, kind: str) -> str:
        r = self.rng.random()
        if r < 0.6:
            return f"?{self.rng.choice(VARS)}"
        if kind == "p":
            return self.rng.choice(PREDICATES)
        if kind == "o" and r < 0.65:
            return self.rng.choice(INTS)
        return self.rng.choice(NODES)

    def triples(self) -> str:
        s, o = self.term("s"), self.term("o")
        first = f"{s} {self.term('p')} {o}"
        if self.rng.random() < 0.5:
            return first
        # A second triple shares a variable with the first when it can,
        # so that no item is a large cross product.
        link = o if o.startswith("?") else s
        return f"{first} . {link} {self.term('p')} {self.term('o')}"

    def group(self, depth: int, exists_budget: int, extra: list[str] = ()) -> str:
        if depth > 0 and not extra and self.rng.random() < 0.15:
            inner = self.group(depth - 1, exists_budget)
            return f"{{ SELECT {self.projection()} WHERE {inner} }}"
        members = [self.triples()]
        for _ in range(self.rng.randint(0, 2) if depth > 0 else 0):
            members.append(self.member(depth - 1, exists_budget))
        return "{ " + " ".join(members + list(extra)) + " }"

    def member(self, depth: int, exists_budget: int) -> str:
        kind = self.rng.choice(
            ("union", "optional", "minus", "graph", "bind", "values", "filter", "subselect")
        )
        if kind == "union":
            return f"{self.group(depth, exists_budget)} UNION {self.group(depth, exists_budget)}"
        if kind == "optional":
            return f"OPTIONAL {self.group(depth, exists_budget)}"
        if kind == "minus":
            return f"MINUS {self.group(depth, exists_budget)}"
        if kind == "graph":
            name = self.rng.choice((f"?{self.rng.choice(VARS)}",) + GRAPHS)
            return f"GRAPH {name} {self.group(depth, exists_budget)}"
        if kind == "bind":
            # Targets are fresh names, so a target is never already in scope.
            self.bind_targets += 1
            return f"BIND ({self.expr(1, 0)} AS ?w{self.bind_targets})"
        if kind == "values":
            header = self.rng.sample(VARS, self.rng.randint(1, 2))
            rows = " ".join(
                "(" + " ".join(
                    self.rng.choice(NODES) if self.rng.random() < 0.8 else "UNDEF"
                    for _ in header
                ) + ")"
                for _ in range(self.rng.randint(1, 2))
            )
            return f"VALUES ({' '.join('?' + v for v in header)}) {{ {rows} }}"
        if kind == "filter":
            return f"FILTER ({self.expr(2, exists_budget)})"
        return "{ SELECT " + self.projection() + " WHERE " + self.group(depth, exists_budget) + " }"

    def expr(self, depth: int, exists_budget: int) -> str:
        r = self.rng.random()
        if depth <= 0 or r < 0.4:
            leaf = self.rng.random()
            if exists_budget > 0 and leaf < 0.35:
                return self.exists(exists_budget)
            if leaf < 0.5:
                return f"bound(?{self.rng.choice(VARS)})"
            op = self.rng.choice(("=", "!=", "<", "<=", ">", ">="))
            return f"{self.operand()} {op} {self.operand()}"
        if r < 0.6:
            return f"({self.expr(depth - 1, exists_budget)} && {self.expr(depth - 1, exists_budget)})"
        if r < 0.8:
            return f"({self.expr(depth - 1, exists_budget)} || {self.expr(depth - 1, exists_budget)})"
        return f"!({self.expr(depth - 1, exists_budget)})"

    def exists(self, budget: int) -> str:
        self.used_exists = True
        neg = "NOT " if self.rng.random() < 0.3 else ""
        return f"{neg}EXISTS {self.group(0, budget - 1)}"

    def operand(self) -> str:
        r = self.rng.random()
        if r < 0.5:
            return f"?{self.rng.choice(VARS)}"
        if r < 0.65:
            return f"?{self.rng.choice(VARS)} + {self.rng.choice(INTS)}"
        if r < 0.85:
            return self.rng.choice(NODES)
        return self.rng.choice(INTS)
