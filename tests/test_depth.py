"""Depth pins: long groups and deep EXISTS nesting that the recursive
walkers must handle at Python's default recursion limit.

Each walker costs stack frames per AST level, so a walker that adds a
frame per level (a lambda or a generator around each recursive call)
lowers these limits and fails here.
"""

from __future__ import annotations

import pytest

from exists_lab import (
    Evaluator,
    Semantics,
    SolutionMapping,
    Variable,
    alpha_equivalent,
    bind,
    iri,
    normalization_violations,
    normalize,
    parse_data,
    parse_query,
    serialize,
)

DATA = parse_data(":a :p :a . :a :q :a .")
A = iri("urn:ex:a")


def long_group(members: int) -> str:
    """One group of alternating OPTIONAL and BIND members plus a
    FILTER EXISTS, which fold into one left-deep spine."""
    parts = [
        f"OPTIONAL {{ ?x :q ?o{i} }}" if i % 2 == 0 else f"BIND (?x AS ?b{i})"
        for i in range(members)
    ]
    return f"SELECT * WHERE {{ ?x :p ?y {' '.join(parts)} FILTER EXISTS {{ ?x :p ?y }} }}"


def nested_exists(depth: int) -> str:
    """`FILTER EXISTS` nested `depth` deep along a `:p` chain."""
    body = f"?v{depth} :p ?v{depth + 1}"
    for i in range(depth - 1, -1, -1):
        body = f"?v{i} :p ?v{i + 1} FILTER EXISTS {{ {body} }}"
    return f"SELECT * WHERE {{ {body} }}"


@pytest.mark.parametrize("sem", list(Semantics), ids=lambda s: s.name)
def test_a_400_member_group(sem):
    query = parse_query(long_group(400))
    (row,) = Evaluator(DATA, sem).solutions(query)
    assert len(row) == 402
    n = normalize(query.pattern, sem)
    assert normalization_violations(n, query.pattern, sem) == []
    assert alpha_equivalent(n, n)
    mu = SolutionMapping.of({Variable("x"): A})
    assert serialize(bind(query.pattern, mu, sem)).count("OPTIONAL") == 200


@pytest.mark.parametrize(
    "sem, depth", [(Semantics.S3, 22), (Semantics.S1, 180)], ids=["S3-22", "S1-180"]
)
def test_deeply_nested_exists(sem, depth):
    query = parse_query(nested_exists(depth))
    solutions = Evaluator(DATA, sem).solutions(query)
    assert solutions == frozenset(
        {SolutionMapping.of({Variable("v0"): A, Variable("v1"): A})}
    )
    n = normalize(query.pattern, sem)
    assert normalization_violations(n, query.pattern, sem) == []
