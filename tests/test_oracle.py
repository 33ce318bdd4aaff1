"""`Evaluator` against the independent oracle in `oracle.py`.

The differentials in `test_exists_memo.py` and `test_seeded.py` compare
two paths through one evaluator, so a fault in the row source, the
graph index or seeding would show on both sides. The oracle shares none
of that code: it evaluates whole sets bottom-up, scans the graph, and
decides each EXISTS by evaluating `bind` whole.
"""

from __future__ import annotations

import random

import pytest

from exists_lab import (
    Evaluator,
    Exists,
    FilterNode,
    NotExists,
    Semantics,
    expand_all_stars,
    parse_query,
)
from exists_lab.fixtures import FIXTURES, dataset

from gen import random_expression, random_graph, random_pattern, random_wide_pattern
from oracle import Oracle
from test_exists_memo import deep_query

# S1 and S2 do not read S3's sub-select links.
SETTINGS = [(Semantics.S1, True), (Semantics.S2, True), (Semantics.S3, True), (Semantics.S3, False)]
IDS = ["S1", "S2", "S3", "S3-no-links"]
CASES = 2000


def oracle_case(seed: int):
    """`test_exists_memo.generated_case` on a dataset of at most 10
    default triples instead of 20: a small pattern under a FILTER (NOT)
    EXISTS whose body filters on a random expression that may itself
    hold EXISTS. Tiny graphs keep the oracle's scans and per-row `bind`
    cheap, so that many cases fit in the test's time."""
    rng = random.Random(seed)
    ds = random_graph(rng, max_triples=10, named=True)
    make = random_pattern if seed % 2 else random_wide_pattern
    outer = make(rng, 2)
    body = FilterNode(make(rng, 1), random_expression(rng, exists=True))
    return ds, FilterNode(outer, rng.choice((Exists, NotExists))(body))


@pytest.fixture(scope="module")
def cases():
    return [oracle_case(seed) for seed in range(CASES)]


@pytest.mark.parametrize("sem, links", SETTINGS, ids=IDS)
def test_the_evaluator_agrees_with_the_oracle_on_generated_cases(cases, sem, links):
    nonempty = 0
    for seed, (ds, pattern) in enumerate(cases):
        expected = Oracle(ds, sem, s3_subselect_links=links).solutions(pattern)
        got = Evaluator(ds, sem, s3_subselect_links=links).solutions(pattern)
        assert got == expected, seed
        nonempty += bool(expected)
    # Most answers are empty, which agrees too easily; enough must not be.
    assert nonempty >= 150


@pytest.mark.parametrize("sem, links", SETTINGS, ids=IDS)
def test_the_evaluator_agrees_with_the_oracle_on_deeper_patterns(sem, links):
    rng = random.Random(12)
    for case in range(300):
        ds = random_graph(rng, max_triples=12, named=True)
        pattern = (random_pattern if case % 2 else random_wide_pattern)(rng, 3)
        expected = Oracle(ds, sem, s3_subselect_links=links).solutions(pattern)
        assert Evaluator(ds, sem, s3_subselect_links=links).solutions(pattern) == expected, case


def test_the_oracle_reproduces_the_paper_table():
    for f in FIXTURES:
        query = parse_query(f.query)
        for sem in Semantics:
            assert Oracle(dataset(f.dataset_id), sem).solutions(query) == f.expected[sem]


@pytest.mark.parametrize("depth", range(1, 5))
def test_the_evaluator_agrees_with_the_oracle_on_nested_fixture_2(depth):
    ds = dataset("fig1")
    query = expand_all_stars(parse_query(deep_query(depth)))
    for sem, links in SETTINGS:
        expected = Oracle(ds, sem, s3_subselect_links=links).solutions(query)
        assert Evaluator(ds, sem, s3_subselect_links=links).solutions(query) == expected
