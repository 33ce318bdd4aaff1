"""RDF term, triple, dataset, and Turtle-lite loader tests."""

from __future__ import annotations

import pytest

from exists_lab import (
    Dataset,
    ParseError,
    Term,
    Triple,
    blank,
    boolean,
    graph_terms,
    integer,
    iri,
    parse_data,
    serialize_dataset,
    string,
    typed_literal,
)
from exists_lab.fixtures import FIG1, dataset


class TestTermInvariants:
    def test_equality_is_structural(self):
        assert iri("urn:ex:a") == iri("urn:ex:a")
        assert iri("urn:ex:a") != iri("urn:ex:b")
        assert integer(1) == integer(1)
        assert iri("urn:ex:a") != string("urn:ex:a")

    def test_empty_iri_rejected(self):
        with pytest.raises(ValueError):
            Term("iri", "")

    def test_empty_blank_label_rejected(self):
        with pytest.raises(ValueError):
            Term("blank", "")

    def test_integer_literal_lexical_check(self):
        with pytest.raises(ValueError):
            typed_literal("abc", "http://www.w3.org/2001/XMLSchema#integer")
        assert typed_literal("-3", "http://www.w3.org/2001/XMLSchema#integer").as_int() == -3

    def test_datatype_only_on_literals(self):
        with pytest.raises(ValueError):
            Term("iri", "urn:ex:a", "urn:dt")


class TestTripleInvariants:
    def test_predicate_must_be_iri(self):
        with pytest.raises(ValueError):
            Triple(iri("urn:ex:a"), integer(1), iri("urn:ex:b"))

    def test_literal_subject_rejected(self):
        with pytest.raises(ValueError):
            Triple(string("s"), iri("urn:ex:p"), iri("urn:ex:b"))

    def test_blank_subject_allowed(self):
        t = Triple(blank("b"), iri("urn:ex:p"), boolean(True))
        assert t.s.is_blank


class TestParseData:
    def test_single_triple_with_default_prefix(self):
        ds = parse_data(":a :parent :b .")
        assert ds.default == frozenset({
            Triple(iri("urn:ex:a"), iri("urn:ex:parent"), iri("urn:ex:b"))
        })

    def test_empty_input(self):
        ds = parse_data("")
        assert ds.default == frozenset()
        assert not ds.named

    def test_fig1_has_six_triples(self):
        assert len(parse_data(FIG1).default) == 6

    def test_declared_prefix(self):
        ds = parse_data("@prefix ex: <urn:other:> .\nex:a ex:p ex:b .")
        (t,) = ds.default
        assert t.s == iri("urn:other:a")

    def test_undeclared_prefix_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_data(":a :p :b .\nfoo:a :p :b .")
        assert err.value.line == 2

    def test_non_iri_predicate_rejected(self):
        with pytest.raises(ParseError, match="non-IRI predicate"):
            parse_data(':a "p" :b .')

    def test_named_graph_block(self):
        ds = parse_data("GRAPH <urn:ex:g> { :a :p :b . :a :p :c . }\n:x :p :y .")
        assert len(ds.default) == 1
        assert len(ds.graph("urn:ex:g")) == 2
        assert ds.graph("urn:ex:missing") is None

    def test_literals_and_comments(self):
        ds = parse_data('# header\n:a :p 3 .\n:a :q "hi" .\n:a :r true .\n:a :s _:n .')
        objects = {t.o for t in ds.default}
        assert objects == {integer(3), string("hi"), boolean(True), blank("n")}

    def test_typed_literal(self):
        ds = parse_data(':a :p "x"^^<urn:dt> .')
        (t,) = ds.default
        assert t.o == typed_literal("x", "urn:dt")

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_data(":a :p\n:b")
        assert err.value.line >= 1 and err.value.column >= 1


class TestDataset:
    def test_named_graphs_are_read_only(self):
        t = Triple(iri("urn:ex:a"), iri("urn:ex:p"), iri("urn:ex:b"))
        given = {"urn:ex:g": frozenset({t})}
        for ds in (Dataset.build([], given), Dataset(frozenset(), given), dataset("fig1")):
            with pytest.raises(TypeError):
                ds.named["urn:ex:h"] = frozenset()
        # A direct construction copies the mapping it is given.
        ds = Dataset(frozenset(), given)
        given["urn:ex:h"] = frozenset()
        assert list(ds.named) == ["urn:ex:g"]

    def test_read_only_named_graphs_compare_by_value(self):
        t = Triple(iri("urn:ex:a"), iri("urn:ex:p"), iri("urn:ex:b"))
        assert Dataset.build([t], {"urn:ex:g": [t]}) == Dataset(
            frozenset({t}), {"urn:ex:g": frozenset({t})}
        )


class TestRoundTrip:
    def test_fig1_round_trip(self):
        ds = parse_data(FIG1)
        assert parse_data(serialize_dataset(ds)) == ds

    def test_named_graph_round_trip(self):
        text = 'GRAPH <urn:ex:g> { :a :p 3 . }\n:a :q "s" .\n:a :r _:b .'
        ds = parse_data(text)
        assert parse_data(serialize_dataset(ds)) == ds

    def test_serialization_is_canonical(self):
        a = parse_data(":a :p :b .\n:c :p :d .")
        b = parse_data(":c :p :d .\n:a :p :b .")
        assert serialize_dataset(a) == serialize_dataset(b)


class TestGraphTerms:
    def test_fig1_terms(self, fig1):
        names = {t.value.removeprefix("urn:ex:") for t in graph_terms(fig1.default)}
        assert names == {"a", "b", "c", "d", "j", "k", "parent", "country"}

    def test_empty_graph(self):
        assert graph_terms(()) == frozenset()

    def test_duplicate_collapse(self):
        t = Triple(iri("urn:ex:a"), iri("urn:ex:p"), iri("urn:ex:a"))
        assert graph_terms({t}) == frozenset({iri("urn:ex:a"), iri("urn:ex:p")})
