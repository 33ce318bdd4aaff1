"""RDF terms, triples, and datasets.

The literal model is deliberately small: plain strings, integers, and
booleans. Everything is immutable after construction so datasets can be
shared freely between concurrent query evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

_KIND_ORDER = {IRI: 0, LITERAL: 1, BLANK: 2}


@dataclass(frozen=True)
class Term:
    """An RDF term: IRI, literal (plain or typed), or blank node.

    `value` is the IRI string, the literal's lexical form, or the blank
    node label. `datatype` is set only on typed literals.
    """

    kind: str
    value: str
    datatype: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown term kind: {self.kind!r}")
        if not self.value and self.kind != LITERAL:
            raise ValueError(f"{self.kind} term requires a non-empty value")
        if self.datatype is not None and self.kind != LITERAL:
            raise ValueError("only literals carry a datatype")
        if self.datatype == XSD_INTEGER:
            try:
                int(self.value)
            except ValueError:
                raise ValueError(
                    f"integer literal with non-integer lexical value: {self.value!r}"
                ) from None
        if self.datatype == XSD_BOOLEAN and self.value not in ("true", "false"):
            raise ValueError(f"boolean literal must be true/false, got {self.value!r}")

    @property
    def is_iri(self) -> bool:
        return self.kind == IRI

    @property
    def is_literal(self) -> bool:
        return self.kind == LITERAL

    @property
    def is_blank(self) -> bool:
        return self.kind == BLANK

    def as_int(self) -> int:
        if self.datatype != XSD_INTEGER:
            raise ValueError(f"not an integer literal: {self!r}")
        return int(self.value)

    def as_bool(self) -> bool:
        if self.datatype != XSD_BOOLEAN:
            raise ValueError(f"not a boolean literal: {self!r}")
        return self.value == "true"

    def sort_key(self) -> tuple:
        # Integers sort numerically so canonical output is stable under
        # lexical variants like "01".
        if self.datatype == XSD_INTEGER:
            return (_KIND_ORDER[self.kind], self.datatype, 0, int(self.value))
        return (_KIND_ORDER[self.kind], self.datatype or "", 1, self.value)


def iri(value: str) -> Term:
    return Term(IRI, value)


def blank(label: str) -> Term:
    return Term(BLANK, label)


def string(value: str) -> Term:
    return Term(LITERAL, value)


def integer(value: int) -> Term:
    return Term(LITERAL, str(int(value)), XSD_INTEGER)


def boolean(value: bool) -> Term:
    return Term(LITERAL, "true" if value else "false", XSD_BOOLEAN)


def typed_literal(lexical: str, datatype: str) -> Term:
    return Term(LITERAL, lexical, datatype)


@dataclass(frozen=True)
class Triple:
    """A data triple. The predicate must be an IRI; no variables allowed."""

    s: Term
    p: Term
    o: Term

    def __post_init__(self) -> None:
        for t in (self.s, self.p, self.o):
            if not isinstance(t, Term):
                raise TypeError(f"data triples hold terms only, got {t!r}")
        if not self.p.is_iri:
            raise ValueError(f"triple predicate must be an IRI, got {self.p!r}")
        if self.s.is_literal:
            raise ValueError("triple subject cannot be a literal")

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.s, self.p, self.o)


@dataclass(frozen=True)
class Dataset:
    """A default graph plus zero or more named graphs, all duplicate-free.

    `named` is a read-only copy of the mapping it is given, so a dataset
    stays immutable when it is shared.
    """

    default: frozenset[Triple] = field(default_factory=frozenset)
    named: Mapping[str, frozenset[Triple]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "named", MappingProxyType(dict(self.named)))

    @classmethod
    def build(
        cls,
        default: Iterable[Triple] = (),
        named: Mapping[str, Iterable[Triple]] | None = None,
    ) -> "Dataset":
        return cls(
            frozenset(default),
            {name: frozenset(ts) for name, ts in (named or {}).items()},
        )

    def graph(self, name: str) -> frozenset[Triple] | None:
        """The named graph for `name`, or None when undeclared."""
        return self.named.get(name)


def graph_terms(triples: Iterable[Triple]) -> frozenset[Term]:
    """All terms occurring in any position of the given triples."""
    out: set[Term] = set()
    for t in triples:
        out.update(t.terms())
    return frozenset(out)
