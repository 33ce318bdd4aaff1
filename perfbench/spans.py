"""An outside-in trace: spans recorded by wrapping the functions the
evaluator looks up, timed from the benchmark's side of each call.

`Tracer.install()` swaps a wrapper onto each hooked attribute; the
context manager's exit puts every original back, so untraced runs pay
nothing. A hooked name that the package no longer has is recorded in
`Tracer.missing` and its metrics are left out, never reported as zero.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from timing import clock


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    # Time spent after `end` computing the counts below. It is charged
    # to no span, so a parent's self time does not include it.
    tail: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end + s.tail))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def count_nodes(node) -> int:
    """Number of AST nodes (patterns, expressions, triple patterns)."""
    if not dataclasses.is_dataclass(node) or type(node).__name__ in ("Term", "Variable"):
        return 0
    total = 1
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, tuple):
            total += sum(count_nodes(v) for v in value)
        else:
            total += count_nodes(value)
    return total


def _triples(ds) -> int:
    return len(ds.default) + sum(len(g) for g in ds.named.values())


def _pairs(args, result) -> dict[str, float]:
    return {"pairs_in": len(args[0]) * len(args[1]), "rows_out": len(result)}


# (module, attribute, span name, counts(args, result) or None). A class
# attribute is written "Class.method". Spans of one name from several
# call sites are added together. A function is hooked where its callers
# import it, never in its own module: a recursive function calls itself
# through its own module's attribute, and would open a span per level.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("exists_lab.turtle", "parse_data", "turtle.parse_data",
     lambda a, r: {"triples_out": _triples(r)}),
    ("exists_lab.parser", "parse_query", "parser.parse_query",
     lambda a, r: {"chars_in": len(a[0])}),
    ("exists_lab.evaluate", "expand_all_stars", "scope.expand_all_stars", None),
    ("exists_lab.binding", "expand_all_stars", "scope.expand_all_stars", None),
    ("exists_lab.normalize", "expand_all_stars", "scope.expand_all_stars", None),
    ("exists_lab.binding", "normalize", "normalize.normalize",
     lambda a, r: {"nodes_out": count_nodes(r.node)}),
    ("exists_lab.evaluate", "bind", "binding.bind",
     lambda a, r: {"nodes_out": count_nodes(r)}),
    ("exists_lab.binding", "mapping_substitute", "binding.mapping_substitute", None),
    ("exists_lab.evaluate", "match_bgp", "algebra.match_bgp",
     lambda a, r: {"rows_out": len(r), "graph_triples_in": len(a[0])}),
    ("exists_lab.evaluate", "join", "algebra.join", _pairs),
    ("exists_lab.evaluate", "left_join", "algebra.left_join", _pairs),
    ("exists_lab.evaluate", "minus", "algebra.minus", _pairs),
    ("exists_lab.evaluate", "Evaluator.solutions", "evaluate.solutions", None),
    # Positional (self, pattern, mu, graph); the result is a bool.
    ("exists_lab.evaluate", "Evaluator._exists", "evaluate.exists",
     lambda a, r: {"true": 1 if r else 0}),
)

# The per-layer metrics each span name yields, beyond calls and self_s.
# A ratio is (numerator, denominator) over summed counts.
COUNTS = {
    "turtle.parse_data": ("triples_out",),
    "parser.parse_query": ("chars_in",),
    "scope.expand_all_stars": (),
    "normalize.normalize": ("nodes_out",),
    "binding.bind": ("nodes_out",),
    "binding.mapping_substitute": (),
    "algebra.match_bgp": ("rows_out", "graph_triples_in"),
    "algebra.join": ("pairs_in", "rows_out"),
    "algebra.left_join": ("pairs_in", "rows_out"),
    "algebra.minus": ("pairs_in", "rows_out"),
    "evaluate.solutions": (),
    "evaluate.exists": (),
}
RATIOS = {
    "algebra.join": {"yield": ("rows_out", "pairs_in")},
    "algebra.left_join": {"yield": ("rows_out", "pairs_in")},
    "algebra.minus": {"yield": ("rows_out", "pairs_in")},
    "evaluate.exists": {"true_ratio": ("true", "calls")},
}


def _resolve(module: str, attr: str):
    """(owner, name, function) for a hook target, or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    # A method is read from the class dict, so that what is put back is
    # the plain function, not a bound method.
    fn = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else None


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
                span.tail = clock() - span.end
            return result

        return traced

    @contextmanager
    def install(self):
        """Wrap every hook that resolves; restore all of them on exit."""
        saved = []
        self.missing = []
        try:
            for module, attr, name, counts in self.hooks:
                target = _resolve(module, attr)
                if target is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                owner, key, original = target
                saved.append((owner, key, original))
                setattr(owner, key, self._wrap(original, name, counts))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def names(self) -> set[str]:
        """Span names with at least one hook that resolved."""
        gone = set(self.missing)
        return {n for m, a, n, _ in self.hooks if f"{m}.{a}" not in gone}


def layer_metrics(spans: list[Span], names: set[str], scales: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics for the span names in `names`.

    `scales[i]` converts span i's raw seconds to reference-speed seconds.
    """
    totals = {n: defaultdict(float) for n in names}
    if scales is None:
        scales = [1.0] * len(spans)
    for span, own, scale in zip(spans, self_times(spans), scales):
        t = totals.get(span.name)
        if t is None:
            continue
        t["calls"] += 1
        t["self_s"] += own * scale
        for key, v in span.counts.items():
            t[key] += v
    out: dict[str, float] = {}
    for n in sorted(names):
        t = totals[n]
        out[f"{n}.calls"] = int(t["calls"])
        out[f"{n}.self_s"] = t["self_s"]
        for c in COUNTS[n]:
            out[f"{n}.{c}"] = int(t[c])
        for label, (num, den) in RATIOS.get(n, {}).items():
            out[f"{n}.{label}"] = t[num] / t[den] if t[den] else 0.0
    return out
