"""The exists-lab benchmark: three workloads, each run in a closed loop.

    python3 perfbench/run.py --workload chain --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30     # all workloads, one process each

One op is one parsed, star-expanded query evaluated under one semantics
to its solution set, `Evaluator(ds, s).solutions(q)`. One client runs
ops back to back in one thread of one process (a closed loop), so a
slower program simply completes fewer ops. Each op has a deadline;
an exception (RecursionError included), a wrong answer or a deadline
counts as a failed op, and the run still finishes.

Workloads (inputs are generated in workloads.py from --seed):
  chain        fixture queries 1-8 under S1/S2/S3 on a 60-person
               `:parent` chain (119 triples): one dataset read many
               times; the time goes to BGP matching.
  deep_exists  fixture 2's shape nested 1..4 deep on fig1 (6 triples)
               under S1/S2/S3; the time goes to normalize and bind.
  random_mix   random small datasets and queries over the whole
               fragment, each parsed once and evaluated under S1/S2/S3:
               no reuse, the time goes to parsing and small-set algebra.

Before any timing the paper-table gate must pass (30/30), or no numbers
are reported. Then one warm-up pass, then the timed loop. Op and set-up
times are scaled by an adjacent calibration loop (see timing.py).

With --trace 0 the last line of standard output is
  {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics ops_per_s, latency_p50_ms, latency_p90_ms,
setup_s and peak_rss_mb. failed_ratio is printed in the report above it
and carried by "failed"/"attempted". With --trace 1 a separate fixed
amount of work is run alternately untraced and traced (spans.py), and
the metrics are the per-layer ones and trace.overhead_ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import digests
import timing
import spans
import workloads as W
from timing import clock

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chain", "deep_exists", "random_mix")

# Each timed run times at least this many ops, so that at least ten lie
# beyond the reported p90.
MIN_OPS = 100
# No op starts this long after the run started, whatever the run
# length, so the process ends within its time limit even when ops fail.
STOP_AFTER_S = 150.0
# A workload that sets up once still times its set-up this many times,
# and for at least SETUP_MIN_S in all, and reports the median.
SETUP_REPEATS = 15
SETUP_MIN_S = 0.3
# Traced runs: this many untraced and traced units, alternating.
TRACE_REPEATS = 2


def load_program():
    """Import exists_lab from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "exists_lab" / "__init__.py").is_file():
        print(f"error: no exists_lab package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import exists_lab

    if Path(exists_lab.__file__).resolve().parent != src / "exists_lab":
        print(f"error: imported {exists_lab.__file__}, not the checkout's", file=sys.stderr)
        sys.exit(2)
    return exists_lab


# -- ops and workloads ---------------------------------------------------


@dataclass
class Op:
    label: str
    dataset: object
    query: object
    semantics: object
    # Hand-derived rows, a recorded digest, or None when unchecked.
    expected: frozenset | str | None
    # Ops sharing a group must give equal answers (S1 = S2 = S3 on a
    # query without EXISTS).
    group: int | None = None


class Workload:
    name: str
    # Seconds one op may take before it counts as failed.
    op_deadline_s: float
    # True: set up once and run every pass on the same dataset and queries.
    # False: every round sets up fresh inputs.
    reuse: bool
    # Rounds in one unit of traced work.
    trace_rounds: int

    def __init__(self, pkg, seed: int) -> None:
        self.seed = seed
        self.turtle = importlib.import_module("exists_lab.turtle")
        self.parser = importlib.import_module("exists_lab.parser")
        self.scope = importlib.import_module("exists_lab.scope")
        self.semantics = {s: pkg.Semantics(s) for s in W.SEMANTICS}

    def parse(self, text: str):
        # Attribute lookups at call time, so traced runs see the wrappers.
        return self.scope.expand_all_stars(self.parser.parse_query(text))

    def inputs(self, round_: int):
        """The text the round's set-up parses (not timed)."""
        raise NotImplementedError

    def setup(self, inputs) -> list[Op]:
        """Parse the data and queries: the timed set-up."""
        raise NotImplementedError

    def order(self, ops: list[Op], round_: int) -> list[Op]:
        return ops


class Chain(Workload):
    name = "chain"
    op_deadline_s = 5.0
    reuse = True
    trace_rounds = 1

    def inputs(self, round_):
        return W.chain_data(self.seed)

    def setup(self, data):
        ds = self.turtle.parse_data(data)
        expected = W.chain_expected()
        return [
            Op(f"q{n}/{s}", ds, query, self.semantics[s], expected[n, s])
            for n, query in ((n, self.parse(t)) for n, t in W.CHAIN_QUERIES.items())
            for s in W.SEMANTICS
        ]

    def order(self, ops, round_):
        ops = list(ops)
        random.Random(f"{self.seed}:{round_}").shuffle(ops)
        return ops


class DeepExists(Chain):
    name = "deep_exists"
    trace_rounds = 4

    def inputs(self, round_):
        return W.FIG1

    def setup(self, data):
        ds = self.turtle.parse_data(data)
        return [
            Op(f"d{d}/{s}", ds, query, self.semantics[s], W.deep_expected(d, s))
            for d, query in ((d, self.parse(W.deep_query(d))) for d in range(1, W.DEEP_MAX_DEPTH + 1))
            for s in W.SEMANTICS
        ]


class RandomMix(Workload):
    name = "random_mix"
    op_deadline_s = 1.0
    reuse = False
    trace_rounds = 4
    # Items per round; every item is set up and evaluated exactly once.
    batch = 200

    def __init__(self, pkg, seed, checked: bool = True):
        super().__init__(pkg, seed)
        self.digests = digests.load() if checked and seed == digests.DEFAULT_SEED else {}

    def inputs(self, round_):
        return self.inputs_for(round_ * self.batch, self.batch)

    def inputs_for(self, start, count):
        return list(enumerate(W.mix_items(self.seed, start, count), start))

    def setup(self, items):
        ops = []
        for index, item in items:
            ds = self.turtle.parse_data(item.data)
            query = self.parse(item.query)
            group = index if item.exists_free else None
            ops += [
                Op(f"item{index}/{s}", ds, query, self.semantics[s], self.digests.get((index, s)), group)
                for s in W.SEMANTICS
            ]
        return ops


def make_workload(name: str, pkg, seed: int) -> Workload:
    return {"chain": Chain, "deep_exists": DeepExists, "random_mix": RandomMix}[name](pkg, seed)


# -- running ops ---------------------------------------------------------


def evaluate(pkg, op: Op):
    return pkg.Evaluator(op.dataset, op.semantics).solutions(op.query)


def to_rows(solutions) -> frozenset:
    return frozenset(
        tuple((k.name, v.kind, v.value, v.datatype or "") for k, v in mu.items())
        for mu in solutions
    )


@dataclass
class Tally:
    """Ops attempted and how each failed one failed."""

    attempted: int = 0
    checked: int = 0
    unchecked: int = 0
    failures: Counter = field(default_factory=Counter)
    examples: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, label: str, detail: str = "") -> None:
        self.failures[kind] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{label}: {kind} {detail}".rstrip())


def run_op(pkg, op: Op, deadline_s: float):
    """(seconds, failure kind or None, detail, result)."""
    t0 = clock()
    try:
        with timing.deadline(deadline_s):
            t0 = clock()
            result = evaluate(pkg, op)
            t1 = clock()
    except timing.OpDeadline:
        return clock() - t0, "deadline", f"after {deadline_s} s", None
    except Exception as exc:  # RecursionError too: the run must go on
        return clock() - t0, "exception", f"{type(exc).__name__}: {exc}"[:200], None
    return t1 - t0, None, "", result


def run_round(pkg, wl: Workload, ops: list[Op], tally: Tally, stop_at: float,
              scaler: timing.Scaler | None = None) -> None:
    """Run ops in order, check each answer, and record times in `scaler`."""
    answers: dict[int, list[tuple[Op, frozenset]]] = {}
    last_mark = clock()
    for op in ops:
        if clock() >= stop_at:
            break
        seconds, failure, detail, result = run_op(pkg, op, wl.op_deadline_s)
        tally.attempted += 1
        if scaler is not None:
            scaler.add("op", seconds)
            if clock() - last_mark >= timing.BATCH_S:
                scaler.mark()
                last_mark = clock()
        if failure:
            tally.fail(failure, op.label, detail)
            continue
        rows = to_rows(result)
        if op.expected is None:
            tally.unchecked += 1
        else:
            tally.checked += 1
            got = digests.digest(rows) if isinstance(op.expected, str) else rows
            if got != op.expected:
                tally.fail("wrong", op.label)
                continue
        if op.group is not None:
            answers.setdefault(op.group, []).append((op, rows))
    for group in answers.values():
        if any(rows != group[0][1] for _, rows in group):
            for op, _ in group:
                tally.fail("wrong", op.label, "semantics disagree without EXISTS")


def timed_setup(wl: Workload, inputs, scaler: timing.Scaler) -> list[Op]:
    # Every set-up starts from an empty young generation, so where the
    # garbage collector runs inside it does not vary from run to run.
    gc.collect()
    t0 = clock()
    ops = wl.setup(inputs)
    scaler.add("setup", clock() - t0)
    return ops


def warm_up(pkg, wl: Workload, stop_at: float) -> None:
    """One untimed pass: fills the program's caches and lazy imports."""
    run_round(pkg, wl, wl.order(wl.setup(wl.inputs(-1)), -1), Tally(), stop_at)


def timed_run(pkg, wl: Workload, seconds: float, stop_at: float):
    scaler = timing.Scaler()
    tally = Tally()
    if wl.reuse:
        inputs = wl.inputs(0)
        while len(scaler.raw.get("setup", ())) < SETUP_REPEATS or sum(scaler.raw["setup"]) < SETUP_MIN_S:
            ops = timed_setup(wl, inputs, scaler)
            scaler.mark()
    warm_up(pkg, wl, stop_at)
    start = clock()
    round_ = 0
    while True:
        if not wl.reuse:
            # The last round's ops go first, so that only one round's
            # inputs are alive at a time.
            ops = None
            ops = timed_setup(wl, wl.inputs(round_), scaler)
        run_round(pkg, wl, wl.order(ops, round_), tally, stop_at, scaler)
        round_ += 1
        elapsed = clock() - start
        if (elapsed >= seconds and tally.attempted >= MIN_OPS) or clock() >= stop_at:
            break
    scaler.mark()
    return scaler, tally


def traced_run(pkg, wl: Workload, stop_at: float):
    """Alternate untraced and traced units of fixed work.

    A unit is one set-up and `trace_rounds` passes, or for a workload
    without reuse `trace_rounds` fresh rounds. Counts therefore repeat
    exactly for a given seed.
    """
    tracer = spans.Tracer()
    tally = Tally()
    op_time = {False: 0.0, True: 0.0}
    span_scale: list[float] = []
    warm_up(pkg, wl, stop_at)
    for rep in range(TRACE_REPEATS):
        for traced in (False, True):
            scaler = timing.Scaler()
            first = len(tracer.spans)
            with tracer.install() if traced else contextlib.nullcontext():
                unit = 2 * rep + traced
                for k in range(wl.trace_rounds):
                    round_ = unit * wl.trace_rounds + k
                    if k == 0 or not wl.reuse:
                        ops = wl.setup(wl.inputs(0 if wl.reuse else round_))
                    run_round(pkg, wl, wl.order(ops, round_), tally, stop_at, scaler)
            scaler.mark()
            op_time[traced] += sum(scaler.scaled.get("op", ()))
            factor = timing.REFERENCE_CALIBRATION_S / statistics.mean(scaler.readings)
            span_scale += [factor] * (len(tracer.spans) - first)
    metrics = spans.layer_metrics(tracer.spans, tracer.names(), span_scale)
    metrics["trace.overhead_ratio"] = op_time[True] / op_time[False]
    return metrics, tracer.missing, tally


# -- reporting -----------------------------------------------------------


def paper_table_gate() -> tuple[bool, str]:
    """(passed, the table's output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = importlib.import_module("exists_lab.cli").main(["paper-table"])
    return code == 0, out.getvalue()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(scaler: timing.Scaler, tally: Tally) -> tuple[dict, list[str]]:
    ops = scaler.scaled["op"]
    setups = scaler.scaled["setup"]
    p50 = statistics.median(ops)
    try:
        p90, tail = timing.percentile(ops, 0.9)
        p90_note = f"{tail} above it"
    except ValueError as exc:
        p90, _ = timing.percentile(ops, 0.9, min_tail=0)
        p90_note = f"UNRELIABLE: {exc}"
    metrics = {
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw_ops = scaler.raw["op"]
    cal = sorted(scaler.readings)
    notes = {
        "ops_per_s": f"{len(ops)} ops; raw {len(raw_ops) / sum(raw_ops):.4g} 1/s",
        "latency_p50_ms": f"n={len(ops)}; raw {statistics.median(raw_ops) * 1000:.4g} ms",
        "latency_p90_ms": f"n={len(ops)}, {p90_note}",
        "setup_s": f"median of {len(setups)} set-ups; raw {statistics.median(scaler.raw['setup']):.4g} s",
        "peak_rss_mb": "this process",
    }
    lines = [f"  {name:<16} {value:>12.6g} {unit:<4} ({notes[name]})" for name, (value, unit) in metrics.items()]
    lines.append(
        f"  {'failed_ratio':<16} {tally.failed / max(tally.attempted, 1):>12.6g} -    "
        f"({tally.failed} of {tally.attempted} ops: {dict(tally.failures) or 'none'})"
    )
    lines.append(
        f"  calibration loop {cal[len(cal) // 2] * 1000:.4g} ms median, {cal[0] * 1000:.4g}-{cal[-1] * 1000:.4g} ms "
        f"over {len(cal)} readings (reference {timing.REFERENCE_CALIBRATION_S * 1000:g} ms)"
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def layer_units(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("yield", "ratio")):
        return "ratio"
    return "count"


def run_one(args) -> int:
    pkg = load_program()
    stop_at = clock() + STOP_AFTER_S
    wl = make_workload(args.workload, pkg, args.seed)
    print(f"== {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    ok, table = paper_table_gate()
    print(f"  paper-table gate: {table.strip().splitlines()[-1]}")
    if not ok:
        print(f"{table}error: paper-table gate failed; no numbers reported", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if args.trace:
        values, missing, tally = traced_run(pkg, wl, stop_at)
        metrics = {k: {"value": v, "unit": layer_units(k)} for k, v in values.items()}
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        for name in missing:
            print(f"  MISSING hook {name}: its metrics are left out")
    else:
        scaler, tally = timed_run(pkg, wl, args.seconds, stop_at)
        metrics, lines = end_to_end(scaler, tally)
        print("\n".join(lines))
    print(
        f"  answers: {tally.checked} checked, {tally.unchecked} unchecked"
        + (" (recorded digests cover only the default seed)" if tally.unchecked else "")
    )
    for example in tally.examples:
        print(f"  FAILED {example}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=STOP_AFTER_S + 60)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=digests.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
