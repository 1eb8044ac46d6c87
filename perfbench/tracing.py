"""Spans and counters recorded from outside the program.

The traced run replaces functions at the names their callers look them up
(``polymin.cli.cell_poset``, ``polymin.minimize.branching_partition``, ...)
with wrappers that open a span around the call.  Nothing under ``src/``
changes.  Counts are read from return values after the request has ended, so
no span includes them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a request's root
    request: str


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """In-memory span recorder with wrappers for the program's functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = ""
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._installed: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` inside a span; ``name`` may be a callable of the arguments."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.begin(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
            if count is not None:
                self._pending.append((count, result))
            return result
        return wrapper

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def settle(self) -> None:
        """Read the counts of the calls made since the last settle."""
        pending, self._pending = self._pending, []
        for count, result in pending:
            for name, value in count(result):
                self.counts[name] += value

    def install(self) -> None:
        for module, attr, name, count in hooks():
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:  # renamed or removed: its metrics stay at 0
                continue
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, count))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()


# -- counters read from return values ----------------------------------------

def _relation_pairs(model) -> int:
    return sum(len(model.successors(w)) for w in model.elements)


def _count_poset(p):
    yield "simplicial.cells", len(p.elements)
    yield "simplicial.covers", len(p.covers)
    yield "kripke.order_pairs", _relation_pairs(p)


def _count_script(script):
    from polymin.logic import node_count

    yield "logic.formula_nodes", sum(node_count(f) for f in script.saves.values())


def _count_extensions(results):
    yield "checker.extension_cells", sum(len(s.members) for s in results.values())


def _count_minimal(mm):
    yield "bisim.classes", len(mm.partition)
    yield "bisim.classes_per_cell.base", len(mm.source.elements)
    yield "kripke.quotient_pairs", _relation_pairs(mm.kripke)


def _count_lts(lts):
    from polymin.bisim import CHANGE, DOWN, TAU

    by = defaultdict(int)
    for _, lab, _ in lts.transitions:
        by[lab] += 1
    named = {TAU: "tau", CHANGE: "c", DOWN: "d"}
    for lab, key in named.items():
        yield f"bisim.lts_transitions.{key}", by.pop(lab, 0)
    yield "bisim.lts_transitions.atom", sum(by.values())


def _count_components(result):
    _, components = result
    yield "bisim.components", len(components)


def _check_route(model, *_):
    from polymin.simplicial import PosetModel

    kind = "poset" if isinstance(model, PosetModel) else "quotient"
    return f"checker.check_script.{kind}"


def hooks():
    """(module, attribute, span name, counter) for every wrapped call site.

    A function imported by name into another module is wrapped there too,
    because that module looks it up in its own namespace.
    """
    out = [
        ("polymin.cli", "load_simplicial_model", "simplicial.load_simplicial_model", None),
        ("polymin.cli", "cell_poset", "simplicial.cell_poset", _count_poset),
        ("polymin.cli", "parse_script", "logic.parse_script", _count_script),
        ("polymin.checker", "check_script", _check_route, _count_extensions),
        ("polymin.checker", "sat", "checker.sat", None),
        ("polymin.minimize", "minimal_model", "minimize.minimal_model", _count_minimal),
        ("polymin.minimize", "rmin_via_quotient_d", "minimize.rmin_via_quotient_d", None),
        ("polymin.minimize", "map_back", "minimize.map_back", None),
        ("polymin.bisim", "weak_pm_partition", "bisim.weak_pm_partition", None),
        ("polymin.bisim", "encode_abstract", "bisim.encode_abstract", _count_components),
        ("polymin.bisim", "strong_partition", "bisim.strong_partition", None),
        ("polymin.bisim", "pull_back", "bisim.pull_back", None),
    ]
    for module in ("polymin.minimize", "polymin.bisim"):
        out += [
            (module, "encode_concrete", "bisim.encode_concrete", _count_lts),
            (module, "branching_partition", "bisim.branching_partition", None),
            (module, "quotient_lts", "bisim.quotient_lts", None),
        ]
    return out


# -- per-layer metrics ------------------------------------------------------------

ROOT_CLI = "cli.main"
ROOT_EXPLAIN = "minimize.distinguishing_formula"

# (metric, unit, better, how): "s" total span time, "self_s" self time,
# "calls" span count, "count" a counter; all per traced request.
PER_LAYER = [
    ("simplicial.load_simplicial_model.s", "s", "lower", "s"),
    ("simplicial.cell_poset.s", "s", "lower", "s"),
    ("simplicial.cells", "count", "lower", "count"),
    ("simplicial.covers", "count", "lower", "count"),
    ("kripke.order_pairs", "count", "lower", "count"),
    ("kripke.quotient_pairs", "count", "lower", "count"),
    ("logic.parse_script.s", "s", "lower", "s"),
    ("logic.formula_nodes", "count", "lower", "count"),
    ("cli.self_s", "s", "lower", "self_s"),
    ("cli.output_bytes", "bytes", "lower", "count"),
    ("checker.check_script.poset.s", "s", "lower", "s"),
    ("checker.check_script.quotient.s", "s", "lower", "s"),
    ("checker.sat.s", "s", "lower", "s"),
    ("checker.extension_cells", "count", "lower", "count"),
    ("bisim.encode_concrete.s", "s", "lower", "s"),
    ("bisim.encode_concrete.calls", "count", "lower", "calls"),
    ("bisim.branching_partition.s", "s", "lower", "s"),
    ("bisim.branching_partition.calls", "count", "lower", "calls"),
    ("bisim.strong_partition.s", "s", "lower", "s"),
    ("bisim.weak_pm_partition.s", "s", "lower", "s"),
    ("bisim.encode_abstract.s", "s", "lower", "s"),
    ("bisim.quotient_lts.s", "s", "lower", "s"),
    ("bisim.lts_transitions.tau", "count", "lower", "count"),
    ("bisim.lts_transitions.c", "count", "lower", "count"),
    ("bisim.lts_transitions.d", "count", "lower", "count"),
    ("bisim.lts_transitions.atom", "count", "lower", "count"),
    ("bisim.components", "count", "lower", "count"),
    ("bisim.classes", "count", "lower", "count"),
    ("bisim.classes_per_cell", "ratio", "lower", "ratio"),
    ("bisim.classes_per_cell.base", "count", "lower", "count"),
    ("minimize.minimal_model.self_s", "s", "lower", "self_s"),
    ("minimize.minimal_model.calls", "count", "lower", "calls"),
    ("minimize.rmin_via_quotient_d.self_s", "s", "lower", "self_s"),
    ("minimize.map_back.s", "s", "lower", "s"),
    ("minimize.distinguishing_formula.s", "s", "lower", "s"),
    ("minimize.witness_nodes", "count", "lower", "count"),
    ("trace.overhead_frac", "ratio", "lower", "overhead"),
]

_SUFFIX = {"s": ".s", "self_s": ".self_s", "calls": ".calls"}


def _span_name(metric: str, how: str) -> str:
    if metric == "cli.self_s":
        return ROOT_CLI
    return metric[: -len(_SUFFIX[how])]


def per_layer(spans: list[Span], counts: dict[str, float], requests: int,
              overhead: float) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER`, per traced request."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        total[s.name] += s.end - s.start
        own[s.name] += t
        calls[s.name] += 1
    by_how = {"s": total, "self_s": own, "calls": calls}
    out = {}
    for metric, _, _, how in PER_LAYER:
        if how == "overhead":
            out[metric] = overhead
        elif how == "ratio":
            base = counts.get(metric + ".base", 0)
            out[metric] = counts.get("bisim.classes", 0) / base if base else 0.0
        elif how == "count":
            out[metric] = counts.get(metric, 0) / requests
        else:
            out[metric] = by_how[how].get(_span_name(metric, how), 0) / requests
    return out


# The ROADMAP Baseline columns, by input size.
STAGES = [
    ("load", "simplicial.load_simplicial_model"),
    ("cell_poset", "simplicial.cell_poset"),
    ("encode_concrete", "bisim.encode_concrete"),
    ("branching_partition", "bisim.branching_partition"),
    ("sat_poset", "checker.check_script.poset"),
    ("sat_quotient", "checker.check_script.quotient"),
    ("sat_self_check", "checker.sat"),
    ("minimal_model", "minimize.minimal_model"),
    ("weak_pm_partition", "bisim.weak_pm_partition"),
    ("distinguishing_formula", ROOT_EXPLAIN),
]


def stage_table(spans: list[Span], cells_of: dict[str, int]) -> dict[int, dict[str, list]]:
    """Median seconds per call of each Baseline stage, by request input size.

    Returns ``{cells: {stage: [median_s, calls]}}``.
    """
    names = dict((span, stage) for stage, span in STAGES)
    samples: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for s in spans:
        stage = names.get(s.name)
        if stage is not None:
            samples[cells_of[s.request]][stage].append(s.end - s.start)
    return {
        cells: {stage: [statistics.median(v), len(v)] for stage, v in sorted(row.items())}
        for cells, row in sorted(samples.items())
    }
