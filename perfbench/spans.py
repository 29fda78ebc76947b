"""Layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each layer and rebinds every
`finalg.*` module attribute that holds one (modules import each other's
functions by name); `Tracer.remove()` puts the originals back. Spans (name,
start, end, parent span, op id) are kept in memory and written at exit.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, layer): a layer's metrics sum over its functions.
LAYERS = (
    ("finalg.cli", "main", "cli.main"),
    ("finalg.fileformat", "parse_algebra_file", "fileformat.parse_algebra_file"),
    ("finalg.algebra", "product_square", "algebra.product_square"),
    ("finalg.algebra", "generate_subalgebra", "algebra.generate_subalgebra"),
    ("finalg.algebra", "stabilized_term_images", "algebra.stabilized_term_images"),
    ("finalg.closure", "semicongruence_generated", "closure.semicongruence_generated"),
    ("finalg.closure", "congruence_generated", "closure.congruence_generated"),
    ("finalg.closure", "iterate", "closure.iterate"),
    ("finalg.closure", "top_induction", "closure.ops"),
    ("finalg.closure", "top_deduction", "closure.ops"),
    ("finalg.closure", "clot_closure", "closure.ops"),
    ("finalg.closure", "is_top_normal", "closure.ops"),
    ("finalg.relations", "compose", "relations.compose"),
    ("finalg.relations", "left_image", "relations.image"),
    ("finalg.relations", "right_image", "relations.image"),
    ("finalg.relations", "opposite", "relations.image"),
    ("finalg.ranks", "algebra_rank", "ranks.algebra_rank"),
    ("finalg.catalog", "build_catalog", "catalog.build_catalog"),
    ("finalg.suites", "run_suite", "suites.run_suite"),
)
ORACLES = "finalg.oracles"


def _targets():
    for module, name, layer in LAYERS:
        yield sys.modules[module], name, layer
    oracles = sys.modules[ORACLES]
    for name, value in vars(oracles).items():
        if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == ORACLES:
            yield oracles, name, "oracles"


class Tracer:
    def __init__(self) -> None:
        # span: [layer, start, end, parent index or -1, op id, tag]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._semicong_inputs: list = []
        self._distinct_inputs = 0
        self._patched: list[tuple[object, str, object]] = []

    def _call(self, layer: str, fn, args, kwargs, tag=None):
        rec = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer: str):
        counts = self.counts

        if layer == "closure.semicongruence_generated":
            @functools.wraps(fn)
            def wrapper(algebra, pairs):
                # The program consumes `pairs` (often a generator) inside the
                # call, so it is materialised inside the span; the input is
                # kept as it is and only hashed in end_pass, outside any span.
                kept = []

                def call():
                    kept.append(tuple(pairs))
                    return fn(algebra, kept[0])

                rel = self._call(layer, call, (), {})
                self._semicong_inputs.append((algebra, kept[0]))
                counts[layer + ".pairs_out"] += len(rel)
                return rel
        elif layer == "algebra.generate_subalgebra":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = self._call(layer, fn, args, kwargs)
                counts[layer + ".out_elems"] += len(out)
                return out
        elif layer == "closure.iterate":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                report = self._call(layer, fn, args, kwargs)
                counts[layer + ".steps"] += len(report.chain) - 1
                return report
        elif layer == "suites.run_suite":
            @functools.wraps(fn)
            def wrapper(name, *args, **kwargs):
                return self._call(layer, fn, (name,) + args, kwargs, tag=name)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._call(layer, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every layer function wherever a finalg module holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "finalg" or name.startswith("finalg.")]
        for module, name, layer in _targets():
            original = getattr(module, name)
            wrapper = self._wrap(original, layer)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patched.append((holder, attr, original))

    def remove(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def write(self, path) -> None:
        """Spans as JSON lines: layer, start, end, parent, op, tag."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def end_pass(self) -> None:
        """Close a pass: distinct semicongruence inputs are counted per pass."""
        self._distinct_inputs += len({(algebra, frozenset(pairs))
                                      for algebra, pairs in self._semicong_inputs})
        self._semicong_inputs.clear()

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass totals by layer: calls, self time and the layer counters."""
        selfs = self_times(self.spans)
        out: dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, selfs):
            layer = rec[0]
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += own
            if rec[5] is not None:
                out[f"suites.{rec[5]}.s"] += rec[2] - rec[1]
            if layer == "closure.iterate" and rec[3] >= 0 and \
                    self.spans[rec[3]][0] == "ranks.algebra_rank":
                out["ranks.subsets"] += 1
        calls = out.get("closure.semicongruence_generated.calls", 0)
        for name, value in self.counts.items():
            out[name] += value
        out = {name: value / passes for name, value in out.items()}
        out["closure.semicongruence_generated.distinct_ratio"] = (
            self._distinct_inputs / calls if calls else 0.0
        )
        return out

    def op_gaps(self, latencies: dict[int, float]) -> dict[int, float]:
        """For each op, its latency as measured around `cli.main` (output
        redirection included) minus the sum of the self times of its spans.
        An op without exactly one root span, or whose root is not
        `cli.main`, gets an infinite gap."""
        selfs = self_times(self.spans)
        total: dict[int, float] = defaultdict(float)
        roots: dict[int, list[str]] = defaultdict(list)
        for rec, own in zip(self.spans, selfs):
            total[rec[4]] += own
            if rec[3] < 0:
                roots[rec[4]].append(rec[0])
        return {
            op: latency - total[op] if roots[op] == ["cli.main"] else float("inf")
            for op, latency in latencies.items()
        }


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out
