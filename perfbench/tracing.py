"""Spans around the public names `actool.cli` calls, recorded from outside.

The tracer rebinds those names in the `actool.cli` namespace to timing
wrappers and restores them afterwards, so nothing under `src/` changes and
untraced runs execute the original functions. A name the CLI no longer
imports is skipped, so its span simply disappears.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

TRACED = (
    "parse_case",
    "parse_bundle",
    "validate_case",
    "validate_bundle",
    "bundle_match_results",
    "resolve_links",
    "inline_bundle",
    "impact",
    "case_metrics",
    "bundle_metrics",
    "to_dot",
    "report_json",
    "print_case",
    "sorted_diagnostics",
)
SUBCOMMANDS = ("validate", "link", "impact", "inline", "render", "metrics", "fmt")
RULES = tuple(f"G{i}" for i in range(1, 9)) + ("U1", "U2") + tuple(f"S{i}" for i in range(1, 9))
TIMED = tuple(
    f"{module}.{name}.s"
    for module, name in (
        ("parser", "parse_case"),
        ("parser", "parse_bundle"),
        ("parser", "print_case"),
        ("validate", "validate_case"),
        ("validate", "validate_bundle"),
        ("validate", "bundle_match_results"),
        ("diagnostics", "sorted_diagnostics"),
        ("link", "resolve_links"),
        ("link", "inline_bundle"),
        ("analyze", "case_metrics"),
        ("analyze", "bundle_metrics"),
        ("analyze", "impact"),
        ("render", "to_dot"),
        ("render", "report_json"),
    )
)
COUNTS = (
    "parser.elements_out",
    "parser.edges_out",
    "parser.diagnostics_out",
    "validate.capabilities_matched",
    "link.resolutions_out",
    "link.inlined_elements_out",
    "analyze.affected_out",
    "analyze.failed",
    "render.bytes_out",
    *(f"validate.diagnostics_out.{rule}" for rule in RULES),
)
RATES = ("parser.parse_case.bytes_per_s", "parser.parse_bundle.bytes_per_s")


def _span_name(fn, name: str) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"


def _snapshot(name: str, result):
    """What counting needs from a result that its caller may still mutate:
    the CLI extends the parser's diagnostics list with the rule findings."""
    if name == "parser.parse_case":
        return ([result.case] if result.case else []), len(result.diagnostics)
    if name == "parser.parse_bundle":
        return (list(result[0].cases()) if result[0] else []), len(result[1])
    return result


def _counts(name: str, args: tuple, result, texts: list[str]) -> dict[str, int]:
    """Work counted at a layer boundary, from the call's arguments and result."""
    if name in ("parser.parse_case", "parser.parse_bundle"):
        cases, diagnostics = result
        return {
            "parser.elements_out": sum(len(c.elements) for c in cases),
            "parser.edges_out": sum(len(c.edges) for c in cases),
            "parser.diagnostics_out": diagnostics,
            "bytes": sum(len(t.encode("utf-8")) for t in (args[0], *texts)),
        }
    if name in ("validate.validate_case", "validate.validate_bundle"):
        return {f"validate.diagnostics_out.{rule}": n for rule, n in Counter(d.rule_id for d in result).items()}
    if name == "validate.bundle_match_results":
        return {"validate.capabilities_matched": len(result)}
    if name == "link.resolve_links":
        return {"link.resolutions_out": len(result[0].resolutions) if result[0] else 0}
    if name == "link.inline_bundle":
        return {"link.inlined_elements_out": len(result.elements)}
    if name == "analyze.impact":
        return {"analyze.affected_out": sum(len(ids) for ids in result.affected.values())}
    if name in ("render.to_dot", "render.report_json", "parser.print_case"):
        return {"render.bytes_out": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Records one span per wrapped call: name, start and end from
    `perf_counter_ns`, parent span index and op id, plus counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: dict[str, object] = {}
        self._namespace = None
        self._op_id: int | None = None

    def install(self, namespace) -> None:
        """Rebind every traced name `namespace` has to a wrapper."""
        for name in TRACED:
            fn = getattr(namespace, name, None)
            if fn is not None:
                self._saved[name] = fn
                setattr(namespace, name, self._wrap(name, fn))
        self._namespace = namespace

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(self._namespace, name, fn)
        self._saved.clear()

    def _open(self, name: str) -> dict:
        span = {"name": name, "op": self._op_id, "parent": self._stack[-1] if self._stack else None,
                "start": perf_counter_ns(), "end": None, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int, subcommand: str):
        """The root span of one op; every wrapped call inside is its child."""
        self._op_id = op_id
        first = len(self.spans)
        span = self._open(f"cli.{subcommand}")
        try:
            yield span
        finally:
            self._close(span)
            self._op_id = None
            # counting happens after the root span closes, so it adds to no span
            for child in self.spans[first:]:
                pending = child.pop("pending", None)
                if pending is not None:
                    child["counts"] = _counts(child["name"], *pending)

    def _wrap(self, name: str, fn):
        span_name = _span_name(fn, name)

        def traced(*args, **kwargs):
            texts: list[str] = []
            if span_name == "parser.parse_bundle":
                loader = args[1]

                def counting_loader(path):
                    text = loader(path)
                    texts.append(text)
                    return text

                args = (args[0], counting_loader, *args[2:])
            span = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(span)
                if span_name.startswith("analyze."):
                    span["counts"] = {"analyze.failed": 1}
                raise
            self._close(span)
            span["pending"] = (args, _snapshot(span_name, result), texts)
            return result

        traced.__wrapped__ = fn
        return traced


class MemoryTracer(Tracer):
    """Peak traced allocation inside each wrapped call, from `tracemalloc`.
    Run on its own: tracemalloc slows every allocation."""

    def __init__(self):
        super().__init__()
        self.peak_kib: dict[str, float] = {}

    def _wrap(self, name: str, fn):
        span_name = _span_name(fn, name)

        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 1024
                self.peak_kib[span_name] = max(self.peak_kib.get(span_name, 0.0), peak)

        return measured


def per_layer(spans: list[dict], cycles: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `cycles` identical traced cycles.

    `<layer>.s` is the median over the ops that call the layer of its time per
    op; `cli.<subcommand>.self_s` is the median self time of the root span;
    counts are per cycle of the op mix.
    """
    per_op: dict[tuple[str, int], float] = {}
    child_s: dict[int, float] = {}
    roots: dict[int, dict] = {}
    totals: Counter = Counter()
    rate_bytes: Counter = Counter()
    rate_s: Counter = Counter()
    for span in spans:
        seconds = (span["end"] - span["start"]) / 1e9
        if span["parent"] is None:
            roots[span["op"]] = span
            continue
        per_op[(span["name"], span["op"])] = per_op.get((span["name"], span["op"]), 0.0) + seconds
        if spans[span["parent"]]["parent"] is None:
            child_s[span["op"]] = child_s.get(span["op"], 0.0) + seconds
        counts = dict(span["counts"])
        if "bytes" in counts:
            rate_bytes[span["name"]] += counts.pop("bytes")
            rate_s[span["name"]] += seconds
        totals.update(counts)
    metrics: dict[str, float] = {}
    for metric in TIMED:
        layer = metric[: -len(".s")]
        values = [s for (name, _), s in per_op.items() if name == layer]
        metrics[metric] = statistics.median(values) if values else 0.0
    for metric in RATES:
        layer = metric[: -len(".bytes_per_s")]
        metrics[metric] = rate_bytes[layer] / rate_s[layer] if rate_s[layer] else 0.0
    for sub in SUBCOMMANDS:
        values = [
            (root["end"] - root["start"]) / 1e9 - child_s.get(op, 0.0)
            for op, root in roots.items()
            if root["name"] == f"cli.{sub}"
        ]
        metrics[f"cli.{sub}.self_s"] = statistics.median(values) if values else 0.0
    for metric in COUNTS:
        metrics[metric] = totals[metric] / cycles if cycles else 0
    return metrics
