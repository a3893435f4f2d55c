"""Outside-in tracing of opframes: span recorder, patcher and per-layer metrics.

The benchmark wraps the public functions of each opframes module from the
outside.  ``from .x import f`` binds a separate name for ``f`` in every
importing module, so the patcher rebinds every ``opframes.*`` module
attribute that *is* the original function.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# (dotted target inside opframes, span name); several targets may share a name.
TARGETS = (
    ("scenario.load_scenario", "scenario.load"),
    ("scenario.parse_scenario", "scenario.parse"),
    ("quadrature.gauss_legendre", "quadrature.rule"),
    ("quadrature.midpoint", "quadrature.rule"),
    ("quadrature.counting", "quadrature.rule"),
    ("quadrature.integrate_array", "quadrature.integrate"),
    ("quadrature.integrate", "quadrature.integrate"),
    ("frames.OperatorFamily.parametric", "frames.family_build"),
    ("frames.OperatorFamily.sampled", "frames.family_build"),
    ("frames.OperatorFamily.from_flats", "frames.family_build"),
    ("frames.frame_operator", "frames.frame_operator"),
    ("frames.classify", "frames.classify"),
    ("frames.below_bounded_check", "frames.svd"),
    ("frames.independence_check", "frames.svd"),
    ("frames.analysis", "frames.analysis"),
    ("duals.canonical_dual", "duals.canonical_dual"),
    ("duals.is_dual_pair", "duals.is_dual_pair"),
    ("reconstruction.reconstruct_direct", "reconstruction.solve"),
    ("reconstruction.reconstruct_neumann", "reconstruction.solve"),
    ("perturbation.relative_criterion_check", "perturbation.criterion"),
    ("perturbation.criterion_sample_vectors", "perturbation.criterion"),
    ("perturbation.additive_admissible", "perturbation.additive"),
    ("perturbation.perturb_additive", "perturbation.additive"),
    ("perturbation.additive_envelope", "perturbation.additive"),
    ("cli._emit", "cli.emit"),
    ("cli.main", "cli.main"),
)

ROOT = "request"
LAYERS = ("scenario", "quadrature", "frames", "duals", "reconstruction", "perturbation", "cli")
SPAN_TIMES = (
    "scenario.load", "scenario.parse", "quadrature.rule", "quadrature.integrate",
    "frames.family_build", "frames.frame_operator", "frames.classify", "frames.svd",
    "frames.analysis", "duals.canonical_dual", "duals.is_dual_pair", "reconstruction.solve",
    "perturbation.criterion", "perturbation.additive", "cli.emit",
)
SPAN_CALLS = {
    "scenario.parse_calls": "scenario.parse",
    "quadrature.rule_calls": "quadrature.rule",
    "quadrature.integrate_calls": "quadrature.integrate",
    "frames.frame_operator_calls": "frames.frame_operator",
    "frames.svd_calls": "frames.svd",
    "frames.analysis_calls": "frames.analysis",
}


class Span:
    """One call at a layer boundary; ``parent`` indexes the request's span list."""

    __slots__ = ("name", "start", "end", "parent", "error")

    def __init__(self, name, start, parent, end=None, error=False):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.error = error

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class Recorder:
    """Spans and counters of traced requests, kept in memory per request id."""

    def __init__(self):
        self.requests = {}          # request id -> list of Span
        self.counts = {}            # request id -> Counter
        self._spans = None
        self._counts = None
        self._stack = []
        self._families = {}         # id -> family, kept alive while the request runs

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self._spans) - 1)
        return self._stack[-1]

    def close(self, index, error=False):
        span = self._spans[index]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def begin(self, request):
        """Open the root span of a request; its calls nest below it."""
        self._spans = self.requests[request] = []
        self._counts = self.counts[request] = Counter()
        self._families = {}
        return self.open(ROOT)

    def end(self, root):
        self.close(root)
        self._counts["distinct_families"] = len(self._families)
        self._families = {}

    def inside(self, name):
        """Whether a span called ``name`` is open below the innermost one."""
        return any(self._spans[i].name == name for i in self._stack[:-1])

    def on_result(self, name, args, result):
        counts = self._counts
        if name == "quadrature.rule":
            counts["rule_nodes"] += len(result)
        elif name == "frames.family_build" and not self.inside(name):
            nk = result.n * result.descriptor.dim
            counts["family_builds"] += 1
            counts["flats_bytes"] += len(result.rule) * nk * nk * 16
        elif name == "frames.frame_operator":
            self._families[id(args[0])] = args[0]
        elif name == "perturbation.criterion" and isinstance(result, list):
            counts["criterion_vectors"] += len(result)
        elif name == "reconstruction.solve":
            counts["iterations"] += result.iterations


def _wrap(fn, name, recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(index, error=True)
            raise
        recorder.close(index)
        recorder.on_result(name, args, result)
        return result

    return traced


class Patcher:
    """Installs and removes the tracing wrappers on every alias of each target.

    An alias is an ``opframes.*`` module attribute, or a value in a
    module-level dict (such as a table of rule constructors), that *is* the
    original function.  Targets missing from the program are skipped and
    listed in ``missing``, so the trace keeps working when a later version
    drops a function.
    """

    def __init__(self, recorder):
        namespaces = []
        for key, module in sorted(sys.modules.items()):
            if module is not None and (key == "opframes" or key.startswith("opframes.")):
                namespaces.append((module, vars(module)))
                namespaces += [(v, v) for v in vars(module).values() if isinstance(v, dict)]
        self.missing = []
        self._swaps = []            # (owner, key, original, replacement)
        for target, name in TARGETS:
            module_name, _, attr = target.partition(".")
            owner = sys.modules.get(f"opframes.{module_name}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(path[-1]) if owner is not None else None
            if raw is None:
                self.missing.append(target)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, name, recorder))
                self._swaps.append((owner, path[-1], raw, wrapped))
            else:
                wrapped = _wrap(raw, name, recorder)
                self._swaps += [(owner, key, raw, wrapped)
                                for owner, table in namespaces
                                for key, value in list(table.items()) if value is raw]

    @staticmethod
    def _set(owner, key, value):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self):
        for owner, key, _, wrapped in self._swaps:
            self._set(owner, key, wrapped)

    def remove(self):
        for owner, key, original, _ in self._swaps:
            self._set(owner, key, original)


# ---------------------------------------------------------------- analysis


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted((spans[c].start, spans[c].end) for c in children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def request_metrics(spans, counts, report_bytes, wall):
    """Per-layer metrics of one traced request from its spans and counters.

    ``wall`` is the request's duration measured outside the trace;
    ``trace.coverage_frac`` is the share of it that the layer self times
    (``cli.self_s`` included) account for.
    """
    busy = Counter()
    calls = Counter()
    errors = Counter()
    for span, own in zip(spans, self_times(spans)):
        busy[span.name] += own
        calls[span.name] += 1
        if span.error:
            errors[span.name.partition(".")[0]] += 1
    metrics = {f"{name}_s": busy[name] for name in SPAN_TIMES}
    metrics["cli.self_s"] = busy["cli.main"]
    metrics.update({metric: calls[name] for metric, name in SPAN_CALLS.items()})
    metrics["quadrature.rule_nodes"] = counts["rule_nodes"]
    metrics["frames.family_builds"] = counts["family_builds"]
    metrics["frames.flats_mb"] = counts["flats_bytes"] / 1e6
    families = counts["distinct_families"]
    metrics["frames.factorizations_per_family"] = (
        calls["frames.frame_operator"] / families if families else 0.0
    )
    metrics["perturbation.criterion_vectors"] = counts["criterion_vectors"]
    metrics["reconstruction.iterations"] = counts["iterations"]
    metrics["cli.report_bytes"] = report_bytes
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors[layer]
    layer_total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    metrics["trace.coverage_frac"] = layer_total / wall
    return metrics


def median_metrics(per_request):
    """Median over requests of every metric."""
    keys = per_request[0].keys()
    return {k: statistics.median(m[k] for m in per_request) for k in keys}
