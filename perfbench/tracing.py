"""Span recording around rayloc's public functions, from outside the program.

The benchmark times each layer by replacing the functions that callers look
up (module attributes and class methods) with thin wrappers that record a
span, then calling the program unchanged. Spans stay in memory and are
written out when the run ends.

A span is ``[name, start_ns, end_ns, parent, request, attrs]``: ``parent`` is
the index of the enclosing span (-1 for none) and ``request`` the identifier
shared by every span of one request.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


def _rays(result, owner):
    return {"rays": int(result[0].size)}


def _table_bytes(result, owner):
    return {"table_bytes": int(owner.table.nbytes)}


def _epochs(result, owner):
    return {"epochs": int(result[1].size)}


# (span name, module, attribute, optional hook(result, self) -> span attrs).
# A dotted attribute names a method, patched on its class; a plain one names
# a function, patched in every rayloc module that imported it by name.
TARGETS = (
    ("floorplan.cast_rays", "rayloc.floorplan", "cast_rays", _rays),
    ("floorplan.load_floorplan", "rayloc.floorplan", "load_floorplan", None),
    ("raybins.expected_depths", "rayloc.raybins", "expected_depths", None),
    ("scoring.build", "rayloc.scoring", "GridScorer.__init__", _table_bytes),
    ("scoring.score", "rayloc.scoring", "GridScorer.score", None),
    ("scoring.top_x", "rayloc.scoring", "top_x", None),
    ("crops.extract_crop", "rayloc.crops", "extract_crop", None),
    ("synth.embed_crop", "rayloc.synth", "RandomProjectionEmbedder.embed_crop", None),
    ("synth.embed_signature", "rayloc.synth", "RandomProjectionEmbedder.embed_signature", None),
    ("contrastive.mine_samples", "rayloc.contrastive", "mine_samples", None),
    ("contrastive.crop_features", "rayloc.contrastive", "crop_features", None),
    ("contrastive.add_peer_negatives", "rayloc.contrastive", "add_peer_negatives", None),
    ("contrastive.train", "rayloc.contrastive", "train_linear_embedder", _epochs),
    ("disambig.localize", "rayloc.disambig", "localize", None),
    ("disambig.build_dpm", "rayloc.disambig", "build_dpm", None),
    ("disambig.fuse_and_select", "rayloc.disambig", "fuse_and_select", None),
    ("cli.main", "rayloc.cli", "main", None),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, attrs: dict | None = None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[ATTRS] = attrs

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (used for root spans)."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans}, fh)


def read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                attrs = hook(result, args[0] if args else None)
            return result
        finally:
            tracer.close(index, attrs)

    return wrapper


class Instrumentation:
    """Installs and removes the span wrappers; a context manager."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: list[tuple[object, str, object, object]] = []
        # import every target module before scanning for references
        modules = [importlib.import_module(t[1]) for t in TARGETS]
        for (name, _, attr, hook), module in zip(TARGETS, modules):
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                wrapped = _wrap(tracer, name, original, hook)
                self._patches.append((owner, method, original, wrapped))
                continue
            original = getattr(module, attr)
            wrapped = _wrap(tracer, name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "rayloc" and not mod_name.startswith("rayloc."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapped))

    def install(self) -> None:
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the part of [lo, hi] covered by the union of intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans) -> list[int]:
    """Per span: its duration minus the time its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered_ns(span[START], span[END], kids)
        for span, kids in zip(spans, children)
    ]


class SpanStats:
    """Per span name: calls, inclusive and self nanoseconds, summed attrs."""

    def __init__(self, spans):
        self._calls: dict[str, int] = {}
        self._total: dict[str, int] = {}
        self._self: dict[str, int] = {}
        self._attrs: dict[str, dict[str, float]] = {}
        for span, own in zip(spans, self_times_ns(spans)):
            name = span[NAME]
            self._calls[name] = self._calls.get(name, 0) + 1
            self._total[name] = self._total.get(name, 0) + span[END] - span[START]
            self._self[name] = self._self.get(name, 0) + own
            sums = self._attrs.setdefault(name, {})
            for key, value in (span[ATTRS] or {}).items():
                sums[key] = sums.get(key, 0) + value

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def total_ns(self, name: str) -> int:
        return self._total.get(name, 0)

    def self_ns(self, name: str) -> int:
        return self._self.get(name, 0)

    def attr(self, name: str, key: str) -> float:
        return self._attrs.get(name, {}).get(key, 0)

    def mean_self_ns(self, name: str) -> float:
        return self.self_ns(name) / self.calls(name)

    def mean_total_ns(self, name: str) -> float:
        return self.total_ns(name) / self.calls(name)


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run
# ---------------------------------------------------------------------------

TWIN, CORRIDOR, TRAIN = "twin-warm", "corridor-cold", "embedder-train"
QUERY = (TWIN, CORRIDOR)
ALL = (TWIN, CORRIDOR, TRAIN)

# (metric, unit, span that must have calls, workloads that run it, value).
# ``value(s, x)`` reads SpanStats ``s`` and the workload's extras ``x``;
# x["units"] is the number of traced requests (queries, CLI calls or jobs).
# Per-call times ("ms"/"us" of a function) are self times; stage totals
# ("build.s", "main.s", contrastive "*.s") are inclusive.
LAYER_METRICS = (
    ("floorplan.cast_rays.rays", "count", "floorplan.cast_rays", QUERY,
     lambda s, x: s.attr("floorplan.cast_rays", "rays")),
    ("floorplan.cast_rays.ns_per_ray", "ns", "floorplan.cast_rays", QUERY,
     lambda s, x: s.self_ns("floorplan.cast_rays") / s.attr("floorplan.cast_rays", "rays")),
    ("floorplan.load_floorplan.ms", "ms", "floorplan.load_floorplan", (CORRIDOR,),
     lambda s, x: s.mean_self_ns("floorplan.load_floorplan") / 1e6),
    ("cli.main.s", "s", "cli.main", (CORRIDOR,),
     lambda s, x: s.mean_total_ns("cli.main") / 1e9),
    ("cli.process_overhead_ms", "ms", "cli.main", (CORRIDOR,),
     lambda s, x: x["process_overhead_ms"]),
    ("cli.artifact_bytes", "bytes", "cli.main", (CORRIDOR,),
     lambda s, x: x["artifact_bytes"]),
    ("scoring.build.s", "s", "scoring.build", QUERY,
     lambda s, x: s.mean_total_ns("scoring.build") / 1e9),
    ("scoring.table_bytes", "bytes", "scoring.build", QUERY,
     lambda s, x: s.attr("scoring.build", "table_bytes") / s.calls("scoring.build")),
    ("scoring.score.ms", "ms", "scoring.score", QUERY,
     lambda s, x: s.mean_self_ns("scoring.score") / 1e6),
    ("scoring.top_x.ms", "ms", "scoring.top_x", QUERY,
     lambda s, x: s.mean_self_ns("scoring.top_x") / 1e6),
    ("crops.extract_crop.calls", "count", "crops.extract_crop", ALL,
     lambda s, x: s.calls("crops.extract_crop") / x["units"]),
    ("crops.extract_crop.us", "us", "crops.extract_crop", ALL,
     lambda s, x: s.mean_self_ns("crops.extract_crop") / 1e3),
    ("synth.embed_crop.calls", "count", "synth.embed_crop", ALL,
     lambda s, x: s.calls("synth.embed_crop") / x["units"]),
    ("synth.embed_crop.us", "us", "synth.embed_crop", ALL,
     lambda s, x: s.mean_self_ns("synth.embed_crop") / 1e3),
    ("synth.embed_signature.us", "us", "synth.embed_signature", QUERY,
     lambda s, x: s.mean_self_ns("synth.embed_signature") / 1e3),
    ("raybins.expected_depths.us", "us", "raybins.expected_depths", (TWIN,),
     lambda s, x: s.mean_self_ns("raybins.expected_depths") / 1e3),
    ("disambig.localize.self_ms", "ms", "disambig.localize", QUERY,
     lambda s, x: s.mean_self_ns("disambig.localize") / 1e6),
    ("disambig.build_dpm.us", "us", "disambig.build_dpm", QUERY,
     lambda s, x: s.mean_self_ns("disambig.build_dpm") / 1e3),
    ("disambig.fuse_and_select.us", "us", "disambig.fuse_and_select", QUERY,
     lambda s, x: s.mean_self_ns("disambig.fuse_and_select") / 1e3),
    ("disambig.flip_frac", "fraction", "disambig.localize", QUERY,
     lambda s, x: x["flip_frac"]),
    ("disambig.true_room_in_candidates_frac", "fraction", "disambig.localize", QUERY,
     lambda s, x: x["true_room_in_candidates_frac"]),
    ("contrastive.mine_samples.s", "s", "contrastive.mine_samples", (TRAIN,),
     lambda s, x: s.total_ns("contrastive.mine_samples") / x["units"] / 1e9),
    ("contrastive.crop_features.calls", "count", "contrastive.crop_features", (TRAIN,),
     lambda s, x: s.calls("contrastive.crop_features") / x["units"]),
    ("contrastive.crop_features.ms", "ms", "contrastive.crop_features", (TRAIN,),
     lambda s, x: s.mean_self_ns("contrastive.crop_features") / 1e6),
    ("contrastive.add_peer_negatives.s", "s", "contrastive.add_peer_negatives", (TRAIN,),
     lambda s, x: s.total_ns("contrastive.add_peer_negatives") / x["units"] / 1e9),
    ("contrastive.train.s", "s", "contrastive.train", (TRAIN,),
     lambda s, x: s.total_ns("contrastive.train") / x["units"] / 1e9),
    ("contrastive.train.ms_per_epoch", "ms", "contrastive.train", (TRAIN,),
     lambda s, x: s.total_ns("contrastive.train") / s.attr("contrastive.train", "epochs") / 1e6),
    ("trace.overhead_pct", "%", "disambig.localize", (TWIN,),
     lambda s, x: x["overhead_pct"]),
    ("trace.attributed_pct", "%", "disambig.localize", (TWIN,),
     lambda s, x: x["attributed_pct"]),
)

UNOBSERVED = "unobserved"


def layer_metrics(workload: str, spans, extras: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric for one traced run, and the ones unobserved.

    A metric whose layer this workload does not run reads 0. A metric whose
    layer it should run but whose span received no calls reads "unobserved",
    so that a renamed or inlined function cannot silently drop a layer."""
    stats = SpanStats(spans)
    metrics = {}
    unobserved = []
    for name, unit, span, workloads, value in LAYER_METRICS:
        if workload not in workloads:
            metrics[name] = {"value": 0, "unit": unit}
        elif stats.calls(span) == 0:
            metrics[name] = {"value": UNOBSERVED, "unit": unit}
            unobserved.append(name)
        else:
            metrics[name] = {"value": float(value(stats, extras)), "unit": unit}
    return metrics, unobserved
