"""Span tracing at slidecam's module boundaries, from outside the package.

slidecam's modules import each other with ``from .x import y``, so a call
from module A into module B looks ``y`` up in A's namespace. A wrapper
installed on that attribute (``slidecam.pipeline.prune_dominated``,
``slidecam.grid.region_contains``, ...) therefore sees exactly the calls A
makes into B. The package itself is not edited: the wrappers are installed
for a traced pass and the original attributes are restored afterwards.

Every span records its name, the calling module (site), start, end, the
index of the enclosing span and the operation (one benchmark call) it
belongs to. Spans stay in memory in flat arrays; the run turns them into
per-layer metrics and writes them out once it ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
from array import array
from time import perf_counter

# (calling module, attribute, span name). The span name is the module that
# defines the callee plus its name; the calling module is kept as the site.
BOUNDARIES = (
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("cli", "run_pipeline", "pipeline.run_pipeline"),
    ("cli", "guarded_camera_cover", "pipeline.guarded_camera_cover"),
    ("pipeline", "prune_dominated", "grid.prune_dominated"),
    ("pipeline", "optimal_covers", "guarded_cover.optimal_covers"),
    ("pipeline", "critical_regions", "critical.critical_regions"),
    ("pipeline", "build_region_graph", "critical.build_region_graph"),
    ("matching", "min_edge_cover", "matching.min_edge_cover"),
    ("critical", "guards_entirely", "visibility.guards_entirely"),
    ("pipeline", "covers_polygon", "visibility.covers_polygon"),
    ("cli", "covers_polygon", "visibility.covers_polygon"),
    ("pipeline", "camera_guards_camera", "visibility.camera_guards_camera"),
    ("oracles", "camera_guards_camera", "visibility.camera_guards_camera"),
    ("visibility", "camera_guards_camera", "visibility.camera_guards_camera"),
    ("grid", "camera_visibility", "visibility.camera_visibility"),
    ("oracles", "camera_visibility", "visibility.camera_visibility"),
    ("visibility", "camera_visibility", "visibility.camera_visibility"),
    ("grid", "region_contains", "region.region_contains"),
    ("visibility", "region_contains", "region.region_contains"),
    ("visibility", "region_difference", "region.region_difference"),
    ("critical", "region_difference", "region.region_difference"),
    ("cli", "opt_cameras", "oracles.opt_cameras"),
    ("cli", "opt_guarded_cameras", "oracles.opt_guarded_cameras"),
    ("cli", "opt_grid_cover", "oracles.opt_grid_cover"),
    ("cli", "opt_region_cover", "oracles.opt_region_cover"),
    ("cli", "parse_polygon", "polyfile.parse_polygon"),
)

# camera_visibility and camera_guards_camera call themselves once more on
# the transposed polygon to handle vertical tracks; only the outer call is
# a call into the layer.
_SELF_RECURSIVE = {"visibility.camera_visibility", "visibility.camera_guards_camera"}
_GENERATORS = {"guarded_cover.optimal_covers"}

# Per-layer metrics read off the spans: (metric prefix, span name, site or
# None for every caller, fields). A prefix naming a caller module with a
# callee from another module (grid.region_contains) keeps only that site.
SPAN_METRICS = (
    ("pipeline.camera_cover", "pipeline.camera_cover", None, ("calls", "s", "self_s")),
    ("pipeline.guarded_camera_cover", "pipeline.guarded_camera_cover", None,
     ("calls", "s", "self_s")),
    ("pipeline.run_pipeline", "pipeline.run_pipeline", None, ("calls", "s", "self_s")),
    ("grid.prune_dominated", "grid.prune_dominated", None, ("calls", "s", "self_s")),
    ("grid.region_contains", "region.region_contains", "grid", ("calls", "s")),
    ("grid.camera_visibility", "visibility.camera_visibility", "grid", ("calls", "s")),
    ("guarded_cover.optimal_covers", "guarded_cover.optimal_covers", None, ("s",)),
    ("critical.critical_regions", "critical.critical_regions", None,
     ("calls", "s", "self_s")),
    ("critical.build_region_graph", "critical.build_region_graph", None,
     ("calls", "s", "self_s")),
    ("critical.guards_entirely", "visibility.guards_entirely", "critical", ("calls", "s")),
    ("matching.min_edge_cover", "matching.min_edge_cover", None, ("calls", "s")),
    ("visibility.camera_visibility", "visibility.camera_visibility", None,
     ("calls", "s", "self_s")),
    ("visibility.covers_polygon", "visibility.covers_polygon", None,
     ("calls", "s", "self_s")),
    ("visibility.camera_guards_camera", "visibility.camera_guards_camera", None,
     ("calls", "s")),
    ("region.region_contains", "region.region_contains", None, ("calls", "s")),
    ("region.region_difference", "region.region_difference", None, ("calls", "s")),
    ("oracles.opt_cameras", "oracles.opt_cameras", None, ("calls", "s")),
    ("oracles.opt_guarded_cameras", "oracles.opt_guarded_cameras", None, ("calls", "s")),
    ("oracles.opt_grid_cover", "oracles.opt_grid_cover", None, ("calls", "s")),
    ("oracles.opt_region_cover", "oracles.opt_region_cover", None, ("calls", "s")),
    ("cli.main", "cli.main", None, ("calls", "s", "self_s")),
    ("polyfile.parse_polygon", "polyfile.parse_polygon", None, ("calls", "s")),
    ("generator.generate_polygon", "generator.generate_polygon", None, ("calls", "s")),
)

PHASES = ("chords", "prune", "graph", "cover", "patch")

# Metrics that are not span sums: (name, unit, better).
DERIVED_METRICS = (
    *((f"pipeline.phase.{p}_s", "s", "lower") for p in PHASES),
    ("pipeline.run_pipeline.calls_per_op", "count", "lower"),
    ("guarded_cover.optimal_covers.calls", "count", "lower"),
    ("grid.kept_ratio", "ratio", "lower"),
    ("guarded_cover.optimal_covers.yields", "count", "lower"),
    ("visibility.camera_visibility.distinct_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    out = [
        (f"{prefix}.{field}", _FIELD_UNITS[field], "lower")
        for prefix, _name, _site, fields in SPAN_METRICS
        for field in fields
    ]
    out.extend(DERIVED_METRICS)
    return out


def _intern(table: list[str], ids: dict[str, int], key: str) -> int:
    i = ids.get(key)
    if i is None:
        i = ids[key] = len(table)
        table.append(key)
    return i


class Tracer:
    """In-memory span store plus the counters read at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.sites: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._site_ids: dict[str, int] = {}
        self.name = array("i")
        self.site = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self.chords = 0
        self.kept = 0
        self.generators = 0
        self.yields = 0
        self.vis_keys: set = set()

    def begin_op(self) -> None:
        self._op += 1

    def _open(self, name: str, site: str) -> int:
        i = len(self.start)
        self.name.append(_intern(self.names, self._name_ids, name))
        self.site.append(_intern(self.sites, self._site_ids, site))
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    def wrap(self, name: str, site: str, fn):
        if name in _GENERATORS:
            return self._wrap_generator(name, site, fn)
        skip_nested = name in _SELF_RECURSIVE
        observe = self._observers().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_nested and self._current() == name:
                return fn(*args, **kwargs)
            i = self._open(name, site)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _wrap_generator(self, name: str, site: str, fn):
        # A generator does its work in next(), so each next() is a span;
        # the call that makes the generator runs none of its body.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.generators += 1

            def drain():
                while True:
                    i = self._open(name, site)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    self.yields += 1
                    yield item

            return drain()

        return traced

    def _observers(self):
        def run_pipeline(args, run):
            for phase, seconds in run.stats.phase_seconds.items():
                self.phase_s[phase] += seconds

        def prune_dominated(args, grid):
            self.chords += len(set(args[1]))
            self.kept += len(grid)

        def camera_visibility(args, _region):
            self.vis_keys.add((self._op, id(args[0]), args[1]))

        return {
            "pipeline.run_pipeline": run_pipeline,
            "grid.prune_dominated": prune_dominated,
            "visibility.camera_visibility": camera_visibility,
        }

    @contextlib.contextmanager
    def installed(self):
        """Wrappers on every boundary for the block, originals restored after."""
        saved = []
        try:
            for module, attr, name in BOUNDARIES:
                mod = importlib.import_module(f"slidecam.{module}")
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, module, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the part covered by child spans. Spans come from
        one thread and nest, so children never overlap and the covered part
        is the sum of their durations."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        return [d - c for d, c in zip(dur, covered)]

    def metrics(self, passes: int, setups: int) -> dict[str, float]:
        """Per-layer totals per pass (generator spans: per setup)."""
        selfs = self.self_times()
        agg: dict[tuple[str, str], list[float]] = {}
        for i in range(len(self.start)):
            key = (self.names[self.name[i]], self.sites[self.site[i]])
            acc = agg.setdefault(key, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += self.end[i] - self.start[i]
            acc[2] += selfs[i]
        out: dict[str, float] = {}
        for prefix, name, site, fields in SPAN_METRICS:
            calls = s = self_s = 0.0
            for (n, st), (c, d, sf) in agg.items():
                if n == name and (site is None or st == site):
                    calls, s, self_s = calls + c, s + d, self_s + sf
            per = setups if name == "generator.generate_polygon" else passes
            values = {"calls": calls, "s": s, "self_s": self_s}
            for field in fields:
                out[f"{prefix}.{field}"] = values[field] / per
        for phase, seconds in self.phase_s.items():
            out[f"pipeline.phase.{phase}_s"] = seconds / passes
        runs = out["pipeline.run_pipeline.calls"] * passes
        ops = self._op + 1
        out["pipeline.run_pipeline.calls_per_op"] = runs / ops if ops else 0.0
        out["grid.kept_ratio"] = self.kept / self.chords if self.chords else 0.0
        out["guarded_cover.optimal_covers.calls"] = self.generators / passes
        out["guarded_cover.optimal_covers.yields"] = self.yields / passes
        vis_calls = out["visibility.camera_visibility.calls"] * passes
        out["visibility.camera_visibility.distinct_ratio"] = (
            len(self.vis_keys) / vis_calls if vis_calls else 0.0
        )
        out["trace.spans"] = len(self.start) / passes
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped TSV: index, name, site, start, end,
        parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tname\tsite\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.sites[self.site[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\t"
                    f"{self.op[i]}\n"
                )
