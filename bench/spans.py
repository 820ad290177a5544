"""Out-of-program tracing: spans around calls into the package's layers.

Every wrapped function is listed once in WRAP_TABLE, under the name its
caller looks it up by (a function imported with ``from .x import f`` is
patched in the importing module, not where it is defined). A span records
its name, the span that caused it, and its duration; a layer's self time is
its duration minus the time its child spans cover. Hot leaf functions are
aggregated into a call count and a total time instead of one span per call.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


class TraceError(RuntimeError):
    """The wrap table no longer matches the package, or a layer the
    prediction table expects recorded no calls."""


@dataclass(frozen=True)
class Wrap:
    target: str            # "module:attr" or "module:Class.method"
    span: str              # span name
    kind: str = "span"     # span | leaf | generator
    by_parent: tuple = ()  # ((parent span, span name), ...) overrides
    count: object = None   # callable(result, counters) for result counters


def _vtk_bytes(result, counters):
    counters["mesh.vtk_bytes"] += len(result)


def _greedy_outcome(result, counters):
    history = result[1]
    counters["rbf.selected_points"] += history.selected_points
    counters["rbf.converged"] += int(history.converged)


def _clip_hit(result, counters):
    counters["supermesh.clip_hits"] += int(len(result) > 0)


_KINEMATICS = ("eval_series", "hinge_matrix", "azimuth_matrix",
               "grid_velocity_bdf2", "grid_velocity_backward")

WRAP_TABLE: tuple[Wrap, ...] = (
    Wrap("rotormesh.cli:main", "cli"),
    Wrap("rotormesh.cli:parse_mesh", "mesh.parse"),
    Wrap("rotormesh.mesh:parse_mesh", "mesh.parse"),
    Wrap("rotormesh.cli:write_vtk", "mesh.write_vtk", count=_vtk_bytes),
    Wrap("rotormesh.mesh:Mesh.with_points", "mesh.with_points"),
    Wrap("rotormesh.cli:run_deformation", "driver", kind="generator"),
    Wrap("rotormesh.driver:run_deformation", "driver", kind="generator"),
    *(Wrap(f"rotormesh.driver:{name}", "kinematics", kind="leaf")
      for name in _KINEMATICS),
    Wrap("rotormesh.driver:deform_mesh", "rbf.deform"),
    Wrap("rotormesh.rbf:greedy_select", "rbf.greedy", count=_greedy_outcome),
    Wrap("rotormesh.rbf:solve_weights", "rbf.solve"),
    Wrap("rotormesh.rbf:evaluate_field", "rbf.evaluate_other",
         by_parent=(("rbf.solve", "rbf.evaluate_check"),
                    ("rbf.deform", "rbf.evaluate_volume"))),
    Wrap("rotormesh.rbf:orthogonality_metrics", "geometry.quality"),
    Wrap("rotormesh.geometry:cell_geometry", "geometry.cell_geometry"),
    Wrap("rotormesh.supermesh:interface_from_markers", "supermesh.project"),
    Wrap("rotormesh.supermesh:build_supermesh", "supermesh.build"),
    Wrap("rotormesh.supermesh:clip_convex", "supermesh.clip", kind="leaf",
         count=_clip_hit),
    Wrap("rotormesh.supermesh:Supermesh.to_csv", "supermesh.csv"),
    Wrap("rotormesh.supermesh:weighted_exchange", "supermesh.exchange"),
)

# Layers each workload must exercise: span name -> workloads. A traced run
# that records no call of an expected layer fails, so a refactor cannot
# silently drop a layer from the measurement.
EXPECTED_LAYERS = {
    "mesh.parse": ("rev52k", "cli_deform", "sliding_iface"),
    "mesh.with_points": ("rev52k", "cli_deform"),
    "mesh.write_vtk": ("cli_deform",),
    "geometry.quality": ("rev52k", "cli_deform"),
    "geometry.cell_geometry": ("rev52k", "cli_deform"),
    "rbf.deform": ("rev52k", "cli_deform"),
    "rbf.greedy": ("rev52k", "cli_deform"),
    "rbf.solve": ("rev52k", "cli_deform"),
    "rbf.evaluate_volume": ("rev52k", "cli_deform"),
    "rbf.evaluate_check": ("rev52k", "cli_deform"),
    "kinematics": ("rev52k", "cli_deform"),
    "driver": ("rev52k", "cli_deform"),
    "cli": ("cli_deform",),
    "supermesh.project": ("sliding_iface",),
    "supermesh.build": ("sliding_iface",),
    "supermesh.clip": ("sliding_iface",),
    "supermesh.csv": ("sliding_iface",),
    "supermesh.exchange": ("sliding_iface",),
}


class _Span:
    __slots__ = ("name", "parent", "duration", "child")

    def __init__(self, name: str, parent: "_Span | None"):
        self.name = name
        self.parent = parent
        self.duration = 0.0
        self.child = 0.0


class Tracer:
    """Keeps spans in memory; `install` patches the wrap table, `remove`
    restores the original attributes."""

    def __init__(self, table=WRAP_TABLE):
        self.table = table
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for wrap in self.table:
            module_name, _, path = wrap.target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
                if owner is None:
                    break
            original = getattr(owner, attr, None) if owner is not None \
                else None
            if not callable(original):
                self.remove()
                raise TraceError(f"wrapped name {wrap.target} no longer "
                                 "exists")
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(wrap, original))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrapper(self, wrap: Wrap, fn):
        if wrap.kind == "leaf":
            return self._leaf(wrap, fn)
        if wrap.kind == "generator":
            return self._generator(wrap, fn)
        return self._span(wrap, fn)

    def _open(self, wrap: Wrap) -> _Span:
        parent = self.stack[-1] if self.stack else None
        name = dict(wrap.by_parent).get(parent.name if parent else None,
                                        wrap.span)
        span = _Span(name, parent)
        self.spans.append(span)
        return span

    def _span(self, wrap: Wrap, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(wrap)
            self.stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.duration += time.perf_counter() - t0
                self.stack.pop()
                if span.parent is not None:
                    span.parent.child += span.duration
            if wrap.count is not None:
                wrap.count(result, self.counters)
            return result
        return traced

    def _leaf(self, wrap: Wrap, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.leaf_calls[wrap.span] += 1
                self.leaf_seconds[wrap.span] += dt
                if self.stack:
                    self.stack[-1].child += dt
            if wrap.count is not None:
                wrap.count(result, self.counters)
            return result
        return traced

    def _generator(self, wrap: Wrap, fn):
        """A generator's span covers only the time spent inside it, summed
        over its resumptions; the consumer's work between yields is not
        part of it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(wrap)
            inner = fn(*args, **kwargs)
            while True:
                self.stack.append(span)
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dt = time.perf_counter() - t0
                    span.duration += dt
                    self.stack.pop()
                    if span.parent is not None:
                        span.parent.child += dt
                yield item
        return traced

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.leaf_calls.get(name, 0) + sum(
            1 for s in self.spans if s.name == name)

    def total(self, name: str) -> float:
        """Inclusive time of a layer; nested calls of the same layer are
        counted once."""
        if name in self.leaf_seconds:
            return self.leaf_seconds[name]
        return sum(s.duration for s in self.spans if s.name == name and
                   not _inside(s.parent, name))

    def self_time(self, name: str) -> float:
        if name in self.leaf_seconds:
            return self.leaf_seconds[name]
        return sum(s.duration - s.child for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        names = {s.name for s in self.spans} | set(self.leaf_seconds)
        return {name: self.self_time(name) for name in sorted(names)}

    def edges(self) -> list[tuple[str, str, int, float]]:
        """(parent, child, calls, seconds) per parent link; "-" is the
        root."""
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            edge = out[(s.parent.name if s.parent else "-", s.name)]
            edge[0] += 1
            edge[1] += s.duration
        return [(p, c, n, t) for (p, c), (n, t) in sorted(out.items())]

    def check_expected(self, workload: str) -> None:
        missing = [layer for layer, workloads in EXPECTED_LAYERS.items()
                   if workload in workloads and self.calls(layer) == 0]
        if missing:
            raise TraceError(f"layers expected on {workload} recorded no "
                             f"calls: {', '.join(missing)}")


def _inside(span: _Span | None, name: str) -> bool:
    while span is not None:
        if span.name == name:
            return True
        span = span.parent
    return False
