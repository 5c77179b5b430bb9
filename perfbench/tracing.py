"""Spans recorded from the benchmark's side of each layer's public calls.

Nothing here edits the program: :func:`instrument` wraps public entry
points (``GBO`` unit verbs, the read callbacks, ``DerivedCache``
lookups, ``Renderer.draw``/``image``, ``write_ppm``, ``ComputePool.
submit`` and ``ShardedGBO.render_all``) for the duration of a traced
run and restores them after. Spans live in memory and are written at
exit as Chrome trace-event JSON (viewable in Perfetto).

A span's *self time* is its interval minus the part its child spans
cover, children on other threads included. Where several leaf spans of
one tree run at once (compute-pool threads), each instant is shared
equally between them, so the self times of a tree add up to its root's
wall exactly — which is what lets the per-layer table plus an
unattributed row sum to the loop wall.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Layers in report order; a span's layer is its name up to the first dot.
#: ``bench`` is the benchmark's own work inside the frame loop (frame
#: checks). Two more span kinds are not layers: ``pass`` roots each
#: pass's tree, and ``setup`` spans (engine construction, pool spawn,
#: teardown) fall outside the frame loop.
LAYERS = ("io", "core", "derived", "compute", "viz", "parallel", "bench")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    frame: Optional[int]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self):
        self.spans: List[Span] = []
        self.frame: Optional[int] = None
        #: Triangles handed to ``Renderer.draw`` (the renderer's own
        #: count is per Renderer, and Renderers are per frame).
        self.triangles_drawn = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             frame: Optional[int] = None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        if frame is None:
            frame = self.frame
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   threading.get_ident(), frame))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_task(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as a child of the span current *now*, on
        whichever thread later runs it (compute-pool submission)."""
        parent = self.current()
        frame = self.frame

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, parent=parent, frame=frame):
                return fn(*args, **kwargs)

        return traced

    def write_chrome(self, path: str) -> None:
        """Write every span as Chrome trace-event JSON."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "cat": s.layer, "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1, "tid": s.thread,
                "args": {"id": s.span_id, "parent": s.parent,
                         "frame": s.frame},
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, f)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]
               ) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Self time of every span, by the rule in the module docstring,
    and the root of every span's tree.

    Spans are grouped into trees by parent links (a span whose parent
    was not recorded is a root). Within a tree, each elementary interval
    between span boundaries goes to the active spans none of whose
    children are active, split equally between them.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    root_of: Dict[int, int] = {}

    def find_root(span: Span) -> int:
        path = []
        node = span
        while node.span_id not in root_of:
            path.append(node.span_id)
            if node.parent is None or node.parent not in by_id:
                root_of[node.span_id] = node.span_id
                break
            node = by_id[node.parent]
        root = root_of[node.span_id]
        for span_id in path:
            root_of[span_id] = root
        return root

    trees: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        trees[find_root(s)].append(s)

    result = {s.span_id: 0.0 for s in spans}
    for members in trees.values():
        events = []
        for s in members:
            events.append((s.start, 1, s.span_id))
            events.append((s.end, 0, s.span_id))
        events.sort()
        # Active span -> its active children. A child outliving its
        # parent is handed to the nearest active ancestor, so it keeps
        # covering that ancestor's interval.
        active: Dict[int, set] = {}
        parent_of = {s.span_id: s.parent for s in members}

        def active_ancestor(span_id: Optional[int]) -> Optional[int]:
            while span_id is not None and span_id not in active:
                span_id = parent_of.get(span_id)
            return span_id

        prev = None
        for when, kind, span_id in events:
            if prev is not None and when > prev and active:
                leaves = [a for a, kids in active.items() if not kids]
                share = (when - prev) / len(leaves)
                for leaf in leaves:
                    result[leaf] += share
            prev = when
            if kind == 1:
                active[span_id] = set()
                parent = active_ancestor(parent_of[span_id])
                parent_of[span_id] = parent
                if parent is not None:
                    active[parent].add(span_id)
            else:
                kids = active.pop(span_id)
                parent = active_ancestor(parent_of[span_id])
                if parent is not None:
                    active[parent].discard(span_id)
                    active[parent].update(kids)
                for kid in kids:
                    parent_of[kid] = parent
    return result, root_of


def layer_table(spans: List[Span], selfs: Dict[int, float],
                in_loop: Callable[[Span], bool]
                ) -> Dict[str, Dict[str, float]]:
    """Per-layer count, sum, self, p50 and max of span durations.

    ``self_s`` counts only spans for which ``in_loop`` holds (those on
    the frame loop's critical path); spans of background threads with
    no parent in the loop, such as prefetch reads, still count in the
    other columns.
    """
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        grouped[s.layer].append(s)
    table = {}
    for layer, members in grouped.items():
        durations = sorted(s.duration for s in members)
        table[layer] = {
            "count": len(members),
            "sum_s": sum(durations),
            "self_s": sum(selfs[s.span_id] for s in members
                          if in_loop(s)),
            "p50_s": durations[len(durations) // 2],
            "max_s": durations[-1],
        }
    return table


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
#: Pool task callables named after the layer whose work they carry.
_TASK_SPANS = {
    "_extract": "viz.extract",
    "marching_tets_pieces": "viz.extract",
    "_composite_tile": "viz.raster",
}


@contextmanager
def instrument(tracer: Tracer, on_gbo_close: Optional[Callable] = None):
    """Wrap the layers' public entry points with spans for the block.

    ``on_gbo_close(gbo)`` runs just before each ``GBO.close`` so the
    caller can read what only a live engine reports (its memory high
    water mark).
    """
    from repro.core.compute import ComputePool
    from repro.core.database import GBO
    from repro.core.derived import DerivedCache
    from repro.parallel.sharded import ShardedGBO
    from repro.viz import apollo, voyager
    from repro.viz.render import Renderer

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    orig_init = GBO.__init__
    orig_close = GBO.close

    def init(self, *args, **kwargs):
        with tracer.span("setup.engine"):
            orig_init(self, *args, **kwargs)
        # read_unit/wait_unit are bound per instance by the constructor.
        self.read_unit = tracer.wrap(self.read_unit, "core.read_unit")
        wait = self.wait_unit

        def wait_unit(name):
            if name.startswith("snap:"):
                tracer.frame = int(name.split(":")[1])
            with tracer.span("core.wait_unit"):
                return wait(name)

        self.wait_unit = wait_unit

    def close(self):
        if on_gbo_close is not None and not self.closed:
            on_gbo_close(self)
        with tracer.span("setup.engine"):
            return orig_close(self)

    patch(GBO, "__init__", init)
    patch(GBO, "close", close)
    for verb in ("add_unit", "finish_unit", "delete_unit",
                 "try_wait_unit"):
        patch(GBO, verb, tracer.wrap(GBO.__dict__[verb], f"core.{verb}"))

    orig_goc = DerivedCache.get_or_compute

    def get_or_compute(self, key, compute, nbytes=None):
        return orig_goc(self, key, tracer.wrap(compute, "viz.extract"),
                        nbytes=nbytes)

    patch(DerivedCache, "get_or_compute", get_or_compute)
    patch(DerivedCache, "get",
          tracer.wrap(DerivedCache.get, "derived.lookup"))
    patch(DerivedCache, "put",
          tracer.wrap(DerivedCache.put, "derived.lookup"))
    patch(DerivedCache, "token",
          tracer.wrap(DerivedCache.token, "derived.token"))

    traced_draw = tracer.wrap(Renderer.draw, "viz.raster")

    def draw(self, soup, *args, **kwargs):
        tracer.triangles_drawn += soup.n_triangles
        return traced_draw(self, soup, *args, **kwargs)

    patch(Renderer, "draw", draw)
    patch(Renderer, "image", tracer.wrap(Renderer.image, "viz.encode"))
    patch(voyager, "write_ppm",
          tracer.wrap(voyager.write_ppm, "viz.encode"))

    def traced_read_fn_factory(factory):
        def make(*args, **kwargs):
            return tracer.wrap(factory(*args, **kwargs), "io.read")
        return make

    patch(voyager, "make_snapshot_read_fn",
          traced_read_fn_factory(voyager.make_snapshot_read_fn))
    patch(apollo, "make_snapshot_read_fn",
          traced_read_fn_factory(apollo.make_snapshot_read_fn))

    orig_submit = ComputePool.submit

    def submit(self, fn, *args, priority=0.0, **kwargs):
        name = _TASK_SPANS.get(getattr(fn, "__name__", ""), "compute.task")
        return orig_submit(self, tracer.wrap_task(fn, name), *args,
                           priority=priority, **kwargs)

    patch(ComputePool, "submit", submit)
    patch(ShardedGBO, "render_all",
          tracer.wrap(ShardedGBO.render_all, "parallel.render_all"))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
