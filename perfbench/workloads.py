"""The four workloads: one closed-loop client each, driving only the
program's public surfaces.

A run repeats *passes* until its time is up. A pass is one complete use
of the program: construct it, run the frame loop, tear it down. Every
frame of every pass is compared with the serial-O reference digest of
its snapshot. Set-up is measured apart from the passes, by set-up-only
cycles: construct the program, start its workers or hosts where it has
them, and tear it down, with no frames.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from inputs import DATASETS, Inputs
from measure import PeakRss, file_digest, image_digest
from tracing import Tracer

#: Compute workers (or shard hosts) per workload: the benchmark is sized
#: for a 2-core host, and more would only oversubscribe it.
WORKERS = 2


@dataclass
class PassRecord:
    """One pass: its frame loop and checks."""

    loop_s: float
    latencies: List[float]
    frames: int
    failed: int
    peak_rss: int = 0
    #: Raw per-layer counters for the pass (summed across passes,
    #: except ``*_peak`` entries, which take the max).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Per-frame latencies are observable (False for sharded_fleet).
    per_frame: bool = True


@dataclass
class Context:
    inputs: Inputs
    workdir: str
    tracer: Optional[Tracer] = None
    #: Passes run so far in this measurement.
    pass_index: int = 0
    #: Stats of each GBO closed during the pass (traced runs only).
    closed_engines: List[dict] = field(default_factory=list)

    def span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def set_frame(self, frame: int) -> None:
        if self.tracer is not None:
            self.tracer.frame = frame


def _camera():
    from repro.viz.camera import Camera

    # The framing Voyager, ApolloSession and the shard hosts all use.
    return Camera.fit_bounds((-1.7, -1.7, 0.0), (1.7, 1.7, 10.0))


def frame_bytes() -> int:
    """Bytes of one rendered frame (RGB, 8 bits per channel)."""
    camera = _camera()
    return camera.width * camera.height * 3


def _engine_counters(ctx: Context, counters: Dict[str, float]) -> None:
    """Fold the stats of the engines closed during the pass."""
    for engine in ctx.closed_engines:
        stats = engine["stats"]
        for key in ("wait_hits", "wait_misses", "io_thread_read_seconds",
                    "io_thread_blocked_seconds", "evictions",
                    "units_reloaded", "queries", "derived_hits",
                    "derived_misses", "derived_evictions",
                    "compute_tasks", "compute_task_seconds",
                    "compute_steals", "compute_dispatches",
                    "compute_fallback_inline", "compute_token_bytes",
                    "compute_result_token_bytes"):
            counters[key] = counters.get(key, 0) + stats[key]
        counters["wait_s"] = (counters.get("wait_s", 0)
                              + stats["visible_io_seconds"])
        counters["queue_depth_peak"] = max(
            counters.get("queue_depth_peak", 0), stats["queue_depth_peak"])
        counters["mem_peak_bytes_peak"] = max(
            counters.get("mem_peak_bytes_peak", 0), engine["mem_peak"])
    ctx.closed_engines.clear()


def _io_counters(io: Dict[str, float], counters: Dict[str, float]) -> None:
    counters["bytes_read"] = io["bytes_read"]
    counters["read_calls"] = io["read_calls"]
    counters["seeks"] = io["seeks"]
    counters["virtual_s"] = io["virtual_seconds"]


# ----------------------------------------------------------------------
# batch_movie
# ----------------------------------------------------------------------
def _batch_config(ctx: Context, **kwargs):
    from repro.viz.voyager import VoyagerConfig

    return VoyagerConfig(
        data_dir=ctx.inputs.directory, test="complex", mode="TG",
        compute_workers=WORKERS, compute_backend="process", **kwargs)


def batch_movie_setup(ctx: Context) -> None:
    from repro.viz.voyager import Voyager

    # No snapshots: the engine and its process pool start and stop.
    Voyager(_batch_config(ctx, snapshot_indices=[])).run()


def batch_movie_pass(ctx: Context) -> PassRecord:
    """Voyager TG over the complex op-set on the process pool, frames
    written as PPM; latency is Voyager's wait-to-written per snapshot."""
    from repro.viz.voyager import Voyager

    inputs = ctx.inputs
    out = os.path.join(ctx.workdir, "frames")
    result = Voyager(_batch_config(ctx, out_dir=out)).run()
    # Checked after the run, outside the loop wall.
    failed = inputs.spec.n_steps - len(result.images)
    for step, path in enumerate(result.images):
        if file_digest(path) != inputs.reference.get(step):
            failed += 1
    shutil.rmtree(out, ignore_errors=True)
    counters = {"triangles": result.triangles}
    _io_counters({"bytes_read": result.bytes_read,
                  "read_calls": result.read_calls, "seeks": result.seeks,
                  "virtual_seconds": result.virtual_io_s}, counters)
    _engine_counters(ctx, counters)
    return PassRecord(loop_s=result.total_wall_s,
                      latencies=list(result.per_snapshot_wall),
                      frames=result.n_snapshots, failed=failed,
                      counters=counters)


# ----------------------------------------------------------------------
# paced_stream
# ----------------------------------------------------------------------
#: Budget for paced_stream: about three snapshots of the simple op-set's
#: fields (470 KB each) plus their derived entries, so the prefetcher
#: runs ahead and then blocks on memory.
PACED_BUDGET_MB = 3.0


def _paced_engine(gops):
    from repro.core.database import GBO
    from repro.io.readers import solid_schema
    from repro.viz.pipeline import Pipeline

    gbo = GBO(mem_mb=PACED_BUDGET_MB, background_io=True, io_workers=1,
              compute_workers=WORKERS, compute_backend="thread")
    solid_schema().ensure(gbo)
    return gbo, Pipeline(gops, camera=_camera(), pool=gbo.compute)


def paced_stream_setup(ctx: Context) -> None:
    from repro.viz.gops import test_gops

    gbo, _ = _paced_engine(test_gops("simple"))
    gbo.close()


def paced_stream_pass(ctx: Context) -> PassRecord:
    """The paper's TG pattern through the GBO API: per-file units read
    by one paced prefetch thread, a two-thread compute pool."""
    from repro.gen.snapshot import load_manifest
    from repro.io.disk import ENGLE_DISK, IoStats
    from repro.io.readers import file_unit_name, make_file_read_fn
    from repro.viz.gops import test_gops
    from repro.viz.voyager import GodivaSnapshotData

    inputs = ctx.inputs
    manifest = load_manifest(inputs.directory)
    gops = test_gops("simple")
    io_stats = IoStats()
    read_fn = make_file_read_fn(manifest, fields=gops.fields_used(),
                                stats=io_stats, profile=ENGLE_DISK,
                                pace=True)
    if ctx.tracer is not None:
        read_fn = ctx.tracer.wrap(read_fn, "io.read")
    n_files = inputs.spec.files_per_snapshot
    steps = range(len(manifest.snapshots))

    gbo, pipeline = _paced_engine(gops)
    t_loop = time.perf_counter()
    latencies: List[float] = []
    failed = 0
    triangles = 0
    try:
        for step in steps:
            for index in range(n_files):
                gbo.add_unit(file_unit_name(step, index), read_fn)
        for step in steps:
            ctx.set_frame(step)
            f0 = time.perf_counter()
            for index in range(n_files):
                gbo.wait_unit(file_unit_name(step, index))
            result = pipeline.process(GodivaSnapshotData(
                gbo, manifest.snapshots[step].tsid, manifest.block_ids))
            for index in range(n_files):
                gbo.delete_unit(file_unit_name(step, index))
            latencies.append(time.perf_counter() - f0)
            triangles += result.triangles
            with ctx.span("bench.check"):
                if image_digest(result.image) != inputs.reference[step]:
                    failed += 1
        loop = time.perf_counter() - t_loop
    finally:
        gbo.close()
    counters = {"triangles": triangles}
    _io_counters(io_stats.snapshot(), counters)
    _engine_counters(ctx, counters)
    return PassRecord(loop_s=loop, latencies=latencies,
                      frames=len(latencies), failed=failed,
                      counters=counters)


# ----------------------------------------------------------------------
# explore_browse
# ----------------------------------------------------------------------
#: Below the walks' working set (each step's unit plus its 320x240
#: frame, 230 KB), so units and cached frames evict.
EXPLORE_BUDGET_MB = 1.0
#: Views per walk; each pass is one fresh session replaying one walk.
EXPLORE_VIEWS = 30


def explore_walk(inputs: Inputs, index: int) -> List[int]:
    """The seed's ``index``-th browse walk. Each pass replays the next
    walk: how often one walk revisits recent steps varies widely from
    walk to walk, and a run averages over many of them."""
    from repro.viz.apollo import interactive_trace

    return interactive_trace(inputs.spec.n_steps, EXPLORE_VIEWS,
                             "browse", 1000 * inputs.seed + index)


def _explore_session(ctx: Context):
    from repro.viz.apollo import ApolloSession

    return ApolloSession(ctx.inputs.directory, test="simple",
                         mem_mb=EXPLORE_BUDGET_MB, render=True)


def explore_browse_setup(ctx: Context) -> None:
    _explore_session(ctx).close()


def explore_browse_pass(ctx: Context) -> PassRecord:
    """A plain ApolloSession (foreground reads, finish_unit retention,
    LRU) replaying the seeded browse walk with zero think time."""
    inputs = ctx.inputs
    walk = explore_walk(inputs, ctx.pass_index)
    drawn = ctx.tracer.triangles_drawn if ctx.tracer is not None else 0
    session = _explore_session(ctx)
    t_loop = time.perf_counter()
    latencies: List[float] = []
    failed = 0
    try:
        for view, step in enumerate(walk):
            ctx.set_frame(view)
            f0 = time.perf_counter()
            image = session.view(step)
            latencies.append(time.perf_counter() - f0)
            with ctx.span("bench.check"):
                if image_digest(image) != inputs.reference[step]:
                    failed += 1
        loop = time.perf_counter() - t_loop
        view_stats = session.stats
        io = session.io_stats.snapshot()
    finally:
        session.close()
    counters = {"views": view_stats.views,
                "view_hits": view_stats.cache_hits}
    if ctx.tracer is not None:
        # ApolloSession reports no triangle count; frame-cache hits draw
        # none, so this is what the views actually rasterized.
        counters["triangles"] = ctx.tracer.triangles_drawn - drawn
    _io_counters(io, counters)
    _engine_counters(ctx, counters)
    return PassRecord(loop_s=loop, latencies=latencies,
                      frames=len(latencies), failed=failed,
                      counters=counters)


# ----------------------------------------------------------------------
# sharded_fleet
# ----------------------------------------------------------------------
#: Ample: budget pressure is deliberately not forced on this workload.
SHARDED_BUDGET_MB = 384.0


def _fleet(ctx: Context, steps: Optional[int] = None):
    from repro.parallel.sharded import ShardedGBO

    return ShardedGBO(ctx.inputs.directory, n_shards=WORKERS,
                      test="complex", mem_mb=SHARDED_BUDGET_MB,
                      steps=steps)


def sharded_fleet_setup(ctx: Context) -> None:
    # No snapshots: the hosts spawn, report done and shut down.
    cluster = _fleet(ctx, steps=0)
    try:
        cluster.render_all()
    finally:
        cluster.close()


def sharded_fleet_pass(ctx: Context) -> PassRecord:
    """ShardedGBO over two spawned shard hosts (serial render in each)
    on the complex op-set. Host spawn happens inside ``render_all``, so
    it is part of the loop; frames arrive only when the fleet is done,
    so latency is observable per pass, not per frame."""
    inputs = ctx.inputs
    cluster = _fleet(ctx)
    failed = inputs.spec.n_steps
    try:
        t_loop = time.perf_counter()
        result = cluster.render_all()
        loop = time.perf_counter() - t_loop
        # Frames are views into shard memory: check before close.
        failed -= sum(image_digest(frame) == inputs.reference.get(step)
                      for step, frame in result.frames.items())
    finally:
        cluster.close()
    frames = len(result.frames)
    counters = {
        "triangles": result.triangles,
        "pressure_rounds": result.pressure_rounds,
        "reclaims": result.reclaims,
        "shard_frames_max": max(r.n_frames for r in result.shards),
        "shard_frames_sum": sum(r.n_frames for r in result.shards),
        "shard_count": len(result.shards),
        "shard_wait_s": sum(r.stats.wait_seconds for r in result.shards),
    }
    _io_counters(result.io_totals, counters)
    ctx.closed_engines.append({"stats": result.stats.snapshot(),
                               "mem_peak": 0})
    _engine_counters(ctx, counters)
    return PassRecord(loop_s=loop, latencies=[loop / max(frames, 1)],
                      frames=frames, failed=failed, counters=counters,
                      per_frame=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    run_pass: Callable[[Context], PassRecord]
    #: Construct, start and tear down the program with no frames.
    setup_cycle: Callable[[Context], None]
    budget_mb: float
    #: Frame latencies a run of the benchmark's configured seconds
    #: recorded on the seed commit; fixes the tail's percentile (see
    #: ``measure.tail_percentile``). 0: the tail is the median.
    tail_reference_n: int
    #: Frames a pass renders (None: one per snapshot of the dataset).
    pass_frames: Optional[int] = None

    def frames_per_pass(self) -> int:
        if self.pass_frames is not None:
            return self.pass_frames
        return DATASETS[self.dataset].n_steps


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "batch_movie",
            "compute-bound Voyager TG batch on the process pool: "
            "extraction and rasterization dominate, pool spawn lands "
            "in setup_s",
            "complex", batch_movie_pass, batch_movie_setup, 384.0, 56),
        Workload(
            "paced_stream",
            "paced per-file reads through one prefetch thread: the I/O "
            "and prefetch layers carry the run, compute is small",
            "paced", paced_stream_pass, paced_stream_setup,
            PACED_BUDGET_MB, 48),
        Workload(
            "explore_browse",
            "interactive revisits under a budget below the working "
            "set: unit eviction, reloads and derived frame-cache hits",
            "explore", explore_browse_pass, explore_browse_setup,
            EXPLORE_BUDGET_MB, 1500, pass_frames=EXPLORE_VIEWS),
        Workload(
            "sharded_fleet",
            "two spawned shard hosts: placement, spawn, token return "
            "and the budget protocol of repro.parallel",
            "complex", sharded_fleet_pass, sharded_fleet_setup,
            SHARDED_BUDGET_MB, 0),
    )
}


#: A run's setup_s is the median of its set-up-only cycles. Between
#: passes they run for ``SETUP_SHARE`` of the previous pass's wall (at
#: least one cycle), so they sample the run's whole length as the
#: passes do; the run then tops them up to ``SETUP_MIN_S`` of cycles in
#: all. Cheap set-ups (a fraction of a millisecond) need that many
#: cycles for a steady median.
SETUP_SHARE = 0.05
SETUP_MIN_S = 0.5


def setup_cycles(workload: Workload, ctx: Context, samples: List[float],
                 seconds: float) -> float:
    """Append the walls of set-up-only cycles run for ``seconds`` (at
    least one cycle); return the time they took."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.setup_cycle(ctx)
        samples.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if spent >= seconds:
            return spent


def measure(workload: Workload, ctx: Context, seconds: float,
            setups: Optional[List[float]] = None) -> List[PassRecord]:
    """Run passes until ``seconds`` of pass wall have gone (at least
    one), with set-up-only cycles after each pass when ``setups`` is
    given to collect their walls.

    A pass that raises counts all its frames as failed and ends the
    measurement; the traceback goes to stderr.
    """
    records: List[PassRecord] = []
    rss = PeakRss()
    setup_wall = 0.0
    pass_wall = 0.0
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        if setups is not None and records:
            spent = setup_cycles(workload, ctx, setups,
                                 SETUP_SHARE * pass_wall)
            setup_wall += spent
            deadline += spent
        ctx.pass_index = len(records)
        gc.collect()
        rss.start()
        t0 = time.perf_counter()
        try:
            if ctx.tracer is not None:
                with ctx.tracer.span("pass"):
                    record = workload.run_pass(ctx)
            else:
                record = workload.run_pass(ctx)
        except Exception:
            rss.stop()
            traceback.print_exc(file=sys.stderr)
            n = workload.frames_per_pass()
            records.append(PassRecord(0.0, [], n, n))
            break
        pass_wall = time.perf_counter() - t0
        record.peak_rss = rss.stop()
        records.append(record)
    if setups is not None and setup_wall < SETUP_MIN_S:
        setup_cycles(workload, ctx, setups, SETUP_MIN_S - setup_wall)
    return records
