"""The repository benchmark: four GODIVA workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_movie --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and half traced, prints the
per-layer table and writes the spans as Chrome trace-event JSON under
``.perfbench/traces``. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is non-zero when any frame
errored or differed from the serial-O reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(workload, records, setups: List[float]
               ) -> Dict[str, Dict[str, object]]:
    """The user-visible metrics of a measured (untraced) run."""
    from measure import tail, tail_percentile

    frames = sum(r.frames for r in records)
    loop = sum(r.loop_s for r in records)
    # A run whose only pass failed has no latencies; it reports NaN
    # (and is not correct anyway).
    latencies = [x for r in records for x in r.latencies] or [math.nan]
    percentile = tail_percentile(workload.tail_reference_n)
    tail_value, beyond = tail(latencies, percentile)
    n = len(latencies)
    return {
        "setup_s": {**_metric(statistics.median(setups), "s"),
                    "n": len(setups)},
        "frames_per_s": {**_metric(frames / loop if loop else 0.0,
                                   "1/s"), "n": frames},
        "frame_s_p50": {**_metric(statistics.median(latencies), "s"),
                        "n": n},
        "frame_s_tail": {**_metric(tail_value, "s"), "n": n,
                         "percentile": percentile, "beyond": beyond},
        "peak_rss_mb": {**_metric(max(r.peak_rss for r in records)
                                  / 2 ** 20, "MB"), "n": len(records)},
    }


def _counters(records) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for r in records:
        for key, value in r.counters.items():
            if key.endswith("_peak"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def per_layer(records, tracer, untraced_fps: float):
    """Per-layer metrics of a traced run, plus the printed table.

    Times are per frame (per view on explore_browse) over every traced
    pass. Counts and ratios come from the first traced pass, which does
    the same work on every run of a seed (later explore_browse passes
    replay further walks, as many as the time allows); counts are per
    frame too. Peaks are the run's maximum.
    """
    from measure import fmt_ratio, ratio
    from tracing import LAYERS, layer_table, self_times

    c = _counters(records)
    first = records[0].counters
    frames = sum(r.frames for r in records) or 1
    first_frames = records[0].frames or 1
    loop = sum(r.loop_s for r in records)
    spans = tracer.spans
    selfs, root_of = self_times(spans)
    by_id = {s.span_id: s for s in spans}

    def in_loop(span) -> bool:
        return by_id[root_of[span.span_id]].name == "pass"

    table = layer_table(spans, selfs, in_loop)
    name_self: Dict[str, float] = {}
    for s in spans:
        name_self[s.name] = name_self.get(s.name, 0.0) + selfs[s.span_id]
    attributed = sum(table[layer]["self_s"] for layer in LAYERS
                     if layer in table)
    unattributed = loop - attributed
    traced_fps = frames / loop if loop else 0.0

    def time_(key):
        return c.get(key, 0) / frames

    def count(key):
        return first.get(key, 0) / first_frames

    def base(hits_key, *total_keys):
        hits = first.get(hits_key, 0)
        return hits, sum(first.get(k, 0) for k in total_keys)

    bases = {
        "core.wait_hit_ratio": base("wait_hits", "wait_hits",
                                    "wait_misses"),
        "derived.hit_ratio": base("derived_hits", "derived_hits",
                                  "derived_misses"),
        "viz.view_hit_ratio": base("view_hits", "views"),
        "parallel.shard_frames_skew": (
            first.get("shard_frames_max", 0),
            first.get("shard_frames_sum", 0)
            / max(first.get("shard_count", 0), 1)),
    }
    metrics = {
        "io.read_s": (name_self.get("io.read", 0.0) / frames, "s/frame"),
        "io.bytes_read": (count("bytes_read"), "B/frame"),
        "io.read_calls": (count("read_calls"), "1/frame"),
        "io.seeks": (count("seeks"), "1/frame"),
        "io.virtual_s": (count("virtual_s"), "s/frame"),
        "core.wait_s": (time_("wait_s"), "s/frame"),
        "core.io_busy_s": (time_("io_thread_read_seconds"), "s/frame"),
        "core.io_blocked_s": (time_("io_thread_blocked_seconds"),
                              "s/frame"),
        "core.queue_depth_peak": (c.get("queue_depth_peak", 0), "count"),
        "core.evictions": (count("evictions"), "1/frame"),
        "core.units_reloaded": (count("units_reloaded"), "1/frame"),
        "core.mem_peak_mb": (c.get("mem_peak_bytes_peak", 0) / 2 ** 20,
                             "MB"),
        "core.queries": (count("queries"), "1/frame"),
        "derived.evictions": (count("derived_evictions"), "1/frame"),
        "compute.tasks": (count("compute_tasks"), "1/frame"),
        "compute.task_s": (time_("compute_task_seconds"), "s/frame"),
        "compute.steals": (count("compute_steals"), "1/frame"),
        "compute.dispatches": (count("compute_dispatches"), "1/frame"),
        "compute.fallback_inline": (count("compute_fallback_inline"),
                                    "1/frame"),
        "compute.token_mb": ((count("compute_token_bytes")
                              + count("compute_result_token_bytes"))
                             / 2 ** 20, "MB/frame"),
        "viz.extract_s": (name_self.get("viz.extract", 0.0) / frames,
                          "s/frame"),
        "viz.raster_s": (name_self.get("viz.raster", 0.0) / frames,
                         "s/frame"),
        "viz.encode_s": (name_self.get("viz.encode", 0.0) / frames,
                         "s/frame"),
        "viz.triangles": (count("triangles"), "1/frame"),
        "parallel.pressure_rounds": (count("pressure_rounds"), "1/frame"),
        "parallel.reclaims": (count("reclaims"), "1/frame"),
        "parallel.shard_wait_s": (time_("shard_wait_s"), "s/frame"),
    }
    for name, (hits, total) in bases.items():
        metrics[name] = (ratio(hits, total), "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            table.get(layer, {}).get("self_s", 0.0) / frames, "s/frame")
    metrics["trace.unattributed_share"] = (ratio(unattributed, loop),
                                           "ratio")
    metrics["trace.fps_ratio"] = (ratio(traced_fps, untraced_fps), "ratio")

    lines = [f"per-layer split of {loop:.3f} s loop wall over {frames} "
             f"frames (self = share of the loop wall):",
             f"  {'layer':<10}{'count':>8}{'sum_s':>10}{'self_s':>10}"
             f"{'self%':>7}{'p50_ms':>9}{'max_ms':>9}"]
    for layer in LAYERS + ("setup",):
        row = table.get(layer)
        if row is None:
            continue
        lines.append(
            f"  {layer:<10}{row['count']:>8}{row['sum_s']:>10.3f}"
            f"{row['self_s']:>10.3f}"
            f"{100 * ratio(row['self_s'], loop):>7.1f}"
            f"{1e3 * row['p50_s']:>9.3f}{1e3 * row['max_s']:>9.3f}")
    lines.append(f"  {'unattrib.':<10}{'':>8}{'':>10}{unattributed:>10.3f}"
                 f"{100 * ratio(unattributed, loop):>7.1f}")
    lines.append("  (setup self is outside the loop wall; background "
                 "spans such as prefetch reads count in sum, not self)")
    lines.append(f"tracing overhead: traced {traced_fps:.4f} vs untraced "
                 f"{untraced_fps:.4f} frames/s "
                 f"(ratio {ratio(traced_fps, untraced_fps):.3f})")
    lines.append("ratios (first traced pass), with their base:")
    for name, (hits, total) in bases.items():
        lines.append("  " + fmt_ratio(name, hits, total))
    return ({name: _metric(v, u) for name, (v, u) in metrics.items()},
            lines)


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The program joins its workers and shard hosts when it closes; what
    is left is multiprocessing's resource tracker, which the process
    pool and the shard hosts start and which would otherwise outlive
    the run while it sweeps up. Any other straggler is terminated.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # Closing the tracker's pipe ends it; _stop() then waits for it.
    resource_tracker._resource_tracker._stop()


def main(argv: List[str]) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        # Only ever measure the checkout's own program.
        print(f"repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from inputs import DATASETS, prepare
    from measure import host_record, ratio
    from tracing import Tracer, instrument
    from workloads import WORKLOADS, Context, frame_bytes, measure

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(WORKLOADS))
    workload = WORKLOADS[args.workload]
    host = host_record()
    inputs = prepare(ROOT, DATASETS[workload.dataset], args.seed)
    workdir = os.path.join(ROOT, ".perfbench", "work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(inputs=inputs, workdir=workdir)
    try:
        if args.trace:
            untraced = measure(workload, ctx, args.seconds / 2)
            tracer = Tracer()
            ctx.tracer = tracer

            def on_close(gbo):
                ctx.closed_engines.append({
                    "stats": gbo.stats.snapshot(),
                    "mem_peak": gbo.mem_high_water_bytes,
                })

            with instrument(tracer, on_gbo_close=on_close):
                records = measure(workload, ctx, args.seconds / 2)
            u_frames = sum(r.frames for r in untraced)
            u_loop = sum(r.loop_s for r in untraced)
            metrics, layer_lines = per_layer(
                records, tracer, u_frames / u_loop if u_loop else 0.0)
            records = untraced + records
            trace_dir = os.path.join(ROOT, ".perfbench", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(
                trace_dir, f"{workload.name}-seed{args.seed}.json")
            tracer.write_chrome(trace_path)
            layer_lines.append(f"chrome trace: {trace_path}")
        else:
            setups: List[float] = []
            records = measure(workload, ctx, args.seconds, setups)
            metrics = end_to_end(workload, records, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["loadavg_end"] = list(os.getloadavg())

    attempted = sum(r.frames for r in records)
    failed = sum(r.failed for r in records)
    frames_of_pass = max((r.frames for r in records), default=0)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: dt {inputs.dt:.4e} s, dataset "
          f"{inputs.spec.name} (scale {inputs.spec.scale}, "
          f"{inputs.spec.n_steps} snapshots x "
          f"{inputs.spec.files_per_snapshot} files)")
    working_set = inputs.spec.n_steps * (inputs.snapshot_file_bytes
                                         + frame_bytes())
    print(f"input size: {inputs.snapshot_file_bytes} B of files per "
          f"snapshot; working set {working_set} B (every snapshot's "
          f"files and frame) vs GBO budget "
          f"{workload.budget_mb * 2 ** 20:.0f} B; "
          f"{inputs.triangles_per_frame:.0f} triangles/frame; "
          f"{frames_of_pass} frames/pass")
    print(f"host: {json.dumps(host)}")
    ref_frames = len(inputs.reference)
    print(f"baseline (serial O build, single thread"
          f"{', cached' if inputs.reference_cached else ''}): "
          f"{inputs.reference_wall_s:.3f} s for {ref_frames} frames, "
          f"{inputs.reference_wall_s / ref_frames:.4f} s/frame")
    print(f"passes {len(records)}, frames {attempted}")
    if args.trace:
        for line in layer_lines:
            print(line)
    else:
        if not records[0].per_frame:
            print("note: sharded_fleet frames arrive only when the fleet "
                  "is done; frame_s_* are per-pass means (n = passes)")
        for name, m in metrics.items():
            extra = ""
            if "percentile" in m:
                p = m["percentile"]
                extra = (f" (p{p}, {m['beyond']} beyond)" if p is not None
                         else " (median)")
            print(f"  {name:<14} {m['value']:>12.6f} {m['unit']:<5} "
                  f"n={m['n']}{extra}")
    # Usually 0, so not a result-line metric: "attempted" and "failed"
    # carry it there.
    print(f"  {'failed_frac':<14} {ratio(failed, attempted):>12.6f} "
          f"{'ratio':<5} n={attempted} ({failed}/{attempted})")
    correct = failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
