"""R1 — tiled-parallel rendering: complex test, inline vs pooled.

Runs the full complex op-set over a dense mesh with the compute plane
at 1 (tiles composited inline), 2, and 4 workers; emits
``BENCH_render_tiles.json``. Every row records the host's
``cpu_count``.

Acceptance bars (asserted here):

* compute-wall speedup of ``compute_workers=4`` over inline of at
  least ``0.5 * min(4, cpu_count)`` — 2x on a host with four or more
  cores, parity on two;
* rendered frames bit-identical between every pool size and inline.
"""

import os

import pytest

from repro.bench.derived import image_bytes
from repro.bench.tiles import (
    render_tiles_json,
    run_tiles,
    scenario_row,
    speedup_bar,
)
from repro.bench.workloads import ensure_dataset

DATA_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), ".data"
)

#: Dense enough that rasterization dominates the frame (~28k
#: triangles/frame); small enough to generate and render in seconds.
SCALE = 0.3
STEPS = 3

SCENARIOS = (
    ("inline", 1),
    ("tiled2", 2),
    ("tiled4", 4),
)


@pytest.fixture(scope="module")
def tiles_dataset():
    return ensure_dataset(DATA_ROOT, scale=SCALE, n_steps=STEPS,
                          files_per_snapshot=2)


@pytest.fixture(scope="module")
def tile_runs(tiles_dataset, tmp_path_factory):
    """Every scenario over the identical schedule (best-of-2 walls)."""
    runs = {}
    for scenario, workers in SCENARIOS:
        out_dir = str(tmp_path_factory.mktemp(f"frames_{scenario}"))
        runs[scenario] = (workers, run_tiles(
            tiles_dataset, compute_workers=workers, out_dir=out_dir,
        ))
    return runs


def test_render_tiles_bit_identity(tile_runs):
    """Every pool size renders the inline build's exact bytes."""
    _w, inline = tile_runs["inline"]
    frames_inline = image_bytes(inline)
    assert frames_inline
    for scenario in ("tiled2", "tiled4"):
        _w, run = tile_runs[scenario]
        frames = image_bytes(run)
        assert frames.keys() == frames_inline.keys()
        assert all(
            frames[name] == frames_inline[name] for name in frames
        ), f"{scenario} rendered output differs from inline"


def test_render_tiles_speedup(tile_runs):
    """Inline vs 4-worker pool: >= 0.5 * min(4, cpu_count) compute
    wall speedup."""
    _w, inline = tile_runs["inline"]
    _w, tiled = tile_runs["tiled4"]
    assert inline.triangles == tiled.triangles
    assert inline.gbo_stats["compute_tasks"] == 0
    assert tiled.gbo_stats["compute_tasks"] > 0
    cpus = os.cpu_count() or 1
    bar = speedup_bar(cpus)
    speedup = inline.compute_wall_s / tiled.compute_wall_s
    assert speedup >= bar, (
        f"compute speedup {speedup:.2f}x < {bar:.1f}x on {cpus} "
        f"cores (inline {inline.compute_wall_s:.3f}s vs tiled "
        f"{tiled.compute_wall_s:.3f}s)"
    )


def test_render_tiles_json(tile_runs, results_dir):
    rows = [
        scenario_row(name, workers, result)
        for name, (workers, result) in tile_runs.items()
    ]
    _w, inline = tile_runs["inline"]
    _w, tiled = tile_runs["tiled4"]
    identical = image_bytes(inline) == image_bytes(tiled)
    path = render_tiles_json(
        results_dir, rows,
        workload={
            "test": "complex", "mode": "TG",
            "scale": SCALE, "steps": STEPS,
        },
        speedup_compute=inline.compute_wall_s / tiled.compute_wall_s,
        bit_identical=identical,
    )
    assert os.path.exists(path)
