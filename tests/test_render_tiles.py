"""Bit-identity of the tiled rasterizer and its compute plane.

The contract under test (DESIGN.md, compute plane): for any op-set,
memory budget, and mode, frames produced with ``compute_workers > 1``
are **byte-for-byte identical** to the inline build's — tile dispatch,
helping waiters, and frame pipelining change the schedule, never the
pixels — and every dispatch mode (inline, thread, process) matches the
per-triangle reference rasterizer in ``raster_reference.py``.

Marked ``races`` so the sanitizer job replays the threaded paths under
the lockset race detector and lock-order graph.
"""

import numpy as np
import pytest

from repro.core.compute import ComputePool
from repro.core.compute_proc import ProcessComputePool
from repro.core.database import GBO
from repro.errors import DatabaseClosedError
from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.isosurface import TriangleSoup
from repro.viz.render import Renderer
from repro.viz import pipeline as pipeline_module
from repro.viz.voyager import Voyager, VoyagerConfig

from raster_reference import ReferenceRenderer

pytestmark = pytest.mark.races


def run_frames(manifest, test, compute_workers, mode="TG",
               mem_mb=384.0, snapshot_indices=None):
    """Run one Voyager pass, capturing every frame in memory."""
    config = VoyagerConfig(
        data_dir=manifest.directory,
        test=test,
        mode=mode,
        mem_mb=mem_mb,
        compute_workers=compute_workers,
        render=True,
        snapshot_indices=snapshot_indices,
    )
    voyager = Voyager(config)
    frames = []
    voyager._maybe_write_image = (
        lambda step, image, images: frames.append(image.copy())
    )
    result = voyager.run()
    return frames, result


class TestVoyagerBitIdentity:
    @pytest.mark.parametrize("test", ["simple", "medium", "complex"])
    def test_tiled_parallel_matches_serial(self, small_dataset, test):
        serial, _ = run_frames(small_dataset, test, 1)
        tiled, result = run_frames(small_dataset, test, 4)
        assert len(serial) == len(tiled) == 4
        for a, b in zip(serial, tiled):
            assert np.array_equal(a, b)
        assert result.gbo_stats["compute_tasks"] > 0

    def test_identity_under_squeezed_budget(self, small_dataset):
        # A budget tight enough to force evictions between snapshots:
        # the lookahead must degrade to the serial schedule (its
        # try_wait_unit misses) without deadlocking or diverging.
        serial, _ = run_frames(small_dataset, "complex", 1, mem_mb=24.0)
        tiled, _ = run_frames(small_dataset, "complex", 4, mem_mb=24.0)
        for a, b in zip(serial, tiled):
            assert np.array_equal(a, b)

    def test_identity_in_original_mode(self, small_dataset):
        # The O build has no GBO; the standalone pool still tiles.
        serial, _ = run_frames(small_dataset, "medium", 1, mode="O")
        tiled, _ = run_frames(small_dataset, "medium", 4, mode="O")
        for a, b in zip(serial, tiled):
            assert np.array_equal(a, b)

    def test_identity_across_modes(self, small_dataset):
        o_frames, _ = run_frames(small_dataset, "simple", 4, mode="O")
        tg_frames, _ = run_frames(small_dataset, "simple", 4, mode="TG")
        for a, b in zip(o_frames, tg_frames):
            assert np.array_equal(a, b)

    def test_identity_with_revisits(self, small_dataset):
        # Revisits exercise the frame cache (pool skipped entirely) and
        # the finish/delete bookkeeping under the lookahead.
        schedule = [0, 1, 0, 2, 2, 1]
        serial, r1 = run_frames(small_dataset, "simple", 1,
                                snapshot_indices=schedule)
        tiled, r4 = run_frames(small_dataset, "simple", 4,
                               snapshot_indices=schedule)
        assert len(serial) == len(tiled) == len(schedule)
        for a, b in zip(serial, tiled):
            assert np.array_equal(a, b)
        assert r4.triangles == r1.triangles

    def test_written_images_byte_identical(self, small_dataset,
                                           tmp_path):
        # The on-disk artifacts, not just the in-memory arrays.
        for workers, sub in ((1, "serial"), (4, "tiled")):
            config = VoyagerConfig(
                data_dir=small_dataset.directory,
                test="simple",
                mode="TG",
                compute_workers=workers,
                out_dir=str(tmp_path / sub),
                steps=2,
            )
            Voyager(config).run()
        for name in sorted(p.name for p in (tmp_path / "serial").iterdir()):
            a = (tmp_path / "serial" / name).read_bytes()
            b = (tmp_path / "tiled" / name).read_bytes()
            assert a == b


def camera_wide():
    # 200x150 spans a 4x3 grid of 64-pixel tiles, ragged at the edges.
    return Camera(position=(0.0, -5.0, 0.0), look_at=(0.0, 0.0, 0.0),
                  up=(0, 0, 1), width=200, height=150)


def random_soup(n, seed, spread=2.0, behind=0):
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-spread, spread, size=(n, 3, 3))
    if behind:
        # Push one vertex of the first `behind` triangles behind the
        # camera (y <= -5 is behind a camera at y=-5 looking at +y).
        verts[:behind, 0, 1] = -6.0
    values = rng.uniform(0.0, 1.0, size=(n, 3))
    return TriangleSoup(verts, values)


def duplicate_soup():
    # Identical triangles produce identical depths at every covered
    # pixel: the reference keeps the *first* submission (strict
    # z < zbuffer), so the second copy's colors must never show.
    base = random_soup(40, seed=3)
    return TriangleSoup(
        np.concatenate([base.vertices, base.vertices]),
        np.concatenate([base.values, 1.0 - base.values]),
    )


@pytest.fixture(scope="module")
def process_pool():
    with ProcessComputePool(2, name="oracle-proc") as pool:
        yield pool


def draw_all(process_pool, *soups):
    """Draw ``soups`` in order with the reference and each dispatch
    mode."""
    renderers = {"reference": ReferenceRenderer(camera_wide()),
                 "inline": Renderer(camera_wide()),
                 "process": Renderer(camera_wide(), pool=process_pool)}
    with ComputePool(4, spawn_threads=2) as pool:
        renderers["thread"] = Renderer(camera_wide(), pool=pool)
        for renderer in renderers.values():
            for soup in soups:
                renderer.draw(soup, Colormap("rainbow"))
    return renderers


def assert_matches_reference(renderers):
    reference = renderers["reference"]
    for name, renderer in renderers.items():
        assert np.array_equal(renderer._zbuffer, reference._zbuffer), name
        assert np.array_equal(renderer._frame, reference._frame), name
        assert np.array_equal(renderer.image(), reference.image()), name


class TestRendererBitIdentity:
    """Inline, thread and process dispatch against the per-triangle
    reference rasterizer (``tests/raster_reference.py``)."""

    def test_random_soup_identical(self, process_pool):
        for n, seed in ((200, 7), (2000, 8), (500, 9)):
            renderers = draw_all(process_pool, random_soup(n, seed=seed))
            assert_matches_reference(renderers)
        assert process_pool.stats.compute_dispatches > 0

    def test_duplicate_coplanar_triangles_tie_break(self, process_pool):
        assert_matches_reference(draw_all(process_pool,
                                          duplicate_soup()))

    def test_near_plane_cull_parity(self, process_pool):
        soup = random_soup(300, seed=11, behind=40)
        renderers = draw_all(process_pool, soup)
        assert_matches_reference(renderers)
        for renderer in renderers.values():
            assert renderer.triangles_culled == 40

    def test_successive_draws(self, process_pool):
        # The z-buffer carries across draws: a later draw's equal-depth
        # triangle never replaces an earlier draw's.
        soup = random_soup(150, seed=21)
        assert_matches_reference(draw_all(process_pool, soup,
                                          duplicate_soup(), soup))

    @pytest.mark.parametrize("workers", [None, 1])
    def test_serial_pools_run_tiles_inline(self, workers, monkeypatch):
        # No pool, or a pool that is not parallel: the renderer calls
        # the tile kernel itself and submits nothing.
        calls = []
        kernel = Renderer._composite_tile

        def counting(self, *args):
            calls.append(args[0])
            return kernel(self, *args)

        monkeypatch.setattr(Renderer, "_composite_tile", counting)
        pool = None if workers is None else ComputePool(workers)
        soup = random_soup(200, seed=1)
        renderer = Renderer(camera_wide(), pool=pool)
        renderer.draw(soup, Colormap("gray"))
        reference = ReferenceRenderer(camera_wide())
        reference.draw(soup, Colormap("gray"))
        assert len(calls) > 1
        assert np.array_equal(renderer.image(), reference.image())
        if pool is not None:
            assert pool.stats.compute_tasks == 0
            pool.close()


@pytest.mark.parametrize("test", ["simple", "medium", "complex"])
def test_original_build_frame_matches_reference(small_dataset, test,
                                                monkeypatch):
    """One O-build Voyager frame per op-set: inline, thread and process
    builds against the reference rasterizer."""
    def frame(workers, backend="thread"):
        config = VoyagerConfig(
            data_dir=small_dataset.directory, test=test, mode="O",
            compute_workers=workers, compute_backend=backend,
            render=True, snapshot_indices=[1],
        )
        voyager = Voyager(config)
        frames = []
        voyager._maybe_write_image = (
            lambda step, image, images: frames.append(image.copy())
        )
        voyager.run()
        assert len(frames) == 1
        return frames[0]

    builds = {"inline": frame(1), "thread": frame(4),
              "process": frame(2, "process")}
    monkeypatch.setattr(pipeline_module, "Renderer", ReferenceRenderer)
    reference = frame(1)
    for name, image in builds.items():
        assert np.array_equal(image, reference), name


class TestTryWaitUnit:
    def test_miss_on_unknown_unit(self, gbo):
        assert gbo.try_wait_unit("nope") is False

    def test_hit_pins_resident_unit(self, gbo):
        gbo.add_unit("u", lambda db, name: None)
        gbo.wait_unit("u")
        gbo.finish_unit("u")
        before = gbo.stats.wait_hits
        assert gbo.try_wait_unit("u") is True
        assert gbo.stats.wait_hits == before + 1
        # The pin must keep the unit out of the evictable set.
        assert "u" not in gbo._mem.policy
        gbo.finish_unit("u")

    def test_raises_once_closed(self, gbo):
        gbo.close()
        with pytest.raises(DatabaseClosedError):
            gbo.try_wait_unit("u")


class TestEnginePool:
    def test_gbo_owns_a_compute_pool(self):
        with GBO(mem_mb=32, compute_workers=3) as database:
            assert database.compute_workers == 3
            assert database.compute.parallel
            assert database.compute.submit(lambda: 5).wait() == 5
        assert database.compute.closed

    def test_compute_workers_validated(self):
        with pytest.raises(ValueError):
            GBO(mem_mb=32, compute_workers=0)

    def test_default_pool_is_serial(self, gbo):
        assert gbo.compute_workers == 1
        assert not gbo.compute.parallel
