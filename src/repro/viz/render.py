"""A z-buffered software rasterizer.

Projects triangle soups through a :class:`~repro.viz.camera.Camera`,
shades them with per-vertex colors (Gouraud) modulated by a single
directional light, and composites into an RGB image — the VTK-replacement
needed to make Voyager produce actual image files.

One rasterization algorithm, three dispatch modes. Triangles bin to
screen-space tiles; each tile composites independently (disjoint frame/
z-buffer regions), evaluating its triangles in chunked vectorized
batches that preserve submission order. The tiles of one draw run

* **inline** — no pool, or a pool that is not parallel: the renderer
  calls the tile kernel directly (no task objects, no compute stats);
* on a **thread** :class:`~repro.core.compute.ComputePool`: one task
  per tile, compositing in place into the renderer's buffers;
* on a **process** pool (``pool.distributed``): one
  :func:`composite_tile_task` per tile over per-draw arrays shared
  once, returning the tile's pixels.

Every mode runs the same kernel, so frames are byte-for-byte identical.
The reference semantics are the classic per-triangle rule — each
triangle, in submission order, covers the pixels of its clipped bbox
whose barycentric weights are all non-negative, and writes a pixel only
when it is strictly nearer than the z-buffer. The kernel reproduces it
exactly: per-pixel floats are computed with the same operands in the
same association order (pixel centers are exact ``integer + 0.5``
values), the per-chunk winner is selected with ``argmin`` — which
returns the *first* index attaining the minimum, i.e. the earliest-
submitted triangle — and the z-test against the tile buffer is the same
strict ``pixel_z < z`` comparison, so later triangles never overwrite
an equal-depth earlier one. An explicit per-triangle bbox mask confines
evaluation to exactly each triangle's own pixels. The test suite pins
this against a per-triangle reference rasterizer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.geometry import triangle_normals
from repro.viz.isosurface import TriangleSoup

#: Screen-space tile edge in pixels — the compositing and dispatch grain.
TILE_SIZE = 64
#: Triangles per vectorized batch inside a tile. Marching-tets emits
#: triangles in cell order, so consecutive triangles are spatially
#: coherent and a small chunk's union bbox stays tight.
CHUNK_SIZE = 16


def _tile_region(ty: int, tx: int, height: int,
                 width: int) -> Tuple[slice, slice]:
    """The ``(rows, cols)`` pixel slices of screen tile ``(ty, tx)``."""
    y0 = ty * TILE_SIZE
    x0 = tx * TILE_SIZE
    return (slice(y0, min(y0 + TILE_SIZE, height)),
            slice(x0, min(x0 + TILE_SIZE, width)))


def _composite_chunks(tri: np.ndarray, pts: np.ndarray, zs: np.ndarray,
                      cols: np.ndarray, x_min: np.ndarray,
                      x_max: np.ndarray, y_min: np.ndarray,
                      y_max: np.ndarray, denom: np.ndarray,
                      zbuf: np.ndarray, frame: np.ndarray,
                      region: Tuple[slice, slice]) -> None:
    """Composite one tile's triangles ``tri`` in submission order.

    ``zbuf``/``frame`` cover exactly the tile's pixel ``region`` and
    are updated in place — inline and thread dispatch pass views of
    the renderer's buffers, the process path a worker-local copy.
    Triangles are evaluated in chunks of CHUNK_SIZE over the chunk's
    union bbox (clipped to the tile); within a chunk the depth winner
    per pixel is the *first* minimum (``argmin``), and chunks apply in
    ascending submission order with the strict ``z < zbuffer`` test —
    together exactly the per-triangle first-wins-on-ties rule.
    """
    rows, columns = region
    py0, py1 = rows.start, rows.stop - 1
    px0, px1 = columns.start, columns.stop - 1
    # Tile-wide pixel index vectors, sliced per chunk below.
    tix = np.arange(px0, px1 + 1)
    tiy = np.arange(py0, py1 + 1)
    for start in range(0, tri.size, CHUNK_SIZE):
        chunk = tri[start:start + CHUNK_SIZE]
        ux0 = max(int(x_min[chunk].min()), px0)
        ux1 = min(int(x_max[chunk].max()), px1)
        uy0 = max(int(y_min[chunk].min()), py0)
        uy1 = min(int(y_max[chunk].max()), py1)
        ix = tix[ux0 - px0:ux1 + 1 - px0]
        iy = tiy[uy0 - py0:uy1 + 1 - py0]
        # Pixel centers: exact integer + 0.5 floats.
        gx = (ix + 0.5)[None, None, :]
        gy = (iy + 0.5)[None, :, None]
        ixg = ix[None, None, :]
        iyg = iy[None, :, None]
        ztile = zbuf[uy0 - py0:uy1 + 1 - py0, ux0 - px0:ux1 + 1 - px0]
        ftile = frame[uy0 - py0:uy1 + 1 - py0, ux0 - px0:ux1 + 1 - px0]
        p = pts[chunk]
        x0 = p[:, 0, 0][:, None, None]
        y0 = p[:, 0, 1][:, None, None]
        x1 = p[:, 1, 0][:, None, None]
        y1 = p[:, 1, 1][:, None, None]
        x2 = p[:, 2, 0][:, None, None]
        y2 = p[:, 2, 1][:, None, None]
        d = denom[chunk][:, None, None]
        w0 = ((y1 - y2) * (gx - x2) + (x2 - x1) * (gy - y2)) / d
        w1 = ((y2 - y0) * (gx - x2) + (x0 - x2) * (gy - y2)) / d
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        # Confine each triangle to its own bbox — the chunk's union
        # bbox is wider, and float roundoff could otherwise admit
        # hull-adjacent pixels.
        mx = (ixg >= x_min[chunk][:, None, None]) \
            & (ixg <= x_max[chunk][:, None, None])
        my = (iyg >= y_min[chunk][:, None, None]) \
            & (iyg <= y_max[chunk][:, None, None])
        inside &= mx & my
        z = zs[chunk]
        a0 = w0 / z[:, 0][:, None, None]
        a1 = w1 / z[:, 1][:, None, None]
        a2 = w2 / z[:, 2][:, None, None]
        # Perspective-correct interpolation of depth and color.
        inv_z = a0 + a1 + a2
        pixel_z = 1.0 / np.where(inv_z > 0, inv_z, np.inf)
        cand = np.where(inside, pixel_z, np.inf)
        # First index attaining the minimum == earliest submission:
        # the strict-less tie-break, vectorized.
        k = np.argmin(cand, axis=0)[None, :, :]
        zmin = np.take_along_axis(cand, k, 0)[0]
        better = zmin < ztile
        if not better.any():
            continue
        aw0 = np.take_along_axis(a0, k, 0)[0]
        aw1 = np.take_along_axis(a1, k, 0)[0]
        aw2 = np.take_along_axis(a2, k, 0)[0]
        cw = cols[chunk][k[0]]                 # (uh, uw, 3, 3)
        # Same association order as the per-triangle color blend.
        # Lanes that lost (zmin == inf) may produce inf/nan here; they
        # are masked out by `better`.
        with np.errstate(invalid="ignore"):
            r = (
                aw0[..., None] * cw[:, :, 0, :]
                + aw1[..., None] * cw[:, :, 1, :]
                + aw2[..., None] * cw[:, :, 2, :]
            ) * zmin[..., None]
        ztile[better] = zmin[better]
        ftile[better] = r[better]


def composite_tile_task(region: Tuple[slice, slice], tri: np.ndarray,
                        pts: np.ndarray, zs: np.ndarray,
                        cols: np.ndarray, x_min: np.ndarray,
                        x_max: np.ndarray, y_min: np.ndarray,
                        y_max: np.ndarray, denom: np.ndarray,
                        frame_tile: np.ndarray,
                        z_tile: np.ndarray) -> tuple:
    """Pure compositing kernel for one tile — the process-pool task.

    A module-level function of plain arrays (REP107: no engine or
    arena types), so a
    :class:`~repro.core.compute_proc.ProcessComputePool` worker can
    re-import it and receive the per-draw arrays as zero-copy tokens.
    ``frame_tile``/``z_tile`` carry the tile's pre-draw pixels
    (read-only in the worker); the kernel copies them and runs the
    exact :func:`_composite_chunks` arithmetic inline dispatch runs in
    place, so the returned ``(frame, z)`` pair is byte-identical.
    """
    frame = np.array(frame_tile, dtype=np.float64)
    zbuf = np.array(z_tile, dtype=np.float64)
    _composite_chunks(tri, pts, zs, cols, x_min, x_max, y_min, y_max,
                      denom, zbuf, frame, region)
    return frame, zbuf


class Renderer:
    """Accumulates shaded triangles into an image with a z-buffer."""

    def __init__(self, camera: Camera,
                 background: Sequence[float] = (0.08, 0.08, 0.12),
                 light_dir: Sequence[float] = (0.4, 0.3, 0.85),
                 pool: Optional[object] = None):
        self.camera = camera
        height, width = camera.height, camera.width
        bg = np.asarray(background, dtype=np.float64)
        self._frame = np.tile(bg, (height, width, 1))
        self._zbuffer = np.full((height, width), np.inf)
        light = np.asarray(light_dir, dtype=np.float64)
        self._light = light / np.linalg.norm(light)
        #: The :class:`~repro.core.compute.ComputePool` tiles dispatch
        #: to, or None to composite them inline (a pool that is not
        #: parallel would only run them inline itself).
        self._pool = pool if getattr(pool, "parallel", False) else None
        #: Total triangles submitted (pipeline statistics).
        self.triangles_drawn = 0
        #: Triangles dropped by the near-plane cull. Any triangle with
        #: at least one vertex at depth <= near is culled *whole* —
        #: geometry crossing the near plane is not clipped (a known
        #: limitation); this counter makes the loss observable.
        self.triangles_culled = 0

    def draw(self, soup: TriangleSoup, colormap: Colormap,
             vmin: Optional[float] = None,
             vmax: Optional[float] = None) -> None:
        """Shade and rasterize a triangle soup.

        Colors come from mapping the soup's per-vertex values through
        ``colormap`` (with optional explicit range), then scaling by a
        two-sided diffuse factor from the triangle normal.
        """
        if soup.n_triangles == 0:
            return
        cmap = colormap
        if vmin is not None or vmax is not None:
            cmap = Colormap(colormap.name, vmin=vmin, vmax=vmax)
        colors = cmap.map(soup.values)                    # (n, 3, 3)
        normals = triangle_normals(soup.vertices)
        diffuse = 0.25 + 0.75 * np.abs(normals @ self._light)
        colors = colors * diffuse[:, None, None]
        self._rasterize(soup.vertices, colors)
        self.triangles_drawn += soup.n_triangles

    def draw_flat(self, soup: TriangleSoup,
                  color: Sequence[float]) -> None:
        """Rasterize with one flat RGB color (still lit)."""
        if soup.n_triangles == 0:
            return
        base = np.asarray(color, dtype=np.float64)
        normals = triangle_normals(soup.vertices)
        diffuse = 0.25 + 0.75 * np.abs(normals @ self._light)
        colors = np.tile(base, (soup.n_triangles, 3, 1))
        colors *= diffuse[:, None, None]
        self._rasterize(soup.vertices, colors)
        self.triangles_drawn += soup.n_triangles

    def _rasterize(self, vertices: np.ndarray,
                   colors: np.ndarray) -> None:
        """Bin the drawable triangles to screen tiles and composite
        every tile the draw touches — inline, or as pool tasks (tiles
        are disjoint buffer regions, so tasks share no mutable state
        and need no locks). One barrier per draw keeps inter-draw
        ordering fixed."""
        height, width = self._zbuffer.shape
        xy, depth = self.camera.project(vertices.reshape(-1, 3))
        xy = xy.reshape(-1, 3, 2)
        depth = depth.reshape(-1, 3)

        # Cull triangles behind the near plane (whole triangles — no
        # clipping; see triangles_culled).
        visible = np.all(depth > self.camera.near, axis=1)
        self.triangles_culled += int(visible.size - int(visible.sum()))
        x = xy[:, :, 0]
        y = xy[:, :, 1]
        x_min = np.maximum(np.floor(x.min(axis=1)).astype(np.int64), 0)
        x_max = np.minimum(np.ceil(x.max(axis=1)).astype(np.int64),
                           width - 1)
        y_min = np.maximum(np.floor(y.min(axis=1)).astype(np.int64), 0)
        y_max = np.minimum(np.ceil(y.max(axis=1)).astype(np.int64),
                           height - 1)
        denom = (
            (y[:, 1] - y[:, 2]) * (x[:, 0] - x[:, 2])
            + (x[:, 2] - x[:, 1]) * (y[:, 0] - y[:, 2])
        )
        # Culled triangles, off-screen bboxes and screen-degenerate
        # triangles contribute nothing. One fancy-index takes the
        # drawable rows (ascending, so submission order is kept) — the
        # draw's only per-draw copy, and what the process path shares.
        keep = np.nonzero(
            visible & (x_min <= x_max) & (y_min <= y_max)
            & (np.abs(denom) >= 1e-12)
        )[0]
        if keep.size == 0:
            return
        arrays = tuple(a[keep] for a in (
            xy, depth, colors, x_min, x_max, y_min, y_max, denom,
        ))
        x_min, x_max, y_min, y_max = arrays[3:7]
        ty_lo = y_min // TILE_SIZE
        ty_hi = y_max // TILE_SIZE
        tx_lo = x_min // TILE_SIZE
        tx_hi = x_max // TILE_SIZE
        pool = self._pool
        distributed = getattr(pool, "distributed", False)
        if distributed:
            # Process backend: the per-draw arrays are shared once (a
            # token export or one staging copy) instead of being
            # pickled into every tile's message.
            shared = [pool.share(a) for a in arrays]
        tasks: List[tuple] = []
        for ty in range((height + TILE_SIZE - 1) // TILE_SIZE):
            row = (ty_lo <= ty) & (ty <= ty_hi)
            if not row.any():
                continue
            for tx in range((width + TILE_SIZE - 1) // TILE_SIZE):
                # nonzero is ascending, so each tile sees its triangles
                # in original submission order.
                tri = np.nonzero(row & (tx_lo <= tx) & (tx <= tx_hi))[0]
                if tri.size == 0:
                    continue
                region = _tile_region(ty, tx, height, width)
                if pool is None:
                    self._composite_tile(region, tri, *arrays)
                elif distributed:
                    tasks.append((region, pool.submit(
                        composite_tile_task, region, tri, *shared,
                        self._frame[region], self._zbuffer[region],
                    )))
                else:
                    tasks.append((region, pool.submit(
                        self._composite_tile, region, tri, *arrays,
                    )))
        for region, task in tasks:
            result = task.wait()
            if distributed:
                # Tiles are disjoint, so merge order is immaterial.
                self._frame[region], self._zbuffer[region] = result
                task.release()

    def _composite_tile(self, region: Tuple[slice, slice],
                        tri: np.ndarray, *arrays: np.ndarray) -> None:
        """Composite one tile in place into the renderer's buffers
        (inline and thread dispatch) — the arithmetic
        :func:`composite_tile_task` runs on a worker-local copy."""
        _composite_chunks(tri, *arrays, self._zbuffer[region],
                          self._frame[region], region)

    def draw_colorbar(self, colormap: Colormap,
                      width: int = 12,
                      margin: int = 4) -> None:
        """Paint a vertical colorbar strip along the right edge.

        The bar runs from the colormap's low color (bottom) to its high
        color (top) — the legend interactive tools show next to the
        scene. Drawn over whatever is already in the frame.
        """
        height, frame_width = self._zbuffer.shape
        if width + 2 * margin >= frame_width:
            raise ValueError("colorbar wider than the frame")
        if 2 * margin >= height:
            raise ValueError("colorbar margins taller than the frame")
        x0 = frame_width - margin - width
        # One color sample per row, high values on top.
        t = np.linspace(1.0, 0.0, height - 2 * margin)
        strip = Colormap(colormap.name, vmin=0.0, vmax=1.0).map(t)
        self._frame[margin:height - margin, x0:x0 + width] = \
            strip[:, None, :]

    def image(self) -> np.ndarray:
        """The current frame as an (h, w, 3) uint8 array."""
        return (np.clip(self._frame, 0.0, 1.0) * 255.0 + 0.5).astype(
            np.uint8
        )

    def depth_image(self) -> np.ndarray:
        """The z-buffer normalized to uint8 (for debugging/tests)."""
        z = self._zbuffer.copy()
        finite = np.isfinite(z)
        if finite.any():
            lo, hi = z[finite].min(), z[finite].max()
            span = (hi - lo) or 1.0
            z[finite] = 1.0 - (z[finite] - lo) / span
        z[~finite] = 0.0
        return (z * 255.0 + 0.5).astype(np.uint8)
