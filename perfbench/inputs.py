"""Seeded datasets and the serial-O reference frames the runs check.

``--seed`` picks the simulated time window (``SnapshotSpec.dt``) of
every generated dataset, and the explore walks; the program only ever
sees the generated files and the walk. Each dataset is rendered once
per seed by the serial original build (``mode="O"``,
``compute_workers=1``) and its frame digests are kept; every timed
frame is compared against them. Datasets and references are cached
under ``.perfbench/cache`` in the checkout, keyed by the seed, the
dataset parameters and a hash of the program's sources, so a changed
program never reuses a stale reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import asdict, dataclass
from typing import Dict

from measure import file_digest

#: ``SnapshotSpec``'s default step (seconds of simulated time).
BASE_DT = 25e-6
#: Cached dataset/reference directories kept (32 seeds of each of the
#: three datasets); the least recently used beyond that are removed.
CACHE_KEEP = 96


@dataclass(frozen=True)
class DatasetSpec:
    """One generated dataset and the op-set its reference renders."""

    name: str
    scale: float
    n_steps: int
    files_per_snapshot: int
    test: str


#: batch_movie and sharded_fleet share the complex set; paced_stream
#: needs per-file units; explore_browse walks a longer, smaller series.
DATASETS = {
    "complex": DatasetSpec("complex", 0.3, 8, 1, "complex"),
    "paced": DatasetSpec("paced", 0.3, 8, 4, "simple"),
    "explore": DatasetSpec("explore", 0.1, 16, 1, "simple"),
}


def seeded_dt(seed: int) -> float:
    """The time step a seed selects: within ±50% of the default, where
    the fields' geometry (and so the work per frame) barely moves but
    every stored value differs."""
    return BASE_DT * (0.5 + random.Random(seed).random())


@dataclass
class Inputs:
    spec: DatasetSpec
    seed: int
    dt: float
    directory: str
    #: step -> sha256 of the reference frame's PPM bytes.
    reference: Dict[int, str]
    reference_wall_s: float
    reference_cached: bool
    triangles_per_frame: float
    snapshot_file_bytes: int


def _source_hash(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def _build(spec: DatasetSpec, seed: int, directory: str) -> dict:
    from repro.gen.snapshot import SnapshotSpec, generate_dataset
    from repro.gen.titan import TitanConfig
    from repro.viz.voyager import Voyager, VoyagerConfig

    dt = seeded_dt(seed)
    generate_dataset(
        SnapshotSpec(config=TitanConfig.scaled(spec.scale),
                     n_steps=spec.n_steps,
                     files_per_snapshot=spec.files_per_snapshot, dt=dt),
        os.path.join(directory, "data"),
    )
    frames = os.path.join(directory, "frames")
    t0 = time.perf_counter()
    result = Voyager(VoyagerConfig(
        data_dir=os.path.join(directory, "data"), test=spec.test,
        mode="O", compute_workers=1, out_dir=frames,
    )).run()
    wall = time.perf_counter() - t0
    if len(result.images) != spec.n_steps:
        raise RuntimeError(
            f"reference rendered {len(result.images)} of "
            f"{spec.n_steps} frames")
    reference = {str(step): file_digest(path)
                 for step, path in enumerate(result.images)}
    shutil.rmtree(frames)
    return {"dt": dt, "reference": reference, "wall_s": wall,
            "triangles_per_frame": result.triangles / spec.n_steps,
            "spec": asdict(spec)}


def _prune(cache: str) -> None:
    """Keep the ``CACHE_KEEP`` most recently used cache entries."""
    entries = sorted((os.path.join(cache, name) for name in os.listdir(cache)),
                     key=os.path.getmtime, reverse=True)
    for stale in entries[CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)


def prepare(root: str, spec: DatasetSpec, seed: int) -> Inputs:
    """The dataset and reference for ``spec`` under ``seed``, built
    once and then served from the cache."""
    key = f"{spec.name}-seed{seed}-{_source_hash(root)}"
    cache = os.path.join(root, ".perfbench", "cache")
    directory = os.path.join(cache, key)
    meta_path = os.path.join(directory, "reference.json")
    cached = os.path.exists(meta_path)
    if cached:
        with open(meta_path) as f:
            meta = json.load(f)
        cached = meta.get("spec") == asdict(spec)
    if not cached:
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        meta = _build(spec, seed, directory)
        with open(meta_path + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(meta_path + ".tmp", meta_path)
    os.utime(directory)
    _prune(cache)
    data = os.path.join(directory, "data")
    from repro.gen.snapshot import load_manifest

    manifest = load_manifest(data)
    return Inputs(
        spec=spec, seed=seed, dt=meta["dt"], directory=data,
        reference={int(k): v for k, v in meta["reference"].items()},
        reference_wall_s=meta["wall_s"], reference_cached=cached,
        triangles_per_frame=meta["triangles_per_frame"],
        snapshot_file_bytes=sum(os.path.getsize(p)
                                for p in manifest.snapshot_paths(0)),
    )
