"""Measurement helpers: percentiles, ratios, host record, peak RSS.

Pure functions sit at the top (the benchmark's own tests cover them);
:class:`PeakRss` samples ``/proc`` and only works on Linux.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import statistics
import sys
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(reference_n: int) -> Optional[int]:
    """The highest percentile with at least ``TAIL_BEYOND`` of
    ``reference_n`` samples above it: ``floor(100 * k / n)`` with
    ``k = n - TAIL_BEYOND``. ``None`` when ``reference_n`` supports no
    such percentile.

    A workload fixes its ``reference_n``, so its tail is read at the
    same percentile however many frames a faster or slower program
    completes in the run's time.
    """
    k = reference_n - TAIL_BEYOND
    if k < 1:
        return None
    return (100 * k) // reference_n


def tail(samples: Sequence[float], percentile: Optional[int]
         ) -> Tuple[float, int]:
    """The nearest-rank ``percentile`` of ``samples`` and the number of
    samples ranked above it; with ``percentile`` ``None``, the median
    and 0."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if percentile is None:
        return statistics.median(ordered), 0
    rank = max(1, math.ceil(percentile * n / 100))
    return ordered[rank - 1], n - rank


def ratio(hits: float, total: float) -> float:
    """``hits / total``, or 0.0 when nothing was attempted."""
    return hits / total if total else 0.0


def fmt_ratio(name: str, hits: float, total: float) -> str:
    """A ratio printed with its base, e.g. ``x = 0.750 (3/4)``."""
    return f"{name} = {ratio(hits, total):.3f} ({hits:g}/{total:g})"


def image_digest(image) -> str:
    """Digest of a frame as the PPM bytes :func:`repro.viz.image.
    write_ppm` would write, so in-memory frames and frame files compare
    byte for byte against one reference."""
    height, width = image.shape[:2]
    digest = hashlib.sha256(f"P6\n{width} {height}\n255\n".encode("ascii"))
    digest.update(memoryview(image).cast("B")
                  if image.flags.c_contiguous else image.tobytes())
    return digest.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def host_record() -> Dict[str, object]:
    """The host facts every result carries."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Peak resident memory of this process plus its descendants
# ----------------------------------------------------------------------
_HWM = re.compile(rb"VmHWM:\s+(\d+) kB")
#: Seconds between polls of the descendants' high-water marks.
RSS_POLL_S = 0.05


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as f:
            match = _HWM.search(f.read())
    except OSError:
        return 0
    return int(match.group(1)) if match else 0


def _children(pid: str) -> List[str]:
    found: List[str] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                found.extend(f.read().split())
        except OSError:
            continue
    return found


class PeakRss:
    """Peak resident set of this process plus every descendant.

    :meth:`start` resets this process's high-water mark (Linux
    ``clear_refs``) and starts a thread that records each descendant's
    own high-water mark while it lives; :meth:`stop` returns the sum in
    bytes. Processes that live shorter than one poll interval are
    missed.
    """

    def __init__(self):
        self._peaks: Dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _poll(self) -> None:
        frontier = _children("self")
        while frontier:
            pid = frontier.pop()
            kb = _vm_hwm_kb(pid)
            if kb > self._peaks.get(pid, 0):
                self._peaks[pid] = kb
            frontier.extend(_children(pid))

    def _loop(self) -> None:
        while not self._stop.wait(RSS_POLL_S):
            self._poll()

    def start(self) -> None:
        self._peaks.clear()
        self._stop.clear()
        try:
            with open("/proc/self/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-rss", daemon=True)
        self._thread.start()

    def stop(self) -> int:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._poll()
        return 1024 * (_vm_hwm_kb("self") + sum(self._peaks.values()))
