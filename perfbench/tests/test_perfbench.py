"""Tests of the benchmark's own logic, plus a short smoke run of each
workload. Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from measure import fmt_ratio, image_digest, tail, tail_percentile
from tracing import Span, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]      # 1..100
    percentile = tail_percentile(len(samples))
    value, beyond = tail(samples, percentile)
    assert (percentile, value, beyond) == (90, 90.0, 10)
    assert sum(s > value for s in samples) == 10


def test_tail_order_does_not_matter():
    samples = [float(i) for i in range(40, 0, -1)]
    assert tail_percentile(40) == 75
    assert tail(samples, 75) == (30.0, 10)


def test_tail_smallest_sample_count():
    assert tail_percentile(11) == 9
    assert tail([float(i) for i in range(11)], 9) == (0.0, 10)


def test_tail_percentile_is_fixed_by_the_reference_count():
    # A faster program completes more frames in the same time; its
    # tail is still read at the reference's percentile.
    percentile = tail_percentile(48)
    assert percentile == 79
    faster = [float(i) for i in range(1, 61)]
    value, beyond = tail(faster, percentile)
    assert (value, beyond) == (48.0, 12)


def test_tail_without_a_percentile_is_the_median():
    assert tail_percentile(10) is None
    assert tail([3.0, 1.0, 2.0], None) == (2.0, 0)
    with pytest.raises(ValueError):
        tail([], None)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _span(span_id, start, end, parent=None, thread=1, name="x.y"):
    return Span(span_id, name, start, end, parent, thread, None)


def test_self_time_subtracts_children_on_any_thread():
    spans = [
        _span(1, 0.0, 10.0),                      # root, thread 1
        _span(2, 1.0, 4.0, parent=1),             # child, same thread
        _span(3, 2.0, 6.0, parent=1, thread=2),   # child, other thread
    ]
    selfs, roots = self_times(spans)
    # Root: 10 minus the union [1, 6] of its children.
    assert selfs[1] == pytest.approx(5.0)
    # [2, 4] is covered by both children at once: shared equally.
    assert selfs[2] == pytest.approx(1.0 + 1.0)
    assert selfs[3] == pytest.approx(1.0 + 2.0)
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert set(roots.values()) == {1}


def test_self_time_nested_and_detached_trees():
    spans = [
        _span(1, 0.0, 8.0),
        _span(2, 1.0, 7.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 6.0, 9.0, parent=2, thread=2),   # outlives its parents
        _span(5, 3.0, 5.0, thread=3),             # background root
    ]
    selfs, roots = self_times(spans)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(6.0 - 1.0 - 1.0)
    # Span 4 outlives its parent and still covers the root's [7, 8].
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(2.0)
    assert roots[4] == 1 and roots[5] == 5
    tree = sum(v for k, v in selfs.items() if roots[k] == 1)
    assert tree == pytest.approx(9.0)             # root start to last end


def test_tracer_links_pool_tasks_to_the_submitting_span():
    tracer = Tracer()
    with tracer.span("pass") as root:
        task = tracer.wrap_task(lambda: None, "viz.extract")
        worker = threading.Thread(target=task)
        worker.start()
        worker.join(timeout=10.0)
    assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["viz.extract"].parent == root
    assert by_name["viz.extract"].thread != by_name["pass"].thread


def test_chrome_trace_is_valid_json(tmp_path):
    tracer = Tracer()
    with tracer.span("pass"):
        with tracer.span("core.wait_unit"):
            pass
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["core.wait_unit", "pass"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[0]["args"]["parent"] == events[1]["args"]["id"]


# ----------------------------------------------------------------------
# Ratios and digests
# ----------------------------------------------------------------------
def test_ratio_is_printed_with_its_base():
    assert fmt_ratio("derived.hit_ratio", 3, 4) == \
        "derived.hit_ratio = 0.750 (3/4)"
    assert fmt_ratio("viz.view_hit_ratio", 0, 0) == \
        "viz.view_hit_ratio = 0.000 (0/0)"


def test_image_digest_matches_the_ppm_file(tmp_path):
    import numpy as np

    from measure import file_digest
    from repro.viz.image import write_ppm

    image = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3)
    write_ppm(str(tmp_path / "f.ppm"), image)
    assert image_digest(image) == file_digest(str(tmp_path / "f.ppm"))
    assert image_digest(image[:, ::-1]) != image_digest(image)


# ----------------------------------------------------------------------
# Failed frames and smoke runs (subprocesses: the sharded hosts spawn)
# ----------------------------------------------------------------------
def _run(workload, seed, seconds=1, trace=0, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_injected_mismatch_fails_the_run():
    from inputs import DATASETS, prepare

    seed = 990001
    inputs = prepare(ROOT, DATASETS["explore"], seed)
    meta_path = os.path.join(os.path.dirname(inputs.directory),
                             "reference.json")
    with open(meta_path) as f:
        meta = json.load(f)
    try:
        meta["reference"]["0"] = "0" * 64
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        code, lines = _run("explore_browse", seed)
        result = json.loads(lines[-1])
        from workloads import EXPLORE_VIEWS, explore_walk

        passes, rest = divmod(result["attempted"], EXPLORE_VIEWS)
        assert passes >= 1 and rest == 0
        # Every view of step 0, and only those, fails the check.
        assert result["failed"] == sum(
            explore_walk(inputs, k).count(0) for k in range(passes)) > 0
        assert result["correct"] is False
        assert code != 0
    finally:
        with open(meta_path, "w") as f:
            meta["reference"]["0"] = inputs.reference[0]
            json.dump(meta, f)


@pytest.mark.parametrize("workload", [
    w["name"] for w in _bench_spec()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    spec = _bench_spec()
    code, lines = _run(workload, seed=7, seconds=1, trace=trace)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_stop_children_ends_the_resource_tracker():
    # In a subprocess: stopping the tracker of this test process would
    # sweep up shared memory that other tests still hold.
    script = ("from multiprocessing import resource_tracker as rt\n"
              "import run\n"
              "rt.ensure_running()\n"
              "print(rt._resource_tracker._pid)\n"
              "run.stop_children()\n"
              "assert rt._resource_tracker._pid is None\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=os.path.join(
        ROOT, "perfbench"), capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    # Reaped before the subprocess ended, so it is gone, not a zombie.
    assert not os.path.exists(f"/proc/{int(out.stdout)}")


def test_exits_nonzero_without_the_program(tmp_path):
    import shutil

    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    code, lines = _run("batch_movie", 1, cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
