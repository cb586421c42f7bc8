"""Smoke tests for the replay benchmark, on tiny geometries (seconds to run).

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import xmem.pipeline  # noqa: E402
from replay import replay  # noqa: E402
from run import result_line  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_the_declared_metrics(tmp_path, name, trace):
    result = replay(WORKLOADS[name].small(), seed=3, seconds=0.2, trace=trace, workdir=tmp_path)
    line = result_line(result, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = _names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the stream file is removed
    if trace:
        metrics = line["metrics"]
        assert metrics["trace.absent_spans"]["value"] == 0
        for key, value in metrics.items():
            if key.endswith(".calls"):
                assert value["value"] > 0, key


def test_counts_repeat_exactly(tmp_path):
    workload = WORKLOADS["lt-churn"].small()
    counts = []
    for seed in (3, 4):
        metrics = result_line(replay(workload, seed, 0.2, True, tmp_path), True)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in ("count", "B", "ratio")})
    assert counts[0] == counts[1]


def test_nan_readout_counts_as_failed_frames(tmp_path, monkeypatch):
    real = xmem.pipeline.readout
    bad_frames = 0

    def nan_every_third(values, weights):
        nonlocal bad_frames
        out = real(values, weights)
        calls = nan_every_third.calls = getattr(nan_every_third, "calls", 0) + 1
        if calls % 3 == 0:
            bad_frames += 1
            out = np.full_like(out, np.nan)
        return out

    monkeypatch.setattr(xmem.pipeline, "readout", nan_every_third)
    result = replay(WORKLOADS["full-read"].small(), 3, 0.2, False, tmp_path)
    line = result_line(result, False)
    assert not line["correct"]
    assert line["failed"] == bad_frames > 0
    assert any("non-finite readout" in f for f in result.failures)


def test_renamed_layer_is_reported_absent(tmp_path, monkeypatch):
    renamed = ("affinity.sparse_read", "xmem.pipeline", "sparse_affinity")
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + (renamed,))
    result = replay(WORKLOADS["full-read"].small(), 3, 0.2, True, tmp_path)
    metrics = result_line(result, True)["metrics"]
    assert result.tracer.absent == ["affinity.sparse_read (xmem.pipeline.sparse_affinity)"]
    assert metrics["trace.absent_spans"]["value"] == 1
    assert metrics["affinity.sparse_read_ms.calls"]["value"] == 0
    assert metrics["affinity.similarity_ms.calls"]["value"] > 0


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["frame", 0, 100, -1, 1], ["pipeline.step", 10, 90, 0, 1],
                    ["affinity.readout", 20, 50, 1, 1], ["stream.frame_read", 0, 10, 0, 1]]
    own, root = tracer.self_times()
    assert own.tolist() == [10, 50, 30, 10]
    assert root.tolist() == [0, 0, 0, 0]
