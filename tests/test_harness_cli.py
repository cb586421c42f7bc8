import csv
import subprocess
import sys

import numpy as np
import pytest

from xmem import FeatureDims, PipelineConfig
from xmem.cli import main
from xmem.harness import FrameRecord, run_stream, write_metrics_csv
from xmem.oracle import BookkeepingRow, oracle_bookkeeping
from xmem.stream import StreamHeader, synthetic_frames

SMALL = [
    "--synthetic", "--small", "--ck", "4", "--cv", "4", "--ch", "4",
    "--r", "2", "--tmin", "2", "--tmax", "4", "--proto-p", "4",
    "--topk", "8", "--lt-max", "50",
]


def _read_csv(path):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
    return header, rows


def test_run_writes_one_row_per_frame(tmp_path):
    out = tmp_path / "metrics.csv"
    assert main(SMALL + ["--frames", "100", "--metrics-out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == [
        "frame_idx", "wm_frames", "wm_elements", "lt_elements",
        "total_elements", "read_duration_ns", "consolidation_flag", "evicted_count",
    ]
    assert len(rows) == 100
    for row in rows:
        total = int(row["total_elements"])
        assert total == int(row["wm_elements"]) + int(row["lt_elements"])
        assert total <= 4 * 64 + 50


def test_multi_object_record_sums_tracks(tmp_path):
    dims = FeatureDims(h=2, w=3, c_k=4, c_v=5, c_h=4)
    cfg = PipelineConfig(
        dims=dims, r=1, t_min=2, t_max=4, p=6, l_max=12, sensory_input_channels=3
    )
    header = StreamHeader(c_k=4, c_v=5, c_in=3, h=2, w=3, frame_count=60, object_count=3)
    _, records = run_stream(synthetic_frames(8, header, 0.1), cfg, seed=8)
    expected = oracle_bookkeeping(cfg, 60)
    assert len(records) == len(expected) == 60
    assert sum(e.evicted_count for e in expected) > 0
    for got, want in zip(records, expected):
        assert got.frame_idx == want.frame_idx
        assert got.wm_elements == 3 * want.wm_elements
        assert got.lt_elements == 3 * want.lt_elements
        assert got.evicted_count == 3 * want.evicted_count
        assert got.wm_frames == want.wm_frames
        assert got.inserted == want.inserted
        assert got.consolidated == want.consolidated
    out = tmp_path / "m.csv"
    write_metrics_csv(out, records)
    with open(out, newline="") as f:
        written = list(csv.DictReader(f))
    assert written == [{k: str(v) for k, v in r.as_csv().items()} for r in records]


def test_oracle_simulates_the_engine_record():
    assert BookkeepingRow is FrameRecord


def test_missing_metrics_out_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["--synthetic", "--frames", "5"])
    assert err.value.code == 2


def test_input_and_synthetic_conflict(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["--input", "x.xmfs", "--synthetic", "--metrics-out", str(tmp_path / "m.csv")])
    assert err.value.code == 2


def test_bad_bounds_name_both_flags(tmp_path, capsys):
    code = main(
        ["--synthetic", "--tmin", "10", "--tmax", "5",
         "--metrics-out", str(tmp_path / "m.csv")]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "--tmin" in captured.err and "--tmax" in captured.err


def test_zero_objects_is_usage_error(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(SMALL + ["--frames", "3", "--objects", "0", "--metrics-out", str(out)]) == 2
    assert "--objects" in capsys.readouterr().err
    assert not out.exists()


def test_zero_sensory_input_channels_is_usage_error(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(SMALL + ["--frames", "3", "--cin", "0", "--metrics-out", str(out)]) == 2
    assert "--cin" in capsys.readouterr().err
    assert not out.exists()


def test_default_flag_values():
    from xmem.cli import build_parser

    args = build_parser().parse_args(["--synthetic", "--metrics-out", "m.csv"])
    assert args.tmin == 5
    assert args.tmax == 10
    assert args.proto_p == 128
    assert args.topk == 30
    assert args.lt_max == 10_000


def test_replay_is_byte_identical_with_no_timing(tmp_path):
    stream_path = tmp_path / "s.xmfs"
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(
            SMALL
            + ["--frames", "60", "--seed", "5", "--stream-out", str(stream_path),
               "--no-timing", "--metrics-out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_replay_from_file_matches_direct_synthetic(tmp_path):
    stream_path = tmp_path / "s.xmfs"
    direct = tmp_path / "direct.csv"
    code = main(
        SMALL + ["--frames", "40", "--seed", "3", "--stream-out", str(stream_path),
                 "--no-timing", "--metrics-out", str(direct)]
    )
    assert code == 0
    replay = tmp_path / "replay.csv"
    code = main(
        ["--input", str(stream_path), "--ch", "4", "--r", "2", "--tmin", "2",
         "--tmax", "4", "--proto-p", "4", "--topk", "8", "--lt-max", "50",
         "--seed", "3", "--no-timing", "--metrics-out", str(replay)]
    )
    assert code == 0
    assert direct.read_bytes() == replay.read_bytes()


def test_malformed_stream_exits_one_with_offset(tmp_path, capsys):
    stream_path = tmp_path / "s.xmfs"
    out = tmp_path / "m.csv"
    assert main(SMALL + ["--frames", "10", "--stream-out", str(stream_path),
                         "--metrics-out", str(out)]) == 0
    blob = stream_path.read_bytes()
    stream_path.write_bytes(blob[:-7])
    code = main(["--input", str(stream_path), "--metrics-out", str(out)])
    assert code == 1
    assert "byte offset" in capsys.readouterr().err


def test_offset_sweep_has_identical_event_counts(tmp_path):
    # static features, frame count divisible by r: schedule-only dependence
    counts = []
    for offset in (0, 2, 4, 6, 8):
        out = tmp_path / f"off{offset}.csv"
        code = main(
            ["--synthetic", "--small", "--ck", "4", "--cv", "4", "--ch", "4",
             "--r", "10", "--tmin", "2", "--tmax", "4", "--proto-p", "4",
             "--topk", "8", "--lt-max", "24", "--drift", "0",
             "--frames", "200", "--insert-offset", str(offset),
             "--metrics-out", str(out)]
        )
        assert code == 0
        _, rows = _read_csv(out)
        counts.append(
            (
                sum(int(r["consolidation_flag"]) for r in rows),
                sum(int(r["evicted_count"]) for r in rows),
            )
        )
    assert len(set(counts)) == 1
    assert counts[0][0] > 0


def test_snapshot_flag_writes_readable_store(tmp_path):
    out = tmp_path / "m.csv"
    snap = tmp_path / "lt.xmlt"
    code = main(
        SMALL + ["--frames", "60", "--metrics-out", str(out), "--snapshot-out", str(snap)]
    )
    assert code == 0
    from xmem.stream import read_lt_snapshot

    stores = read_lt_snapshot(snap)
    assert len(stores) == 1
    assert stores[0].keys.shape[1] > 0


def test_unbounded_flag_disables_consolidation(tmp_path):
    out = tmp_path / "m.csv"
    code = main(SMALL + ["--frames", "40", "--unbounded", "--metrics-out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    assert all(int(r["consolidation_flag"]) == 0 for r in rows)
    assert all(int(r["lt_elements"]) == 0 for r in rows)
    growth = [int(r["total_elements"]) for r in rows]
    assert growth == [64 * (1 + idx // 2) for idx in range(40)]


def test_console_entry_smoke(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "xmem.cli"]
        + SMALL + ["--frames", "10", "--metrics-out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
