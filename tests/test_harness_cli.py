import contextlib
import csv
import io
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmem import FeatureDims, PipelineConfig, stream
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


# the configuration is checked before the stream is generated: a zero field
# wrote a full stream that the reader then refused, and a negative width
# died in struct.pack with a traceback
@pytest.mark.parametrize(
    "flag,value,field", [("--height", "0", "h"), ("--ck", "0", "c_k"), ("--width", "-1", "w")]
)
def test_bad_dimension_writes_no_stream(tmp_path, capsys, flag, value, field):
    out, stream_path = tmp_path / "m.csv", tmp_path / "s.xmfs"
    full_grid = [arg for arg in SMALL if arg != "--small"]
    code = main(
        full_grid + ["--height", "8", "--width", "8", "--frames", "2", flag, value,
                     "--stream-out", str(stream_path), "--metrics-out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be >= 1, got {value}\n"
    assert f"FeatureDims.{field}" not in err
    assert not stream_path.exists()
    assert not out.exists()


def _missing_input(tmp_path):
    return ["--input", str(tmp_path / "absent.xmfs"), "--metrics-out", str(tmp_path / "m.csv")]


def _unwritable_metrics(tmp_path):
    return SMALL + ["--frames", "3", "--metrics-out", str(tmp_path / "no" / "m.csv")]


def _unwritable_snapshot(tmp_path):
    return SMALL + ["--frames", "3", "--metrics-out", str(tmp_path / "m.csv"),
                    "--snapshot-out", str(tmp_path / "no" / "lt.xmlt")]


# a missing or unwritable file escaped as a traceback
@pytest.mark.parametrize("argv", [_missing_input, _unwritable_metrics, _unwritable_snapshot])
def test_file_error_exits_one_with_one_error_line(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# a store of 1e17 long-term elements asks for 1.39 EiB of keys, more than
# any 64-bit address space holds, so the allocation fails at once; it
# escaped as a numpy MemoryError traceback
def test_unservable_allocation_exits_one_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "m.csv"
    argv = ["--synthetic", "--small", "--ck", "4", "--cv", "4", "--ch", "4", "--frames", "3",
            "--lt-max", "100000000000000000", "--metrics-out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


# a sensory cell or a synthetic frame numpy could not shape made it raise
# ValueError, which escaped as a traceback
@pytest.mark.parametrize("argv,message", [
    (["--small", "--cin", "1", "--ch", "3000000000"],
     "a sensory cell of 3 x 3000000000 x 3000000001 weights"),
    (["--height", "3000000000", "--width", "3000000000", "--ch", "4"],
     "a synthetic frame of 3000000000 x 3000000000 positions"),
], ids=["sensory-cell", "synthetic-frame"])
def test_a_cell_or_frame_numpy_cannot_shape_exits_one_with_one_error_line(
    tmp_path, capsys, argv, message
):
    out = tmp_path / "m.csv"
    argv = ["--synthetic", "--ck", "4", "--cv", "4", *argv, "--frames", "2",
            "--metrics-out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot allocate {message}\n"
    assert not out.exists()


# a store with more elements than numpy's index type holds made np.empty
# raise ValueError, which escaped as a traceback
@pytest.mark.parametrize(
    "flag,value,elements",
    [("--lt-max", 2**63 - 1, 2**63 - 1 + 640), ("--lt-max", 4 * 10**18, 4 * 10**18 + 640),
     ("--tmax", 4 * 10**18, 4 * 10**18 * 64 + 10_000)],
)
def test_a_store_numpy_cannot_shape_exits_one_with_one_error_line(
    tmp_path, capsys, flag, value, elements
):
    out = tmp_path / "m.csv"
    argv = ["--synthetic", "--small", "--ck", "4", "--cv", "4", "--ch", "4", "--frames", "3",
            flag, str(value), "--metrics-out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot allocate a store of {elements} elements\n"
    assert not out.exists()


# a generation that failed after frame 0 left a truncated stream behind
def test_failed_generation_exits_one_and_leaves_no_stream(tmp_path, capsys, monkeypatch):
    real = stream.synthetic_frames

    def failing(seed, header, drift):
        frames = real(seed, header, drift)
        yield next(frames)
        raise MemoryError("frame 1 cannot be allocated")

    monkeypatch.setattr(stream, "synthetic_frames", failing)
    out, stream_out = tmp_path / "m.csv", tmp_path / "s.xmfs"
    argv = SMALL + ["--frames", "5", "--stream-out", str(stream_out), "--metrics-out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not stream_out.exists() and not out.exists()


# a negative seed reached numpy's seeding as a traceback; a NaN drift
# replayed a static stream
@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--drift", "nan")])
def test_out_of_range_generation_flag_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "m.csv"
    assert main(SMALL + ["--frames", "3", flag, value, "--metrics-out", str(out)]) == 2
    assert flag in capsys.readouterr().err
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


# a snapshot write that failed part-way left a file its reader refused
def test_failed_snapshot_exits_one_and_leaves_no_snapshot(tmp_path, capsys, faulty_open):
    out, snap = tmp_path / "m.csv", tmp_path / "lt.xmlt"
    faulty_open(snap, 100)
    argv = SMALL + ["--frames", "30", "--metrics-out", str(out), "--snapshot-out", str(snap)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not snap.exists()
    header, rows = _read_csv(out)
    assert header[0] == "frame_idx" and len(rows) == 30


# both messages named the PipelineConfig field, not the flag the user typed
@pytest.mark.parametrize("flag", ["--topk", "--proto-p"])
def test_zero_engine_flag_error_names_its_flag(tmp_path, capsys, flag):
    out = tmp_path / "m.csv"
    assert main(SMALL + ["--frames", "3", flag, "0", "--metrics-out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be >= 1, got 0\n"
    assert not out.exists()


def test_each_broken_window_rule_gets_its_own_error_line(tmp_path, capsys):
    out = tmp_path / "m.csv"
    argv = SMALL + ["--frames", "3", "--tmin", "1", "--tmax", "1", "--metrics-out", str(out)]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: ") for line in lines)
    assert any("--tmin" in line and "must be >= 2" in line for line in lines)
    assert any("--tmax" in line and "--tmin" in line and "exceed" in line for line in lines)
    assert not out.exists()


def test_flag_defaults_and_choices_are_the_engines():
    import dataclasses
    import typing

    from xmem.cli import DEEP_UPDATE_FLAGS, build_parser
    from xmem.pipeline import DeepUpdateMode, PrototypeStrategy

    parser = build_parser()
    args = parser.parse_args(["--synthetic", "--metrics-out", "m.csv"])
    fields = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
    dims = {f.name: f.default for f in dataclasses.fields(FeatureDims)}
    flags = {
        "r": args.r, "t_min": args.tmin, "t_max": args.tmax, "p": args.proto_p,
        "top_k": args.topk, "l_max": args.lt_max, "insert_offset": args.insert_offset,
        "sensory_input_channels": args.cin, "unbounded": args.unbounded,
        "prototype_strategy": args.strategy,
        "deep_update_mode": DEEP_UPDATE_FLAGS[args.deep_update],
    }
    assert flags == {name: fields[name] for name in flags}
    assert (args.ck, args.cv, args.ch) == (dims["c_k"], dims["c_v"], dims["c_h"])
    assert "--strategy {" + ",".join(typing.get_args(PrototypeStrategy)) + "}" in (
        parser.format_usage()
    )
    assert sorted(DEEP_UPDATE_FLAGS.values()) == sorted(typing.get_args(DeepUpdateMode))


def test_flag_and_configuration_errors_of_a_synthetic_run_are_reported_together(
    tmp_path, capsys
):
    out = tmp_path / "m.csv"
    argv = SMALL + ["--frames", "3", "--objects", "0", "--r", "0", "--metrics-out", str(out)]
    assert main(argv) == 2
    flags = sorted(line.split()[1] for line in capsys.readouterr().err.splitlines())
    assert flags == ["--insert-offset", "--objects", "--r"]
    assert not out.exists()


# a stream's configuration needs its header, so a missing stream is reported
# (exit 1) before a bad engine flag, which is reported once the header is read
def test_a_streams_configuration_is_checked_after_its_header_is_read(tmp_path, capsys):
    stream_path = tmp_path / "s.xmfs"
    argv = SMALL + ["--frames", "2", "--stream-out", str(stream_path)]
    assert main(argv + ["--metrics-out", str(tmp_path / "m.csv")]) == 0
    out = tmp_path / "replay.csv"
    bad = ["--tmin", "1", "--metrics-out", str(out)]
    assert main(["--input", str(tmp_path / "absent.xmfs"), *bad]) == 1
    capsys.readouterr()
    assert main(["--input", str(stream_path), *bad]) == 2
    assert capsys.readouterr().err == "error: --tmin must be >= 2, got 1\n"
    assert not out.exists()


# an empty path was taken for no path: `--input ""` replayed a synthetic
# stream and exited 0 with a full metrics CSV, and `--stream-out ""` wrote no
# stream and exited 0
@pytest.mark.parametrize("flag", ["--input", "--stream-out"])
def test_an_empty_path_is_a_file_that_cannot_be_opened(tmp_path, capsys, flag):
    out = tmp_path / "m.csv"
    source = [] if flag == "--input" else ["--synthetic"]
    argv = source + [flag, "", "--small", "--ck", "4", "--cv", "4", "--ch", "4", "--frames", "3"]
    assert main(argv + ["--metrics-out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


# the dimensions were checked one at a time, each error naming the
# FeatureDims field: only `FeatureDims.h must be >= 1` was reported
def test_every_broken_dimension_is_named_by_its_flag(tmp_path, capsys):
    out = tmp_path / "m.csv"
    argv = ["--synthetic", "--height", "0", "--width", "4", "--ck", "0", "--cv", "4",
            "--ch", "0", "--tmin", "1", "--frames", "3", "--metrics-out", str(out)]
    assert main(argv) == 2
    # --tmin's rule needs valid dimensions, so it is not reported yet
    assert capsys.readouterr().err == (
        "error: --height must be >= 1, got 0\n"
        "error: --ck must be >= 1, got 0\n"
        "error: --ch must be >= 1, got 0\n"
    )
    assert not out.exists()


# a stream header field was named by its field, the first one only
@pytest.mark.parametrize(
    "flags,named",
    [(["--cin", "5000000000", "--objects", "5000000000"], ["--cin", "--objects"]),
     (["--ch", "5000000000"], ["--ch"])],
)
def test_every_header_field_a_stream_cannot_hold_is_named_by_its_flag(
    tmp_path, capsys, flags, named
):
    out, stream_path = tmp_path / "m.csv", tmp_path / "s.xmfs"
    argv = ["--synthetic", "--small", "--ck", "4", "--cv", "4", "--ch", "4", "--frames", "3",
            *flags, "--stream-out", str(stream_path), "--metrics-out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "".join(
        f"error: header field {flag} must lie in [1, 2^32 - 1], got 5000000000\n"
        for flag in named
    )
    assert not stream_path.exists() and not out.exists()


# -- the CLI against the engine it drives ------------------------------------

U32_OVER = 2**32 + 5  # a header field a stream cannot hold
# stores numpy refuses to shape without allocating: more elements than an
# index holds, or more bytes than a size holds at any c_k >= 1
HUGE_STORES = [("l_max", 2**63 - 1), ("l_max", 4 * 10**18), ("t_max", 4 * 10**18)]
# the stream header's fields, in its order, and their flags
HEADER_FLAGS = {"c_k": "--ck", "c_v": "--cv", "c_in": "--cin", "h": "--height",
                "w": "--width", "frames": "--frames", "objects": "--objects"}


# each drawn setting's values inside its rule, and just outside it
SETTINGS = {
    "h": ([1, 2, 3], [0, -1]), "w": ([1, 2], [0]), "c_k": ([1, 3], [0]),
    "c_v": ([1, 2], [0]), "c_h": ([1, 2], [0]), "c_in": ([None, 1, 2], [0]),
    "frames": ([1, 4, 7], [0]), "objects": ([1, 2], [0]), "seed": ([0, 2], [-1]),
    "drift": ([0.0, 0.05], [-0.01, float("nan"), float("inf")]),
    "r": ([1, 2, 3], [0]), "t_min": ([2, 3], [1]), "t_max": ([1, 2, 3], [0, -1]),
    "p": ([1, 3, 6], [0]), "top_k": ([1, 4, 12], [0]), "l_max": ([0, 5, 12], [-1]),
    "insert_offset": ([0, 1, 2], [-1, 0]),  # inside, taken mod r; outside, 0 is r
    "metrics": (["path"], [""]), "snapshot": (["path", None], [""]),
    "stream_out": (["path", None], [""]),
}


@st.composite
def _cli_runs(draw):
    """One CLI invocation's settings on a tiny geometry: up to two settings
    drawn just outside their rules, the rest inside them."""
    broken = draw(st.lists(st.sampled_from(list(SETTINGS)), max_size=2, unique=True))
    run = {name: draw(st.sampled_from(SETTINGS[name][name in broken])) for name in SETTINGS}
    # t_max, l_max and insert_offset are drawn relative to the rule they break
    run["t_max"] += run["t_min"]
    run["l_max"] += run["p"]
    if "insert_offset" in broken:
        run["insert_offset"] = run["insert_offset"] or run["r"]
    else:
        run["insert_offset"] %= max(run["r"], 1)
    run.update(
        source=draw(st.sampled_from(["synthetic", "synthetic", "synthetic", "stream", "empty"])),
        small=draw(st.booleans()),
        strategy=draw(st.sampled_from(["usage", "random", "kmeans"])),
        deep_update=draw(st.sampled_from(["rth", "every", "never"])),
        unbounded=draw(st.booleans()),
    )
    if draw(st.integers(0, 4)) == 0:
        field, value = draw(st.sampled_from(HUGE_STORES))
        run[field] = value
    # header fields a stream cannot hold reach only a stream that is written:
    # anywhere else they would size real loops and allocations
    if run["source"] == "synthetic" and run["stream_out"] == "path":
        for field in draw(st.lists(st.sampled_from(list(HEADER_FLAGS)), max_size=2, unique=True)):
            run[field] = U32_OVER
    return run


def _argv(run, paths):
    argv = {"synthetic": ["--synthetic"], "stream": ["--input", str(paths["input"])],
            "empty": ["--input", ""]}[run["source"]]
    argv += ["--small"] if run["small"] else []
    for field, flag in {**HEADER_FLAGS, "c_h": "--ch", "seed": "--seed",
                        "drift": "--drift", "r": "--r", "t_min": "--tmin",
                        "t_max": "--tmax", "p": "--proto-p", "top_k": "--topk",
                        "l_max": "--lt-max", "insert_offset": "--insert-offset",
                        "strategy": "--strategy", "deep_update": "--deep-update"}.items():
        if run[field] is not None:
            argv += [flag, str(run[field])]
    argv += ["--unbounded"] if run["unbounded"] else []
    for name, flag in (("metrics", "--metrics-out"), ("snapshot", "--snapshot-out"),
                       ("stream_out", "--stream-out")):
        if run[name] is not None:
            argv += [flag, "" if run[name] == "" else str(paths[name])]
    return argv + ["--no-timing"]


def _expected_rules(run, header):
    """The rules the run breaks, each as the set of flags its error line
    names, in the order they are checked; then the header, when the run
    reaches it."""
    synthetic = run["source"] == "synthetic"
    drift = run["drift"]
    flagged = [
        ({"--frames"}, synthetic and run["frames"] < 1),
        ({"--objects"}, synthetic and run["objects"] < 1),
        ({"--seed"}, run["seed"] < 0),
        ({"--drift"}, synthetic and not (drift >= 0 and drift != float("inf"))),
        ({"--stream-out", "--synthetic"}, run["stream_out"] is not None and not synthetic),
    ]
    problems = [flags for flags, broken in flagged if broken]
    if problems and not synthetic or run["source"] == "empty":
        return problems
    dims = {"--height": header.h, "--width": header.w, "--ck": header.c_k,
            "--cv": header.c_v, "--ch": run["c_h"]}
    broken_dims = [{flag} for flag, value in dims.items() if value < 1]
    if broken_dims:
        return problems + broken_dims
    t_min, t_max, r, p = run["t_min"], run["t_max"], run["r"], run["p"]
    flagged = [
        ({"--tmin"}, t_min < 2),
        ({"--tmax", "--tmin"}, t_max <= t_min),
        ({"--r"}, r < 1),
        ({"--proto-p"}, p < 1),
        ({"--topk"}, run["top_k"] < 1),
        ({"--lt-max", "--proto-p"}, run["l_max"] < p),
        ({"--insert-offset", "--r"}, not 0 <= run["insert_offset"] < r),
        ({"--cin"}, header.c_in < 1),
    ]
    problems += [flags for flags, broken in flagged if broken]
    if problems or run["stream_out"] is None:
        return problems
    cin_flag = "--ch" if run["c_in"] is None else "--cin"
    return [{cin_flag if field == "c_in" else flag}
            for field, flag in HEADER_FLAGS.items()
            if getattr(header, {"frames": "frame_count", "objects": "object_count"}.get(
                field, field)) >= 2**32]


def _in_process(run, header, paths, stream_file):
    """The outputs the engine builds for the run in-process: the metrics CSV
    and the snapshot, or None when its store cannot be shaped."""
    config = PipelineConfig(
        dims=header.dims(c_h=run["c_h"]), r=run["r"], t_min=run["t_min"],
        t_max=run["t_max"], p=run["p"], top_k=run["top_k"], l_max=run["l_max"],
        deep_update_mode={"rth": "every_rth", "every": "every_frame", "never": "never"}[
            run["deep_update"]],
        prototype_strategy=run["strategy"], insert_offset=run["insert_offset"],
        unbounded=run["unbounded"], sensory_input_channels=header.c_in,
    )
    if stream_file is not None:
        frames = stream.iter_frames(stream_file)
    else:
        frames = synthetic_frames(run["seed"], header, run["drift"])
    try:
        pipeline, records = run_stream(frames, config, seed=run["seed"])
    except MemoryError:
        return None
    write_metrics_csv(paths["want_metrics"], records, no_timing=True)
    stream.write_lt_snapshot(paths["want_snapshot"], [t.memory for t in pipeline.tracks])
    return paths["want_metrics"].read_bytes(), paths["want_snapshot"].read_bytes()


# the CLI's faults were each found by hand: an empty --input replayed a
# synthetic stream, dimension errors named dataclass fields one at a time,
# and an unshapeable store escaped as a traceback. A drawn run must name
# each broken rule by its flags (exit 2, no output file), fail on one error
# line (exit 1), or write what the engine builds in-process (exit 0)
@settings(max_examples=150, deadline=None)
@given(_cli_runs())
def test_the_cli_reports_each_broken_rule_or_writes_what_the_engine_builds(run):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {name: tmp / name for name in (
            "input", "metrics", "snapshot", "stream_out", "want_metrics", "want_snapshot",
            "want_stream")}
        h, w = (8, 8) if run["small"] else (run["h"], run["w"])
        header = StreamHeader(
            c_k=run["c_k"], c_v=run["c_v"], c_in=run["c_h"] if run["c_in"] is None else run["c_in"],
            h=h, w=w, frame_count=run["frames"], object_count=run["objects"])
        if run["source"] == "stream":
            # a valid stream of its own geometry: the header's fields, not the flags, count
            header = StreamHeader(c_k=2, c_v=3, c_in=2, h=2, w=1, frame_count=5, object_count=2)
            stream.generate_synthetic(paths["input"], 3, header, 0.05)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(_argv(run, paths))
        lines = stderr.getvalue().splitlines()
        assert all(line.startswith("error: ") for line in lines), lines
        outputs = {name: paths[name].exists() for name in ("metrics", "snapshot", "stream_out")}

        rules = _expected_rules(run, header)
        if rules:
            assert code == 2, lines
            named = [set(re.findall(r"--[a-z][a-z-]*", line)) for line in lines]
            assert named == rules, lines
            assert not any(outputs.values())
            return
        if run["source"] == "empty" or run["stream_out"] == "":
            assert (code, len(lines)) == (1, 1), lines
            assert not any(outputs.values())
            return
        if run["stream_out"] is not None:
            stream.generate_synthetic(paths["want_stream"], run["seed"], header, run["drift"])
            assert paths["stream_out"].read_bytes() == paths["want_stream"].read_bytes()
        source = paths["input"] if run["source"] == "stream" else None
        want = _in_process(run, header, paths, source)
        if want is None or "" in (run["metrics"], run["snapshot"]):
            assert (code, len(lines)) == (1, 1), lines
            assert not outputs["snapshot"]
            assert outputs["metrics"] == (want is not None and run["metrics"] == "path")
        else:
            assert (code, lines) == (0, [])
        if outputs["metrics"]:
            assert paths["metrics"].read_bytes() == want[0]
        if outputs["snapshot"]:
            assert paths["snapshot"].read_bytes() == want[1]
