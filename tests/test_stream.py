import dataclasses
import errno
import struct
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmem import (
    ConfigError,
    FeatureDims,
    KeyBlock,
    PipelineConfig,
    ShapeError,
    ShrinkageVector,
    StreamFormatError,
    TrackMemory,
    ValueBlock,
)
from xmem import stream as stream_module
from xmem.harness import run_stream, write_metrics_csv
from xmem.stream import (
    StreamHeader,
    generate_synthetic,
    iter_frames,
    read_header,
    read_lt_snapshot,
    synthetic_frames,
    write_lt_snapshot,
    write_stream,
)

HEADER = StreamHeader(c_k=3, c_v=4, c_in=2, h=2, w=3, frame_count=6, object_count=2)


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "stream.xmfs"
    frames = list(synthetic_frames(1, HEADER, drift=0.2))
    write_stream(path, HEADER, frames)
    assert read_header(path) == HEADER
    loaded = list(iter_frames(path))
    assert len(loaded) == HEADER.frame_count
    for orig, got in zip(frames, loaded):
        for o, g in zip(orig, got):
            npt.assert_array_equal(o.raw_query, g.raw_query)
            npt.assert_array_equal(o.raw_shrinkage, g.raw_shrinkage)
            npt.assert_array_equal(o.raw_selection, g.raw_selection)
            npt.assert_array_equal(o.values, g.values)
            npt.assert_array_equal(o.sensory_input, g.sensory_input)


def test_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a.xmfs", tmp_path / "b.xmfs"
    generate_synthetic(a, seed=9, header=HEADER, drift=0.3)
    generate_synthetic(b, seed=9, header=HEADER, drift=0.3)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.xmfs"
    generate_synthetic(c, seed=10, header=HEADER, drift=0.3)
    assert a.read_bytes() != c.read_bytes()


def test_zero_drift_repeats_first_frame():
    frames = list(synthetic_frames(4, HEADER, drift=0.0))
    for later in frames[1:]:
        for o0, ot in zip(frames[0], later):
            npt.assert_array_equal(o0.raw_query, ot.raw_query)
            npt.assert_array_equal(ot.values, o0.values)


def test_inter_frame_distance_grows_with_drift():
    def mean_step(drift):
        frames = list(synthetic_frames(11, HEADER, drift=drift))
        deltas = [
            np.linalg.norm(b[0].raw_query - a[0].raw_query)
            for a, b in zip(frames, frames[1:])
        ]
        return np.mean(deltas)

    assert mean_step(0.0) == 0.0
    assert mean_step(0.05) < mean_step(0.5) < mean_step(2.0)


def test_negative_drift_rejected():
    # NaN and inf too: NaN compares false both ways, so a bare `drift < 0`
    # check would replay it as a static stream
    for drift in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            next(synthetic_frames(0, HEADER, drift=drift))


def test_bad_magic_reported_at_offset_zero(tmp_path):
    path = tmp_path / "bad.xmfs"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(StreamFormatError) as err:
        read_header(path)
    assert err.value.offset == 0


def test_truncated_header_reports_length(tmp_path):
    path = tmp_path / "short.xmfs"
    path.write_bytes(b"XMFS\x01\x00")
    with pytest.raises(StreamFormatError) as err:
        read_header(path)
    assert err.value.offset == 6


def test_header_read_does_not_load_the_file(tmp_path, monkeypatch):
    path = tmp_path / "stream.xmfs"
    generate_synthetic(path, seed=2, header=HEADER, drift=0.1)

    def refuse(self):
        raise AssertionError("read_header must not read the whole file")

    monkeypatch.setattr(Path, "read_bytes", refuse)
    assert read_header(path) == HEADER


def test_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "trunc.xmfs"
    generate_synthetic(path, seed=2, header=HEADER, drift=0.1)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(StreamFormatError) as err:
        read_header(path)
    assert err.value.offset == len(blob) - 10
    assert "byte offset" in str(err.value)


def test_zero_field_rejected(tmp_path):
    bad = StreamHeader(c_k=3, c_v=4, c_in=2, h=2, w=3, frame_count=6, object_count=2)
    blob = bytearray(bad.pack())
    blob[8:12] = (0).to_bytes(4, "little")  # c_k = 0
    path = tmp_path / "zero.xmfs"
    path.write_bytes(bytes(blob))
    with pytest.raises(StreamFormatError) as err:
        read_header(path)
    assert err.value.offset == 8


def _stream_writer(**fields):
    header = dataclasses.replace(HEADER, **fields)
    return lambda path: generate_synthetic(path, seed=2, header=header, drift=0.1)


# a header the format cannot hold was written in full (a zero field, which
# the reader then refused) or died in struct.pack (a negative one); a
# snapshot of no objects raised IndexError
@pytest.mark.parametrize("write,field", [
    (_stream_writer(c_k=0), "c_k"),
    (_stream_writer(w=-1), "w"),
    (_stream_writer(frame_count=2**32), "frame_count"),
    (lambda path: write_lt_snapshot(path, []), "object_count"),
], ids=["c_k-0", "w--1", "frame_count-4294967296", "empty-snapshot"])
def test_unwritable_header_raises_before_the_file_opens(tmp_path, write, field):
    path = tmp_path / "bad"
    with pytest.raises(ConfigError, match=field):
        write(path)
    assert not path.exists()


def _failing_after_one_frame(header):
    frames = synthetic_frames(2, header, drift=0.1)
    yield next(frames)
    raise MemoryError("frame 1 cannot be allocated")


_FIVE = dataclasses.replace(HEADER, frame_count=5)


# each wrote a file its own reader refused: a truncated stream (a failing
# generator, too few frames), or blocks larger than the header declares
@pytest.mark.parametrize("header,frames,error", [
    (_FIVE, lambda: _failing_after_one_frame(_FIVE), MemoryError),
    (_FIVE, lambda: synthetic_frames(2, dataclasses.replace(_FIVE, frame_count=4), 0.1),
     ValueError),
    (_FIVE, lambda: synthetic_frames(2, dataclasses.replace(_FIVE, frame_count=6), 0.1),
     ValueError),
    (dataclasses.replace(_FIVE, c_k=2), lambda: synthetic_frames(2, _FIVE, 0.1), ShapeError),
    (_FIVE, lambda: synthetic_frames(2, dataclasses.replace(_FIVE, object_count=3), 0.1),
     ValueError),
], ids=["generator-raises", "too-few-frames", "too-many-frames", "wrong-block-shape",
        "wrong-object-count"])
def test_a_stream_that_cannot_be_written_whole_leaves_no_file(tmp_path, header, frames, error):
    path = tmp_path / "s.xmfs"
    with pytest.raises(error):
        write_stream(path, header, frames())
    assert not path.exists()


def test_a_path_that_cannot_be_opened_is_left_as_it_is(tmp_path, monkeypatch):
    path = tmp_path / "kept.xmfs"
    path.write_bytes(b"kept")

    def refuse(*args, **kwargs):
        raise PermissionError(f"cannot open {path}")

    monkeypatch.setattr(stream_module, "open", refuse, raising=False)
    with pytest.raises(PermissionError):
        write_stream(path, HEADER, synthetic_frames(2, HEADER, 0.1))
    assert path.read_bytes() == b"kept"


def test_snapshot_roundtrip(tmp_path):
    dims = FeatureDims(h=2, w=2, c_k=3, c_v=4, c_h=2, c_in=2)
    header = StreamHeader(c_k=3, c_v=4, c_in=2, h=2, w=2, frame_count=40, object_count=2)
    cfg = PipelineConfig(
        dims=dims, r=1, t_min=2, t_max=4, p=3, l_max=9
    )
    pipeline, _ = run_stream(synthetic_frames(5, header, 0.2), cfg)
    path = tmp_path / "lt.xmlt"
    write_lt_snapshot(path, [t.memory for t in pipeline.tracks])
    snaps = read_lt_snapshot(path)
    assert len(snaps) == 2
    for track, snap in zip(pipeline.tracks, snaps):
        memory, lt = track.memory, track.long_term.columns
        assert track.long_term.element_count > 0
        keys, shrinkage, values = memory.blocks(lt)
        npt.assert_array_equal(snap.keys, keys)
        npt.assert_array_equal(snap.shrinkage, shrinkage)
        npt.assert_array_equal(snap.values, values)
        assert snap.usage.dtype == np.float64
        npt.assert_array_equal(snap.usage, memory.usage[lt])


@pytest.mark.parametrize("c_k,c_v", [(1, 4), (3, 1)])
def test_single_channel_snapshot_keeps_its_rows(tmp_path, c_k, c_v):
    dims = FeatureDims(h=2, w=2, c_k=c_k, c_v=c_v, c_h=2, c_in=2)
    header = StreamHeader(c_k=c_k, c_v=c_v, c_in=2, h=2, w=2, frame_count=20, object_count=1)
    cfg = PipelineConfig(
        dims=dims, r=1, t_min=2, t_max=4, p=3, l_max=9
    )
    pipeline, _ = run_stream(synthetic_frames(3, header, 0.2), cfg)
    path = tmp_path / "lt.xmlt"
    write_lt_snapshot(path, [t.memory for t in pipeline.tracks])
    (snap,) = read_lt_snapshot(path)
    (track,) = pipeline.tracks
    count = track.long_term.element_count
    assert count > 0
    keys, shrinkage, values = track.memory.blocks(track.long_term.columns)
    assert snap.keys.shape == (c_k, count)
    assert snap.values.shape == (c_v, count)
    assert snap.shrinkage.shape == snap.usage.shape == (count,)
    npt.assert_array_equal(snap.keys, keys)
    npt.assert_array_equal(snap.shrinkage, shrinkage)
    npt.assert_array_equal(snap.values, values)
    npt.assert_array_equal(snap.usage, track.memory.usage[track.long_term.columns])


def test_snapshot_byte_layout_is_channel_major(tmp_path):
    # one store whose long-term memory holds three known prototypes
    dims = FeatureDims(h=1, w=4, c_k=2, c_v=3, c_h=2)
    memory = TrackMemory(dims, t_min=2, t_max=3, l_max=8)
    rng = np.random.default_rng(0)
    for frame in range(3):
        memory.append_frame(
            KeyBlock(rng.normal(size=(2, 4)).astype(np.float32)),
            ShrinkageVector(np.full(4, 2.0, dtype=np.float32)),
            ValueBlock(rng.normal(size=(3, 4)).astype(np.float32)),
            frame_idx=frame,
        )
    memory.candidates(2)
    keys = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
    shrinkage = np.array([1.5, 2.5, 3.5], dtype=np.float32)
    values = np.array(
        [[10.0, 11.0, 12.0], [13.0, 14.0, 15.0], [16.0, 17.0, 18.0]], dtype=np.float32
    )
    memory.commit(keys, shrinkage, values)
    usage = [0.1, 0.2, 0.3]  # not float32-representable: must stay float64
    memory.add_usage(np.concatenate([usage, np.zeros(memory.working.element_count)]))
    path = tmp_path / "lt.xmlt"
    write_lt_snapshot(path, [memory])

    expected = b"XMLT" + struct.pack("<4I", 2, 1, 2, 3) + struct.pack("<I", 3)
    expected += struct.pack("<6f", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    expected += struct.pack("<3f", 1.5, 2.5, 3.5)
    expected += struct.pack("<9f", *range(10, 19))
    expected += struct.pack("<3d", 0.1, 0.2, 0.3)
    assert path.read_bytes() == expected


def test_single_channel_fields_keep_their_rows(tmp_path):
    header = StreamHeader(c_k=1, c_v=1, c_in=1, h=2, w=3, frame_count=3, object_count=1)
    path = tmp_path / "thin.xmfs"
    generate_synthetic(path, seed=4, header=header, drift=0.1)
    for feats in next(iter_frames(path)):
        assert feats.raw_query.shape == (1, 6)
        assert feats.raw_shrinkage.shape == (6,)
        assert feats.values.shape == (1, 6)
        assert feats.sensory_input.shape == (1, 6)
    cfg = PipelineConfig(dims=header.dims(c_h=1), r=1, t_min=2, t_max=3, p=2, l_max=4)
    _, rows = run_stream(iter_frames(path), cfg)
    assert len(rows) == 3


def test_snapshot_version_1_rejected(tmp_path):
    path = tmp_path / "old.xmlt"
    path.write_bytes(b"XMLT" + (1).to_bytes(4, "little") + bytes(12))
    with pytest.raises(StreamFormatError) as err:
        read_lt_snapshot(path)
    assert err.value.offset == 4


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.xmlt"
    path.write_bytes(b"WHAT" + bytes(16))
    with pytest.raises(StreamFormatError) as err:
        read_lt_snapshot(path)
    assert err.value.offset == 0


def test_stream_shrinking_mid_read_reports_frame_offset(tmp_path):
    # objects of 26 KB each, larger than the reader's buffer, so frame 2 is
    # still on disk when the file is cut short
    header = StreamHeader(c_k=3, c_v=16, c_in=2, h=16, w=16, frame_count=4, object_count=2)
    path = tmp_path / "shrinks.xmfs"
    generate_synthetic(path, seed=2, header=header, drift=0.1)
    frames = iter_frames(path)
    next(frames)  # the size check has passed and frame 0 is read
    frame_bytes = header.object_count * header.bytes_per_object
    third = len(header.pack()) + 2 * frame_bytes
    with open(path, "r+b") as f:
        f.truncate(third + frame_bytes // 2)
    next(frames)
    with pytest.raises(StreamFormatError) as err:
        next(frames)
    assert err.value.offset == third
    assert "truncated frame 2" in str(err.value)


def _write_snapshot(path):
    """Write a two-track snapshot file; returns each track's long-term count."""
    header = StreamHeader(c_k=3, c_v=4, c_in=2, h=2, w=2, frame_count=30, object_count=2)
    cfg = PipelineConfig(
        dims=header.dims(c_h=2), r=1, t_min=2, t_max=4, p=3, l_max=9,
    )
    pipeline, _ = run_stream(synthetic_frames(5, header, 0.2), cfg)
    write_lt_snapshot(path, [t.memory for t in pipeline.tracks])
    return [t.long_term.element_count for t in pipeline.tracks]


def _snapshot(tmp_path, monkeypatch):
    """A two-track snapshot file, its bytes, and each track's long-term count."""
    path = tmp_path / "lt.xmlt"
    counts = _write_snapshot(path)

    def refuse(self):
        raise AssertionError("read_lt_snapshot must not read the whole file")

    blob = path.read_bytes()
    monkeypatch.setattr(Path, "read_bytes", refuse)
    return path, blob, counts


def test_snapshot_is_read_block_by_block(tmp_path, monkeypatch):
    path, _, counts = _snapshot(tmp_path, monkeypatch)
    snaps = read_lt_snapshot(path)
    assert [snap.usage.size for snap in snaps] == counts


def test_snapshot_truncation_offsets(tmp_path, monkeypatch):
    path, blob, counts = _snapshot(tmp_path, monkeypatch)
    # header 20 bytes, then per object a u32 count and 4 blocks of
    # c_k, 1, c_v float32 and 1 float64 values per element
    first_object = 4 + counts[0] * 4 * (3 + 1 + 4) + counts[0] * 8
    cases = [
        (10, "truncated snapshot header", 10),
        (22, "truncated snapshot object header", 20),
        (40, "truncated snapshot block", 40),
        (20 + first_object + 2, "truncated snapshot object header", 20 + first_object),
    ]
    for length, message, offset in cases:
        path.write_bytes(blob[:length])
        with pytest.raises(StreamFormatError) as err:
            read_lt_snapshot(path)
        assert message in str(err.value) and err.value.offset == offset, length
    path.write_bytes(blob + b"\0")
    with pytest.raises(StreamFormatError) as err:
        read_lt_snapshot(path)
    assert "trailing bytes" in str(err.value) and err.value.offset == len(blob)


def test_snapshot_corrupt_count_is_rejected_before_reading(tmp_path, monkeypatch):
    path, blob, _ = _snapshot(tmp_path, monkeypatch)
    # the first object claims 2^32 - 1 elements: 128 GB of keys
    path.write_bytes(blob[:20] + struct.pack("<I", 2**32 - 1) + blob[24:])
    with pytest.raises(StreamFormatError) as err:
        read_lt_snapshot(path)
    assert "truncated snapshot block" in str(err.value)
    assert err.value.offset == len(blob)


def test_snapshot_sizes_that_overflow_int64_are_rejected(tmp_path):
    # c_k * count = (2^32 - 1)^2 wraps to a negative int64 byte count
    path = tmp_path / "lt.xmlt"
    path.write_bytes(
        struct.pack("<4s4I", b"XMLT", 2, 1, 2**32 - 1, 4)
        + struct.pack("<I", 2**32 - 1)
        + bytes(64)
    )
    with pytest.raises(StreamFormatError) as err:
        read_lt_snapshot(path)
    assert "truncated snapshot block" in str(err.value)
    assert err.value.offset == path.stat().st_size


# -- parser fuzzing ------------------------------------------------------------
#
# Truncated, byte-flipped and header-mutated copies of small valid files: a
# parser either reads them or raises StreamFormatError at an offset inside
# the file, never anything else.

_STREAM_FIELDS = list(range(4, 36, 4))  # version .. object_count
_SNAPSHOT_FIELDS = [4, 8, 12, 16, 20]  # version, objects, c_k, c_v, first count
_U32 = st.one_of(st.sampled_from([0, 1, 2, 3, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of a small valid stream and snapshot, and a scratch path."""
    root = tmp_path_factory.mktemp("fuzz")
    header = StreamHeader(c_k=2, c_v=3, c_in=2, h=2, w=2, frame_count=3, object_count=2)
    generate_synthetic(root / "valid.xmfs", seed=3, header=header, drift=0.1)
    _write_snapshot(root / "valid.xmlt")
    return {
        "stream": (root / "valid.xmfs").read_bytes(),
        "snapshot": (root / "valid.xmlt").read_bytes(),
        "path": root / "mutant",
    }


def _mutants(fields):
    """A mutation of a file's bytes: truncation, byte flips or u32 header
    fields set to arbitrary values."""
    cut = st.tuples(st.just("cut"), st.integers(0, 2**20))
    flips = st.tuples(
        st.just("flip"),
        st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)), min_size=1, max_size=4),
    )
    header = st.tuples(
        st.just("field"),
        st.lists(st.tuples(st.sampled_from(fields), _U32), min_size=1, max_size=3),
    )
    return st.one_of(cut, flips, header)


def _mutate(blob, mutation):
    kind, arg = mutation
    if kind == "cut":
        return blob[: arg % len(blob)]
    out = bytearray(blob)
    if kind == "flip":
        for pos, bits in arg:
            out[pos % len(out)] ^= bits
    else:
        for offset, value in arg:
            struct.pack_into("<I", out, offset, value)
    return bytes(out)


def _parses_or_rejects(parse, path, blob):
    path.write_bytes(blob)
    try:
        parse(path)
    except StreamFormatError as err:
        assert 0 <= err.offset <= len(blob), (err, len(blob))


@settings(max_examples=150, deadline=None)
@given(_mutants(_STREAM_FIELDS))
def test_fuzzed_stream_parses_or_is_rejected(valid_files, mutation):
    blob = _mutate(valid_files["stream"], mutation)
    _parses_or_rejects(lambda path: list(iter_frames(path)), valid_files["path"], blob)
    _parses_or_rejects(read_header, valid_files["path"], blob)


@settings(max_examples=150, deadline=None)
@given(_mutants(_SNAPSHOT_FIELDS))
def test_fuzzed_snapshot_parses_or_is_rejected(valid_files, mutation):
    blob = _mutate(valid_files["snapshot"], mutation)
    _parses_or_rejects(read_lt_snapshot, valid_files["path"], blob)


# -- one header rule, one writer rule --------------------------------------------

_FORMAT_FIELDS = [("stream", i) for i in range(7)] + [("snapshot", i) for i in range(3)]
_PARSERS = {"stream": lambda path: list(iter_frames(path)), "snapshot": read_lt_snapshot}


# the snapshot reader kept its own header checks and accepted a zero
# object_count, c_k or c_v: c_k = c_v = 0 parsed into (0, m) arrays
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_FORMAT_FIELDS), st.lists(st.integers(1, 2**32 - 1), max_size=6))
def test_a_zero_header_field_is_rejected_at_its_own_offset(valid_files, field, later):
    kind, i = field
    blob = bytearray(valid_files[kind])
    struct.pack_into("<I", blob, 8 + 4 * i, 0)
    # the fields after it may hold any other size: the zero is still what fails
    fields_after = range(i + 1, 7 if kind == "stream" else 3)
    for j, value in zip(fields_after, later):
        struct.pack_into("<I", blob, 8 + 4 * j, value)
    path = valid_files["path"]
    path.write_bytes(bytes(blob))
    parsers = [_PARSERS[kind]] + ([read_header] if kind == "stream" else [])
    for parse in parsers:
        with pytest.raises(StreamFormatError) as err:
            parse(path)
        assert err.value.offset == 8 + 4 * i, (kind, i)


def _output_writers():
    """The snapshot and CSV writers, each bound to the outputs of one small
    two-track run: path -> None."""
    header = StreamHeader(c_k=3, c_v=4, c_in=2, h=2, w=2, frame_count=30, object_count=2)
    cfg = PipelineConfig(
        dims=header.dims(c_h=2), r=1, t_min=2, t_max=4, p=3, l_max=9,
    )
    pipeline, records = run_stream(synthetic_frames(5, header, 0.2), cfg)
    return {
        "snapshot": lambda path: write_lt_snapshot(path, [t.memory for t in pipeline.tracks]),
        "csv": lambda path: write_metrics_csv(path, records),
    }


# the snapshot and CSV writers were the last outputs without the stream's
# clean-up: a snapshot that failed part-way left a file its reader refused,
# and a CSV that hit a full disk left a clean file of fewer rows, which read
# as a shorter run
@pytest.mark.parametrize("output", ["snapshot", "csv"])
def test_an_output_that_cannot_be_written_whole_leaves_no_file(tmp_path, faulty_open, output):
    write = _output_writers()[output]
    whole = tmp_path / "whole"
    write(whole)
    # the disk fills after about a third of the file
    room = len(whole.read_bytes()) // 3
    path = tmp_path / "part"
    faulty_open(path, room)
    with pytest.raises(OSError) as err:
        write(path)
    assert err.value.errno == errno.ENOSPC
    assert not path.exists()


@pytest.mark.parametrize("output", ["snapshot", "csv"])
def test_an_output_path_that_cannot_be_opened_keeps_its_bytes(tmp_path, faulty_open, output):
    write = _output_writers()[output]
    path = tmp_path / "kept"
    path.write_bytes(b"kept")
    faulty_open(path, None)
    with pytest.raises(PermissionError):
        write(path)
    assert path.read_bytes() == b"kept"
