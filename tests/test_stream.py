import struct
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from xmem import (
    FeatureDims,
    KeyBlock,
    PipelineConfig,
    SensoryState,
    ShrinkageVector,
    StreamFormatError,
    TrackMemory,
    ValueBlock,
)
from xmem.harness import run_stream
from xmem.pipeline import ObjectTrack
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
    with pytest.raises(ValueError):
        next(synthetic_frames(0, HEADER, drift=-0.1))


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


def test_snapshot_roundtrip(tmp_path):
    dims = FeatureDims(h=2, w=2, c_k=3, c_v=4, c_h=2)
    header = StreamHeader(c_k=3, c_v=4, c_in=2, h=2, w=2, frame_count=40, object_count=2)
    cfg = PipelineConfig(
        dims=dims, r=1, t_min=2, t_max=4, p=3, l_max=9, sensory_input_channels=2
    )
    pipeline, _ = run_stream(synthetic_frames(5, header, 0.2), cfg)
    path = tmp_path / "lt.xmlt"
    write_lt_snapshot(path, pipeline.tracks)
    snaps = read_lt_snapshot(path)
    assert len(snaps) == 2
    for track, snap in zip(pipeline.tracks, snaps):
        memory, lt = track.memory, track.long_term.columns
        assert track.long_term.element_count > 0
        keys, shrinkage, values = memory.blocks(lt)
        npt.assert_array_equal(snap.keys, keys.data)
        npt.assert_array_equal(snap.shrinkage, shrinkage.data)
        npt.assert_array_equal(snap.values, values.data)
        assert snap.usage.dtype == np.float64
        npt.assert_array_equal(snap.usage, memory.usage[lt])


@pytest.mark.parametrize("c_k,c_v", [(1, 4), (3, 1)])
def test_single_channel_snapshot_keeps_its_rows(tmp_path, c_k, c_v):
    dims = FeatureDims(h=2, w=2, c_k=c_k, c_v=c_v, c_h=2)
    header = StreamHeader(c_k=c_k, c_v=c_v, c_in=2, h=2, w=2, frame_count=20, object_count=1)
    cfg = PipelineConfig(
        dims=dims, r=1, t_min=2, t_max=4, p=3, l_max=9, sensory_input_channels=2
    )
    pipeline, _ = run_stream(synthetic_frames(3, header, 0.2), cfg)
    path = tmp_path / "lt.xmlt"
    write_lt_snapshot(path, pipeline.tracks)
    (snap,) = read_lt_snapshot(path)
    (track,) = pipeline.tracks
    count = track.long_term.element_count
    assert count > 0
    keys, shrinkage, values = track.memory.blocks(track.long_term.columns)
    assert snap.keys.shape == (c_k, count)
    assert snap.values.shape == (c_v, count)
    assert snap.shrinkage.shape == snap.usage.shape == (count,)
    npt.assert_array_equal(snap.keys, keys.data)
    npt.assert_array_equal(snap.shrinkage, shrinkage.data)
    npt.assert_array_equal(snap.values, values.data)
    npt.assert_array_equal(snap.usage, track.memory.usage[track.long_term.columns])


def test_snapshot_byte_layout_is_channel_major(tmp_path):
    # one track whose long-term memory holds three known prototypes
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
    keys = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    shrinkage = [1.5, 2.5, 3.5]
    values = [[10.0, 11.0, 12.0], [13.0, 14.0, 15.0], [16.0, 17.0, 18.0]]
    memory.commit(KeyBlock(keys), ShrinkageVector(shrinkage), ValueBlock(values))
    usage = [0.1, 0.2, 0.3]  # not float32-representable: must stay float64
    memory.add_usage(np.concatenate([usage, np.zeros(memory.working.element_count)]))
    track = ObjectTrack(0, memory, SensoryState.zeros(2, 1, 4))
    path = tmp_path / "lt.xmlt"
    write_lt_snapshot(path, [track])

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


def _snapshot(tmp_path, monkeypatch):
    """A two-track snapshot file, its bytes, and each track's long-term count."""
    header = StreamHeader(c_k=3, c_v=4, c_in=2, h=2, w=2, frame_count=30, object_count=2)
    cfg = PipelineConfig(
        dims=header.dims(c_h=2), r=1, t_min=2, t_max=4, p=3, l_max=9,
        sensory_input_channels=2,
    )
    pipeline, _ = run_stream(synthetic_frames(5, header, 0.2), cfg)
    path = tmp_path / "lt.xmlt"
    write_lt_snapshot(path, pipeline.tracks)

    def refuse(self):
        raise AssertionError("read_lt_snapshot must not read the whole file")

    blob = path.read_bytes()
    monkeypatch.setattr(Path, "read_bytes", refuse)
    return path, blob, [t.long_term.element_count for t in pipeline.tracks]


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
