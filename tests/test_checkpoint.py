"""Binary tensor-archive format: round-trips and corruption detection."""

import mmap
import os
import struct
import tracemalloc

import numpy as np
import pytest

from segan.checkpoint import MAGIC, load_tensors, save_tensors
from segan.errors import CorruptCheckpointError

from helpers import archive_bytes


def _sample_tensors():
    rng = np.random.default_rng(7)
    return {
        "enc1_w": rng.standard_normal((31, 1, 16)).astype(np.float32),
        "enc1_b": np.zeros(16, dtype=np.float32),
        "alpha": np.float32(0.25) * np.ones((3,), dtype=np.float32),
        "scalar": np.array(2.5, dtype=np.float32),
    }


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "model.sgn"
    tensors = _sample_tensors()
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].dtype == np.dtype("<f4")
        assert np.array_equal(loaded[name], arr)


def test_bytes_independent_of_insertion_order(tmp_path):
    tensors = _sample_tensors()
    a, b = tmp_path / "a.sgn", tmp_path / "b.sgn"
    save_tensors(a, tensors)
    save_tensors(b, dict(reversed(list(tensors.items()))))
    assert a.read_bytes() == b.read_bytes()


def test_float64_input_stored_as_float32(tmp_path):
    path = tmp_path / "f64.sgn"
    save_tensors(path, {"x": np.array([1.0, 1e-9, np.pi])})
    loaded = load_tensors(path)["x"]
    assert loaded.dtype == np.dtype("<f4")
    assert np.array_equal(loaded, np.array([1.0, 1e-9, np.pi], dtype=np.float32))


def test_rank_zero_tensor(tmp_path):
    path = tmp_path / "r0.sgn"
    save_tensors(path, {"s": np.array(3.5, dtype=np.float32)})
    loaded = load_tensors(path)["s"]
    assert loaded.shape == ()
    assert float(loaded) == 3.5


def test_empty_archive(tmp_path):
    path = tmp_path / "empty.sgn"
    save_tensors(path, {})
    assert load_tensors(path) == {}
    assert path.read_bytes() == MAGIC + struct.pack("<I", 0)


def test_header_layout_is_stable(tmp_path):
    path = tmp_path / "one.sgn"
    save_tensors(path, {"ab": np.array([1.0, 2.0], dtype=np.float32)})
    blob = path.read_bytes()
    expected = (b"SGN2" + struct.pack("<I", 1) + struct.pack("<H", 2) + b"ab"
                + struct.pack("<B", 1) + struct.pack("<I", 2)
                + bytes(64 - 17)              # zero padding to the 64-byte offset
                + np.array([1.0, 2.0], dtype="<f4").tobytes())
    assert blob == expected


def test_bad_magic(tmp_path):
    # SGN1, the old unpadded layout, is rejected like any other magic
    path = tmp_path / "bad.sgn"
    for magic in (b"NOPE", b"SGN1"):
        path.write_bytes(magic + struct.pack("<I", 0))
        with pytest.raises(CorruptCheckpointError, match=f"bad magic {magic!r}"):
            load_tensors(path)


@pytest.mark.parametrize("keep", [0, 2, 4, 6, 9, 11, 13, 15, 20])
def test_truncation_at_many_cut_points(tmp_path, keep):
    path = tmp_path / "full.sgn"
    save_tensors(path, {"ab": np.array([1.0, 2.0], dtype=np.float32)})
    blob = path.read_bytes()
    assert keep < len(blob)
    cut = tmp_path / "cut.sgn"
    cut.write_bytes(blob[:keep])
    with pytest.raises(CorruptCheckpointError):
        load_tensors(cut)


def test_huge_declared_shape_is_truncation_not_allocation(tmp_path):
    path = tmp_path / "huge.sgn"
    path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<H", 1) + b"x"
                     + struct.pack("<B", 2) + struct.pack("<2I", 2**31, 2**31))
    with pytest.raises(CorruptCheckpointError, match="truncated"):
        load_tensors(path)


def test_missing_entry_is_truncation(tmp_path):
    path = tmp_path / "short.sgn"
    path.write_bytes(archive_bytes([(b"x", (1,), np.array([1.0], dtype="<f4").tobytes())],
                                   count=2))
    with pytest.raises(CorruptCheckpointError, match="truncated"):
        load_tensors(path)


def test_duplicate_names_rejected(tmp_path):
    entry = (b"x", (1,), np.array([1.0], dtype="<f4").tobytes())
    path = tmp_path / "dup.sgn"
    path.write_bytes(archive_bytes([entry, entry]))
    with pytest.raises(CorruptCheckpointError, match="duplicate"):
        load_tensors(path)


def test_rank_past_numpys_dimensions_rejected(tmp_path):
    # a one-value tensor of rank 65, one more than numpy 2 allows
    path = tmp_path / "rank.sgn"
    path.write_bytes(archive_bytes([(b"x", (1,) * 65, np.array([1.0], dtype="<f4").tobytes())]))
    with pytest.raises(CorruptCheckpointError, match=f"{path}: rank 65 tensor"):
        load_tensors(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.sgn"
    save_tensors(path, {"x": np.array([1.0], dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptCheckpointError, match="trailing"):
        load_tensors(path)


def test_undecodable_name_rejected(tmp_path):
    path = tmp_path / "name.sgn"
    path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<H", 1) + b"\xff"
                     + struct.pack("<B", 0)
                     + np.array(1.0, dtype="<f4").tobytes())
    with pytest.raises(CorruptCheckpointError, match="undecodable"):
        load_tensors(path)


def test_name_too_long_rejected(tmp_path):
    with pytest.raises(ValueError, match="name too long"):
        save_tensors(tmp_path / "long.sgn", {"x" * 70000: np.zeros(1)})


def test_unicode_names_round_trip(tmp_path):
    path = tmp_path / "uni.sgn"
    save_tensors(path, {"enc/α": np.array([1.0], dtype=np.float32)})
    assert "enc/α" in load_tensors(path)


def test_load_copies_no_payload(tmp_path):
    # a load copies no payload: each is a view of the file's mapping
    rng = np.random.default_rng(3)
    tensors = {f"t{i}": rng.standard_normal((256, 1024)).astype(np.float32) for i in range(8)}
    payload = sum(a.nbytes for a in tensors.values())
    path = tmp_path / "big.sgn"
    save_tensors(path, tensors)
    tracemalloc.start()
    try:
        loaded = load_tensors(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * payload, (peak, payload)
    assert all(np.array_equal(loaded[k], v) for k, v in tensors.items())


# ---------------------------------------------------------------------------
# Aligned payloads mapped copy-on-write

def _owner(arr):
    """The object at the end of an array's chain of bases."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def test_payloads_are_aligned_writable_views_of_one_mapping(tmp_path):
    path = tmp_path / "model.sgn"
    tensors = _sample_tensors()
    save_tensors(path, tensors)
    blob = path.read_bytes()
    loaded = load_tensors(path)
    owners = {id(_owner(arr)) for arr in loaded.values()}
    mapping = _owner(loaded["alpha"])
    assert len(owners) == 1 and isinstance(mapping, mmap.mmap)
    start = np.frombuffer(mapping, np.uint8).ctypes.data
    for name, arr in loaded.items():
        assert arr.flags.writeable and arr.flags.aligned
        offset = arr.ctypes.data - start
        assert offset % 64 == 0, (name, offset)
        assert blob[offset:offset + arr.nbytes] == tensors[name].tobytes()
    loaded["enc1_w"][...] = 7.0            # a private copy: the file never changes
    assert path.read_bytes() == blob
    assert np.array_equal(load_tensors(path)["enc1_w"], tensors["enc1_w"])


def test_nonzero_padding_rejected(tmp_path):
    path = tmp_path / "pad.sgn"
    save_tensors(path, {"ab": np.array([1.0, 2.0], dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    blob[40] = 1                           # inside the padding before ab's payload
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError, match="nonzero padding at byte 17"):
        load_tensors(path)


@pytest.mark.parametrize("keep", [0, 3, 4, 8, 17, 40, 63, 64, 70])
def test_truncation_inside_padding_and_payload(tmp_path, keep):
    path = tmp_path / "full.sgn"
    save_tensors(path, {"ab": np.array([1.0, 2.0], dtype=np.float32)})
    cut = tmp_path / "cut.sgn"
    cut.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(CorruptCheckpointError, match="truncated"):
        load_tensors(cut)


def test_zero_size_payloads_round_trip(tmp_path):
    path = tmp_path / "empty.sgn"
    save_tensors(path, {"a": np.zeros((0, 3), np.float32), "b": np.zeros(0, np.float32)})
    loaded = load_tensors(path)
    assert loaded["a"].shape == (0, 3) and loaded["b"].shape == (0,)


def test_save_copies_no_payload(tmp_path):
    # each payload goes from its array straight into the file
    rng = np.random.default_rng(5)
    tensors = {f"t{i}": rng.standard_normal((256, 1024)).astype(np.float32) for i in range(8)}
    payload = sum(a.nbytes for a in tensors.values())
    tracemalloc.start()
    try:
        save_tensors(tmp_path / "big.sgn", tensors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * payload, (peak, payload)


def test_save_replaces_by_rename(tmp_path):
    # a loaded archive keeps its values when its path is saved over, and a
    # save that fails leaves the old file and no temporary behind
    path = tmp_path / "model.sgn"
    save_tensors(path, {"x": np.arange(4, dtype=np.float32)})
    before = load_tensors(path)
    save_tensors(path, {"x": before["x"] + 10})
    assert np.array_equal(before["x"], np.arange(4))
    assert np.array_equal(load_tensors(path)["x"], np.arange(4) + 10)
    blob = path.read_bytes()
    with pytest.raises(ValueError, match="name too long"):
        save_tensors(path, {"a": np.zeros(3), "x" * 70000: np.zeros(1)})
    assert path.read_bytes() == blob
    assert sorted(os.listdir(tmp_path)) == ["model.sgn"]
