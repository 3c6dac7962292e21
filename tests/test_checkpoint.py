"""Binary tensor-archive format: round-trips and corruption detection."""

import struct
import tracemalloc

import numpy as np
import pytest

from segan.checkpoint import MAGIC, load_tensors, save_tensors
from segan.errors import CorruptCheckpointError


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
    expected = (MAGIC + struct.pack("<I", 1) + struct.pack("<H", 2) + b"ab"
                + struct.pack("<B", 1) + struct.pack("<I", 2)
                + np.array([1.0, 2.0], dtype="<f4").tobytes())
    assert blob == expected


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.sgn"
    path.write_bytes(b"NOPE" + struct.pack("<I", 0))
    with pytest.raises(CorruptCheckpointError, match="bad magic"):
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


def test_duplicate_names_rejected(tmp_path):
    entry = (struct.pack("<H", 1) + b"x" + struct.pack("<B", 1)
             + struct.pack("<I", 1) + np.array([1.0], dtype="<f4").tobytes())
    path = tmp_path / "dup.sgn"
    path.write_bytes(MAGIC + struct.pack("<I", 2) + entry + entry)
    with pytest.raises(CorruptCheckpointError, match="duplicate"):
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


def test_load_peak_memory_is_about_one_payload(tmp_path):
    # each payload is read straight into its array: no whole-file bytes
    # object and no second copy
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
    assert peak < 1.2 * payload, (peak, payload)
    assert all(np.array_equal(loaded[k], v) for k, v in tensors.items())


def _skip_b(name):
    return name.startswith("b")


def test_skipped_payloads_keep_shape_and_checks(tmp_path):
    path = tmp_path / "ab.sgn"
    a, b = np.arange(6, dtype=np.float32).reshape(2, 3), np.ones((4, 5), np.float32)
    save_tensors(path, {"a": a, "b": b})
    loaded = load_tensors(path, skip=_skip_b)
    assert np.array_equal(loaded["a"], a)
    assert loaded["b"].shape == (4, 5) and loaded["b"].strides == (0, 0)
    assert not loaded["b"].flags.writeable and not loaded["b"].any()

    blob = path.read_bytes()
    (tmp_path / "cut.sgn").write_bytes(blob[:-8])          # inside b's payload
    with pytest.raises(CorruptCheckpointError, match="truncated"):
        load_tensors(tmp_path / "cut.sgn", skip=_skip_b)
    (tmp_path / "trail.sgn").write_bytes(blob + b"\x00")
    with pytest.raises(CorruptCheckpointError, match="trailing"):
        load_tensors(tmp_path / "trail.sgn", skip=_skip_b)
