"""Flat binary tensor archive for model snapshots.

Layout, all little-endian:
    magic "SGN1"
    u32 tensor count
    per tensor: u16 name length, UTF-8 name, u8 rank, u32 per dim, then
    float32 payload in C order.

Entries are written sorted by name so identical contents give identical
bytes. Values are stored as float32; round-trips of float32 data are
bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .errors import CorruptCheckpointError

MAGIC = b"SGN1"


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        # asarray, not ascontiguousarray: the latter promotes rank 0 to rank 1.
        arr = np.asarray(tensors[name], dtype="<f4")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name[:40]}...")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    """Sequential reads from an open archive that know the file's length,
    so a short file is reported as truncated before anything is allocated
    for the missing bytes."""

    def __init__(self, fh, path):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        self.path = path

    def _claim(self, n: int) -> None:
        if self.pos + n > self.size:
            raise CorruptCheckpointError(f"{self.path}: truncated at byte {self.pos}")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        return self.fh.read(n)

    def take_array(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next float32 payload of `shape`, read straight into a new array."""
        start = self.pos
        self._claim(4 * math.prod(shape))
        arr = np.empty(shape, dtype="<f4")
        if self.fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise CorruptCheckpointError(f"{self.path}: truncated at byte {start}")
        return arr

    def skip(self, n: int) -> None:
        self._claim(n)
        self.fh.seek(n, os.SEEK_CUR)


def load_tensors(path, skip: Callable[[str], bool] | None = None) -> dict[str, np.ndarray]:
    """Read an archive, each payload straight into its own array.

    A tensor whose name `skip` accepts keeps its name, shape and length
    checks, but its payload is not read: it comes back as a read-only
    zero-stride array of its shape.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh, path)
        if r.take(4) != MAGIC:
            raise CorruptCheckpointError(f"{path}: bad magic, not a checkpoint")
        (count,) = struct.unpack("<I", r.take(4))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", r.take(2))
            try:
                name = r.take(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptCheckpointError(f"{path}: undecodable tensor name") from exc
            (rank,) = struct.unpack("<B", r.take(1))
            shape = struct.unpack(f"<{rank}I", r.take(4 * rank))
            if skip is not None and skip(name):
                r.skip(4 * math.prod(shape))
                arr = np.broadcast_to(np.zeros((), dtype="<f4"), shape)
            else:
                arr = r.take_array(shape)
            if name in out:
                raise CorruptCheckpointError(f"{path}: duplicate tensor name {name!r}")
            out[name] = arr
        if r.pos != r.size:
            raise CorruptCheckpointError(f"{path}: {r.size - r.pos} trailing bytes")
    return out
