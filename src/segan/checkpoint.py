"""Flat binary tensor archive for model snapshots.

Layout, all little-endian:
    magic "SGN2"
    u32 tensor count
    per tensor: u16 name length, UTF-8 name, u8 rank, u32 per dim, zero
    padding up to the next multiple of 64 bytes from the start of the
    file, then float32 payload in C order.

Entries are written sorted by name so identical contents give identical
bytes. Values are stored as float32; round-trips of float32 data are
bit-exact. "SGN1" files, the same layout without the padding, still load.

An SGN2 file is mapped copy-on-write and every payload is a view of the
mapping, so loading copies nothing, a payload takes memory only once it is
read, and writes to the views stay in the process. Untouched pages are read
from the file when first used, so a checkpoint in use must be replaced by
rename (as `save_tensors` does), never rewritten in place.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from collections.abc import Callable

import numpy as np

from .atomic import replacing
from .errors import CorruptCheckpointError

MAGIC = b"SGN2"
MAGIC_V1 = b"SGN1"
ALIGN = 64      # SGN2 payload offsets are multiples of this


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write an SGN2 archive beside `path`, each payload straight from its
    array, then rename it over `path`."""
    with replacing(path) as fh:
        fh.write(MAGIC + struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            # asarray, not ascontiguousarray: the latter promotes rank 0 to rank 1.
            arr = np.asarray(tensors[name], dtype="<f4")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"tensor name too long: {name[:40]}...")
            fh.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I",
                                 len(encoded), encoded, arr.ndim, *arr.shape))
            fh.write(bytes(-fh.tell() % ALIGN))
            fh.write(np.ascontiguousarray(arr).data)


class _Reader:
    """Sequential reads from an open archive (a file, or a mapping of one)
    that know its length, so a short file is reported as truncated before
    anything is allocated for the missing bytes."""

    def __init__(self, src, size: int, pos: int, path):
        self.src = src
        self.size = size
        self.pos = pos
        self.path = path
        self.mapped = isinstance(src, mmap.mmap)

    def _claim(self, n: int) -> None:
        if self.pos + n > self.size:
            raise CorruptCheckpointError(f"{self.path}: truncated at byte {self.pos}")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        return self.src.read(n)

    def skip(self, n: int) -> None:
        self._claim(n)
        self.src.seek(n, os.SEEK_CUR)

    def align(self) -> None:
        """Pass the zero padding in front of an SGN2 payload."""
        start = self.pos
        if any(self.take(-start % ALIGN)):
            raise CorruptCheckpointError(f"{self.path}: nonzero padding at byte {start}")

    def take_array(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next float32 payload of `shape`: a view of the mapping, or
        read from the file straight into a new array."""
        start = self.pos
        count = math.prod(shape)
        if self.mapped:
            self.skip(4 * count)
            return np.frombuffer(self.src, "<f4", count, offset=start).reshape(shape)
        self._claim(4 * count)
        arr = np.empty(shape, dtype="<f4")
        if self.src.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise CorruptCheckpointError(f"{self.path}: truncated at byte {start}")
        return arr


def load_tensors(path, skip: Callable[[str], bool] | None = None) -> dict[str, np.ndarray]:
    """Load an archive: an SGN2 file's payloads as writable views of a
    copy-on-write mapping of it, an SGN1 file's each read into its own array.

    A tensor whose name `skip` accepts keeps its name, shape and length
    checks, but its payload is not read: it comes back as a read-only
    zero-stride array of its shape.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if len(magic) < 4:
            raise CorruptCheckpointError(f"{path}: truncated at byte 0")
        if magic == MAGIC:
            src = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
            src.seek(4)
        elif magic == MAGIC_V1:
            src = fh
        else:
            raise CorruptCheckpointError(f"{path}: bad magic, not a checkpoint")
        r = _Reader(src, size, 4, path)
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
            if r.mapped:
                r.align()
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
