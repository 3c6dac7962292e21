"""Flat binary tensor archive for model snapshots.

Layout, all little-endian:
    magic "SGN2"
    u32 tensor count
    per tensor: u16 name length, UTF-8 name, u8 rank, u32 per dim, zero
    padding up to the next multiple of 64 bytes from the start of the
    file, then float32 payload in C order.

Entries are written sorted by name so identical contents give identical
bytes. Values are stored as float32; round-trips of float32 data are
bit-exact. Any other magic, the unpadded "SGN1" layout included, is
rejected.

A load maps the file copy-on-write and every payload is a view of the
mapping, so loading copies nothing, a payload takes memory only once it is
read (one that is never read costs nothing), and writes to the views stay
in the process. Untouched pages are read from the file when first used, so
a checkpoint in use must be replaced by rename (as `save_tensors` does),
never rewritten in place.
"""

from __future__ import annotations

import math
import mmap
import struct

import numpy as np

from .atomic import replacing
from .errors import CorruptCheckpointError

MAGIC = b"SGN2"
ALIGN = 64      # payload offsets are multiples of this


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
    """Walks a mapped archive by offsets. It knows the file's length, so a
    short file is reported as truncated before anything is made for the
    missing bytes."""

    def __init__(self, buf: mmap.mmap, pos: int, path):
        self.buf = buf
        self.pos = pos
        self.path = path

    def _claim(self, n: int) -> int:
        """The offset of the next `n` bytes, which the walk then passes."""
        start = self.pos
        if start + n > len(self.buf):
            raise CorruptCheckpointError(f"{self.path}: truncated at byte {start}")
        self.pos += n
        return start

    def take(self, n: int) -> bytes:
        start = self._claim(n)
        return self.buf[start:self.pos]

    def take_array(self, shape: tuple[int, ...]) -> np.ndarray:
        """Pass the zero padding in front of the next payload, then return
        the payload: a float32 view of the mapping, of `shape`."""
        start = self.pos
        if any(self.take(-start % ALIGN)):
            raise CorruptCheckpointError(f"{self.path}: nonzero padding at byte {start}")
        count = math.prod(shape)
        payload = np.frombuffer(self.buf, "<f4", count, offset=self._claim(4 * count))
        try:
            return payload.reshape(shape)
        except ValueError:      # more dimensions than numpy supports
            raise CorruptCheckpointError(
                f"{self.path}: rank {len(shape)} tensor at byte {start}") from None


def load_tensors(path) -> dict[str, np.ndarray]:
    """Load an archive: every payload a writable view of a copy-on-write
    mapping of the file. A file that does not start with the SGN2 magic is
    rejected."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if len(magic) < 4:
            raise CorruptCheckpointError(f"{path}: truncated at byte 0")
        if magic != MAGIC:
            raise CorruptCheckpointError(
                f"{path}: bad magic {magic!r}, not an {MAGIC.decode()} checkpoint")
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    r = _Reader(buf, 4, path)
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
        arr = r.take_array(shape)
        if name in out:
            raise CorruptCheckpointError(f"{path}: duplicate tensor name {name!r}")
        out[name] = arr
    if r.pos != len(buf):
        raise CorruptCheckpointError(f"{path}: {len(buf) - r.pos} trailing bytes")
    return out
