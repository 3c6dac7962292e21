"""WAV I/O, 48 kHz -> 16 kHz resampling, pre/deemphasis, and windowing.

Reading a WAV is the one place that knows about sample rates: a 16 kHz
file is read as is, a 48 kHz one is decimated to 16 kHz on the way in, and
any other rate raises WrongRateError. Everything past the read, and every
write, is mono float64 at SAMPLE_RATE, nominal range [-1, 1].
`WavReader`, `decimate_blocks` and `wav_writer` carry a file through in
blocks, so a caller that keeps filter state across blocks never holds the
whole signal.
"""

from __future__ import annotations

import wave
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import replacing
from .errors import InvalidWindowError, UnsupportedFormatError, WrongRateError

SAMPLE_RATE = 16000     # the rate every model, baseline and metric runs at
RATE_48K = 48000        # the one other input rate, decimated by 3 on the way in
PREEMPH = 0.95          # first-order preemphasis coefficient
_DEEMPH_BLOCK = 1 << 14  # deemphasis samples per list: 16k ran faster than 4k, 64k or one list
_TAPS = 127             # length of the 48 kHz -> 16 kHz decimation filter
_READ_BLOCK = 1 << 16   # 16 kHz samples per block when read_wav decimates a 48 kHz file
_DELAY = (_TAPS - 1) // 2


class WavReader:
    """A mono 16-bit PCM WAV open for reading from start to end, samples
    scaled by 1/32768 into [-1, 1). A header that claims more frames than
    the file holds is read as far as the file goes, to its last whole sample."""

    def __init__(self, path):
        self.path = path
        try:
            self._fh = fh = wave.open(str(path), "rb")
        except wave.Error as exc:
            raise UnsupportedFormatError(f"{path}: not a readable WAV file ({exc})") from exc
        try:
            if fh.getnchannels() != 1:
                raise UnsupportedFormatError(f"{path}: expected mono, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise UnsupportedFormatError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
            if fh.getcomptype() != "NONE":
                raise UnsupportedFormatError(f"{path}: compressed WAV ({fh.getcomptype()}) not supported")
        except UnsupportedFormatError:
            fh.close()
            raise
        self.rate = fh.getframerate()
        self.frames = fh.getnframes()
        self._left = self.frames

    def __enter__(self) -> WavReader:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def read(self, n: int) -> np.ndarray:
        """The next at most n samples; empty at the end."""
        raw = self._fh.readframes(min(n, self._left))
        raw = raw[:len(raw) // 2 * 2]
        self._left -= len(raw) // 2
        return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0

    def _blocks(self, n: int) -> Iterator[np.ndarray]:
        while (x := self.read(n)).size:
            yield x

    def blocks(self, n: int) -> Iterator[np.ndarray]:
        """The signal at 16 kHz in blocks of n samples, the last shorter:
        16 kHz as read, 48 kHz through `decimate_blocks`."""
        if self.rate == SAMPLE_RATE:
            return self._blocks(n)
        if self.rate == RATE_48K:
            return _regroup(decimate_blocks(self._blocks(3 * n)), n)
        raise WrongRateError(f"{self.path}: expected 16 or 48 kHz, got {self.rate}")


def read_wav(path) -> np.ndarray:
    """A mono 16-bit PCM WAV's samples at 16 kHz, scaled by 1/32768 into
    [-1, 1): the whole of `WavReader.blocks`. A 16 kHz file is read as one
    block. A 48 kHz file is decimated in blocks of _READ_BLOCK samples,
    which bounds the filter's scratch memory, and the blocks are joined."""
    with WavReader(path) as r:
        if r.rate == RATE_48K:
            return np.concatenate([np.zeros(0), *r.blocks(_READ_BLOCK)])
        return next(r.blocks(max(r.frames, 1)), np.zeros(0))


def _pcm(samples: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(samples)):
        raise ValueError("waveform contains non-finite samples")
    x = np.clip(samples, -1.0, 1.0)
    return np.clip(np.round(x * 32768.0), -32767, 32767).astype("<i2")


@contextmanager
def wav_writer(path) -> Iterator[Callable[[np.ndarray], None]]:
    """Write mono 16-bit PCM at SAMPLE_RATE block by block: yields a
    function that appends samples, quantized as `write_wav` quantizes them
    (a non-finite sample raises ValueError). The file is written beside
    `path` and renamed over it when the block ends without an exception
    (see `atomic.replacing`)."""
    with replacing(path) as fh:
        wav = wave.open(fh, "wb")
        try:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(SAMPLE_RATE)
            yield lambda samples: wav.writeframes(_pcm(samples))
        finally:
            wav.close()


def write_wav(x: np.ndarray, path) -> None:
    """Write mono 16-bit PCM at SAMPLE_RATE. Out-of-range samples are
    clipped, then quantized as round(x * 32768) clamped to [-32767, 32767],
    so values a reader produced (k / 32768) come back bit-exact.
    """
    with wav_writer(path) as write:
        write(x)


def _design_lowpass(num_taps: int, cutoff_hz: float, rate: int) -> np.ndarray:
    """Hamming-windowed sinc, normalized to unit DC gain."""
    n = np.arange(num_taps) - (num_taps - 1) / 2.0
    fc = cutoff_hz / rate
    h = 2.0 * fc * np.sinc(2.0 * fc * n) * np.hamming(num_taps)
    return h / h.sum()


def decimate_blocks(blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """48 kHz -> 16 kHz over successive blocks of one signal: anti-aliased
    decimation by 3, a 127-tap FIR at cutoff 0.45 * 16 kHz sampled every
    third sample at the filter's group delay, ceil(len / 3) outputs in all.

    Each output equals, bit for bit, the same sample of one np.convolve
    over the whole signal. Every convolve here runs over at least _TAPS
    samples or over the whole signal (np.convolve swaps a shorter signal
    with the taps, which sums in another order), and keeps enough history
    that each output it yields has all its input samples on both sides.
    """
    taps = _design_lowpass(_TAPS, 0.45 * SAMPLE_RATE, RATE_48K)
    buf, start, done = np.zeros(0), 0, 0    # buf is x[start:start + buf.size]; done outputs yielded
    for x in chain(blocks, [None]):         # None: the end of the signal
        if x is not None:
            buf = np.concatenate([buf, x])
            if buf.size < _TAPS:
                continue
        end = start + buf.size
        # output m reads x[3m - _DELAY : 3m + _DELAY + 1]
        stop = -(-end // 3) if x is None else max(done, (end - _DELAY + 2) // 3)
        if stop > done:
            yield np.convolve(buf, taps)[_DELAY + 3 * done - start:_DELAY + 3 * stop - start:3]
            # history for the next output, plus _TAPS so the last convolve is long enough
            keep = min(end, max(0, 3 * stop - _DELAY - _TAPS))
            buf, start, done = buf[keep - start:], keep, stop


def _regroup(blocks: Iterable[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """The concatenation of `blocks` in blocks of n samples, the last shorter."""
    pending, size = [], 0
    for x in blocks:
        pending.append(x)
        size += x.size
        while size >= n:
            joined = np.concatenate(pending)
            yield joined[:n]
            pending, size = [joined[n:]], size - n
    if size:
        yield np.concatenate(pending)


def preemphasis(x: np.ndarray) -> np.ndarray:
    """First-order high-pass: y[0] = x[0], y[n] = x[n] - PREEMPH * x[n-1]."""
    x = np.asarray(x, dtype=np.float64)
    y = x.copy()
    y[1:] -= PREEMPH * x[:-1]
    return y


def deemphasis(x: np.ndarray) -> np.ndarray:
    """Exact inverse of preemphasis: y[n] = x[n] + PREEMPH * y[n-1].

    The recurrence runs on Python floats, which is the same IEEE double
    arithmetic in the same order as a loop over the array, so the result
    is bit-identical to it; blocks of _DEEMPH_BLOCK samples keep the
    float lists small.
    """
    y = np.empty(len(x))
    coef, acc = PREEMPH, 0.0    # locals: the inner loop runs once per sample
    for lo in range(0, y.size, _DEEMPH_BLOCK):
        run = []
        for v in x[lo:lo + _DEEMPH_BLOCK].tolist():
            acc = v + coef * acc
            run.append(acc)
        y[lo:lo + _DEEMPH_BLOCK] = run
    return y


def chunk(x: np.ndarray, window: int, hop: int) -> tuple[np.ndarray, int]:
    """Slice into fixed windows starting at every multiple of hop below the
    signal length; the tail is zero-padded so the last window is full.

    Returns (chunks of shape (n, window), pad_len for later trimming).
    """
    x = np.asarray(x, dtype=np.float64)
    starts, pad_len = window_starts(x.size, window, hop)
    if x.size == 0:
        return np.zeros((0, window)), 0
    padded = np.concatenate([x, np.zeros(pad_len)])
    return sliding_window_view(padded, window)[starts], pad_len


def window_starts(n: int, window: int, hop: int) -> tuple[np.ndarray, int]:
    """The start of every window chunk() cuts from n samples (each multiple
    of hop below n) and the zeros it pads so the last window is full."""
    if window <= 0 or hop <= 0 or hop > window:
        raise InvalidWindowError(f"need 0 < hop <= window, got window={window} hop={hop}")
    starts = np.arange(0, n, hop)
    return starts, max(int(starts[-1]) + window - n, 0) if n else 0


def reassemble(chunks: np.ndarray, pad_len: int) -> np.ndarray:
    """Concatenate non-overlapping windows (chunk() with hop == window, the
    test-time convention) and trim the padding chunk() added.
    """
    chunks = np.asarray(chunks)
    if chunks.ndim != 2:
        raise InvalidWindowError(f"expected (n, window) chunks, got shape {chunks.shape}")
    window = chunks.shape[1]
    if not 0 <= pad_len <= window * max(chunks.shape[0], 1):
        raise InvalidWindowError(f"pad_len {pad_len} inconsistent with {chunks.shape[0]} windows of {window}")
    flat = chunks.reshape(-1)
    if pad_len:
        flat = flat[:-pad_len]
    return flat.astype(np.float64)
