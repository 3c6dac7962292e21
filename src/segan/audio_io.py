"""WAV I/O, 48 kHz -> 16 kHz resampling, pre/deemphasis, and windowing.

Everything here is a pure function on `Waveform` values. Signals are mono
float arrays, nominal range [-1, 1].
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import InvalidWindowError, UnsupportedFormatError, WrongRateError

SAMPLE_RATE = 16000     # the rate every model, baseline and metric runs at
RATE_48K = 48000        # the one other input rate, decimated by 3 on the way in
PREEMPH = 0.95          # first-order preemphasis coefficient
_DEEMPH_BLOCK = 1 << 14  # deemphasis samples per list: 16k ran faster than 4k, 64k or one list


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", arr)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if arr.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


def read_wav(path) -> Waveform:
    """Read a mono 16-bit PCM WAV; samples scaled by 1/32768 into [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise UnsupportedFormatError(f"{path}: expected mono, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise UnsupportedFormatError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
            if fh.getcomptype() != "NONE":
                raise UnsupportedFormatError(f"{path}: compressed WAV ({fh.getcomptype()}) not supported")
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except wave.Error as exc:
        raise UnsupportedFormatError(f"{path}: not a readable WAV file ({exc})") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(w: Waveform, path) -> None:
    """Write mono 16-bit PCM. Out-of-range samples are clipped, then
    quantized as round(x * 32768) clamped to [-32767, 32767], so values a
    reader produced (k / 32768) come back bit-exact.
    """
    x = np.clip(w.samples, -1.0, 1.0)
    pcm = np.clip(np.round(x * 32768.0), -32767, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(pcm.tobytes())


def _design_lowpass(num_taps: int, cutoff_hz: float, rate: int) -> np.ndarray:
    """Hamming-windowed sinc, normalized to unit DC gain."""
    n = np.arange(num_taps) - (num_taps - 1) / 2.0
    fc = cutoff_hz / rate
    h = 2.0 * fc * np.sinc(2.0 * fc * n) * np.hamming(num_taps)
    return h / h.sum()


def resample_48k_to_16k(w: Waveform) -> Waveform:
    """Anti-aliased decimation by 3: 127-tap FIR at cutoff 0.45 * 16 kHz,
    then take every third sample at the filter's group delay. Output length
    is ceil(len / 3).
    """
    if w.sample_rate != RATE_48K:
        raise WrongRateError(f"resampler expects {RATE_48K} Hz input, got {w.sample_rate}")
    if len(w) == 0:
        return Waveform(w.samples, SAMPLE_RATE)
    taps = _design_lowpass(127, 0.45 * SAMPLE_RATE, RATE_48K)
    delay = (len(taps) - 1) // 2
    full = np.convolve(w.samples, taps, mode="full")
    out = full[delay:delay + len(w):3]
    return Waveform(out, SAMPLE_RATE)


def preemphasis(w: Waveform) -> Waveform:
    """First-order high-pass: y[0] = x[0], y[n] = x[n] - PREEMPH * x[n-1]."""
    x = w.samples
    y = x.copy()
    y[1:] -= PREEMPH * x[:-1]
    return Waveform(y, w.sample_rate)


def deemphasis(w: Waveform) -> Waveform:
    """Exact inverse of preemphasis: y[n] = x[n] + PREEMPH * y[n-1].

    The recurrence runs on Python floats, which is the same IEEE double
    arithmetic in the same order as a loop over the array, so the result
    is bit-identical to it; blocks of _DEEMPH_BLOCK samples keep the
    float lists small.
    """
    x = w.samples
    y = np.empty_like(x)
    coef, acc = PREEMPH, 0.0    # locals: the inner loop runs once per sample
    for lo in range(0, x.size, _DEEMPH_BLOCK):
        run = []
        for v in x[lo:lo + _DEEMPH_BLOCK].tolist():
            acc = v + coef * acc
            run.append(acc)
        y[lo:lo + _DEEMPH_BLOCK] = run
    return Waveform(y, w.sample_rate)


def chunk(w: Waveform, window: int, hop: int) -> tuple[np.ndarray, int]:
    """Slice into fixed windows starting at every multiple of hop below the
    signal length; the tail is zero-padded so the last window is full.

    Returns (chunks of shape (n, window), pad_len for later trimming).
    """
    if window <= 0 or hop <= 0 or hop > window:
        raise InvalidWindowError(f"need 0 < hop <= window, got window={window} hop={hop}")
    x = w.samples
    if x.size == 0:
        return np.zeros((0, window), dtype=x.dtype), 0
    starts = np.arange(0, x.size, hop)
    pad_len = int(starts[-1]) + window - x.size
    padded = np.concatenate([x, np.zeros(max(pad_len, 0), dtype=x.dtype)])
    out = np.stack([padded[s:s + window] for s in starts])
    return out, max(pad_len, 0)


def reassemble(chunks: np.ndarray, pad_len: int) -> Waveform:
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
    return Waveform(flat.copy(), SAMPLE_RATE)
