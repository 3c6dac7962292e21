"""Classical Wiener baseline: STFT-domain gain with decision-directed
a-priori SNR estimation, noise spectrum taken from the leading frames.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ShapeMismatchError, TooShortError

# Frames are transformed in blocks of at most this many (0.5 MB of 512-sample
# frames, as fast as larger blocks), so the scratch memory stays bounded
# whatever the signal length. A batched (i)rfft gives each row the same bits
# as a one-row call.
_BLOCK_FRAMES = 128

ALPHA = 0.98            # decision-directed smoothing
NOISE_FRAMES = 6        # leading noise-only frames
GAIN_FLOOR_DB = -25.0   # minimum gain
FRAME = 512             # STFT frame length
HOP = 256               # STFT hop


def stft(x: np.ndarray) -> np.ndarray:
    """Hamming-windowed real FFT of FRAME-sample frames HOP apart, with a
    zero-padded tail so the frames cover the whole signal: complex,
    (n_frames, FRAME // 2 + 1).
    """
    if x.size < FRAME:
        raise TooShortError(f"signal of {x.size} samples shorter than one frame ({FRAME})")
    win = np.hamming(FRAME)
    n_frames = 1 + -(-(x.size - FRAME) // HOP)
    padded = np.zeros((n_frames - 1) * HOP + FRAME)
    padded[:x.size] = x
    frames = sliding_window_view(padded, FRAME)[::HOP]
    rows = np.empty((n_frames, FRAME // 2 + 1), dtype=np.complex128)
    for b in range(0, n_frames, _BLOCK_FRAMES):
        np.fft.rfft(frames[b:b + _BLOCK_FRAMES] * win, axis=-1, out=rows[b:b + _BLOCK_FRAMES])
    return rows


def istft(spec: np.ndarray) -> np.ndarray:
    """Weighted overlap-add inverse of stft's (n_frames, FRAME // 2 + 1)
    spectrogram: sum of window-weighted frames divided by the summed squared
    window, which reconstructs exactly wherever the denominator is nonzero.
    Output length is (n_frames-1)*HOP + FRAME.
    """
    if spec.ndim != 2:
        raise ShapeMismatchError(f"expected (frames, bins), got {spec.shape}")
    if spec.shape[1] != FRAME // 2 + 1:
        raise ShapeMismatchError(f"{spec.shape[1]} bins inconsistent with frame {FRAME}")
    win = np.hamming(FRAME)
    n_frames = spec.shape[0]
    length = (n_frames - 1) * HOP + FRAME
    num = np.zeros(length)
    den = np.zeros(length)
    # Frames q apart never overlap, so each residue class mod q is one
    # strided add. With q = 2 a sample sums at most two terms, so the
    # result matches a frame-by-frame overlap-add bit for bit.
    q = -(-FRAME // HOP)
    for b in range(0, n_frames, _BLOCK_FRAMES):
        rows = np.fft.irfft(spec[b:b + _BLOCK_FRAMES], n=FRAME, axis=-1)
        rows *= win
        for m in range(min(q, rows.shape[0])):
            group = rows[m::q]
            at = (b + m) * HOP
            strides = (q * HOP * num.itemsize, num.itemsize)
            num_view = as_strided(num[at:], group.shape, strides)
            den_view = as_strided(den[at:], group.shape, strides)
            num_view += group
            den_view += win * win
    return np.where(den > 1e-12, num / np.where(den > 1e-12, den, 1.0), 0.0)


def wiener_gains(power: np.ndarray) -> np.ndarray:
    """Per-bin gain H = xi / (1 + xi) for a (frames, bins) power spectrogram,
    with the a-priori SNR xi tracked by the decision-directed recursion
    xi_t = ALPHA * (H_{t-1}^2 * gamma_{t-1}) + (1 - ALPHA) * max(gamma_t - 1, 0)
    against a noise spectrum averaged over the NOISE_FRAMES leading frames.
    Gains lie in [10^(GAIN_FLOOR_DB/20), 1].
    """
    n_frames = power.shape[0]
    if n_frames <= NOISE_FRAMES:
        raise TooShortError(
            f"need more than {NOISE_FRAMES} frames to estimate noise, got {n_frames}")
    noise_psd = np.maximum(power[:NOISE_FRAMES].mean(axis=0), 1e-20)
    floor = 10.0 ** (GAIN_FLOOR_DB / 20.0)
    prev = np.ones(power.shape[1])
    gains = np.empty_like(power)
    for t in range(n_frames):
        gamma = power[t] / noise_psd
        xi = ALPHA * prev + (1.0 - ALPHA) * np.maximum(gamma - 1.0, 0.0)
        h = np.clip(xi / (1.0 + xi), floor, 1.0)
        gains[t] = h
        prev = h * h * gamma
    return gains


def enhance_wiener(noisy: np.ndarray) -> np.ndarray:
    """Apply wiener_gains in the STFT domain and resynthesize; output length
    equals the input length exactly.
    """
    spec = stft(noisy)
    return istft(wiener_gains(np.abs(spec) ** 2) * spec)[:noisy.size]
