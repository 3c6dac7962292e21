"""Shared oracle-side utilities for the test suite.

Everything here is deliberately independent of the package internals:
raw WAV access goes through the stdlib wave module directly, and the
convolution oracles are plain nested loops.
"""

from __future__ import annotations

import hashlib
import wave

import numpy as np


def write_raw_wav(path, pcm_values, rate=16000, channels=1, sampwidth=2):
    """Write PCM integers straight through the stdlib, bypassing the package."""
    data = np.asarray(pcm_values, dtype="<i2").tobytes()
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(sampwidth)
        fh.setframerate(rate)
        fh.writeframes(data)


def read_raw_pcm(path):
    """Read a WAV's PCM integers straight through the stdlib."""
    with wave.open(str(path), "rb") as fh:
        raw = fh.readframes(fh.getnframes())
        rate = fh.getframerate()
    return np.frombuffer(raw, dtype="<i2").copy(), rate


def conv1d_oracle(x, w, b, stride):
    """Nested-loop strided cross-correlation with same-style zero padding."""
    batch, length, cin = x.shape
    width, _, cout = w.shape
    out_len = -(-length // stride)
    pad_total = max((out_len - 1) * stride + width - length, 0)
    pad_left = pad_total // 2
    xp = np.zeros((batch, length + pad_total, cin))
    xp[:, pad_left:pad_left + length] = x
    y = np.zeros((batch, out_len, cout))
    for bi in range(batch):
        for o in range(out_len):
            for co in range(cout):
                acc = 0.0 if b is None else float(b[co])
                for k in range(width):
                    for ci in range(cin):
                        acc += xp[bi, o * stride + k, ci] * w[k, ci, co]
                y[bi, o, co] = acc
    return y


def conv1d_transpose_oracle(y, w, b, stride):
    """Nested-loop scatter-accumulate upsampling convolution."""
    batch, length, cin = y.shape
    width, cout, _ = w.shape
    out_len = length * stride
    pad_total = max(width - stride, 0)
    pad_left = pad_total // 2
    op = np.zeros((batch, out_len + pad_total, cout))
    for bi in range(batch):
        for l in range(length):
            for k in range(width):
                for co in range(cout):
                    for ci in range(cin):
                        op[bi, l * stride + k, co] += y[bi, l, ci] * w[k, co, ci]
    res = op[:, pad_left:pad_left + out_len]
    if b is not None:
        res = res + b
    return res


def conv1d_weight_grad_oracle(x, g, width, stride):
    """Nested-loop gradient of sum(g * conv1d(x, w)) with respect to w."""
    batch, length, cin = x.shape
    out_len, cout = g.shape[1], g.shape[2]
    pad_total = max((out_len - 1) * stride + width - length, 0)
    pad_left = pad_total // 2
    xp = np.zeros((batch, length + pad_total, cin))
    xp[:, pad_left:pad_left + length] = x
    gw = np.zeros((width, cin, cout))
    for k in range(width):
        for ci in range(cin):
            for co in range(cout):
                acc = 0.0
                for bi in range(batch):
                    for o in range(out_len):
                        acc += xp[bi, o * stride + k, ci] * g[bi, o, co]
                gw[k, ci, co] = acc
    return gw


def params_digest(params):
    """Order-sensitive content hash of a parameter list."""
    h = hashlib.blake2b()
    for p in params:
        h.update(p.data.tobytes())
    return h.digest()


def tone(freq_hz, n, rate=16000, amp=0.5, phase=0.0):
    t = np.arange(n) / rate
    return amp * np.sin(2 * np.pi * freq_hz * t + phase)
