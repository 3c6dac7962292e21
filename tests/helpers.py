"""Shared oracle-side utilities for the test suite.

Everything here is deliberately independent of the package internals:
raw WAV access goes through the stdlib wave module directly, and the
convolution oracles are plain nested loops.
"""

from __future__ import annotations

import hashlib
import struct
import wave
from contextlib import contextmanager

import numpy as np
import pytest


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


def emphasis_oracle(x, coef, inverse=False):
    """Per-sample first-order emphasis filter for any coefficient:
    y[n] = x[n] - coef * x[n-1], or with inverse=True y[n] = x[n] + coef * y[n-1]."""
    y = np.empty(len(x))
    prev = 0.0
    for n, v in enumerate(x):
        y[n] = v + coef * prev if inverse else v - coef * prev
        prev = y[n] if inverse else v
    return y


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


def reduced_adversarial():
    """Models, optimizers and one batch-16 step's inputs at the reduced
    acceptance config (the train-adv workload's shapes)."""
    from segan.engine import sample_z
    from segan.model import (GeneratorConfig, build_discriminator, build_generator,
                             set_reference_batch)
    from segan.optim import RMSprop
    cfg = GeneratorConfig(window=1024, enc_channels=(16, 32, 64, 128), z_channels=128)
    gen, disc = build_generator(cfg, seed=0), build_discriminator(cfg, seed=1)
    rng = np.random.default_rng(0)
    noisy, clean = (rng.uniform(-0.5, 0.5, (16, 1024)).astype(np.float32) for _ in range(2))
    set_reference_batch(disc, clean, noisy)
    g_opt, d_opt = RMSprop(gen.parameters()), RMSprop(disc.parameters())
    z = sample_z(16, cfg.bottleneck_len, cfg.z_channels, seed=1)
    return gen, disc, g_opt, d_opt, noisy, clean, z


def tap_grad_oracle(long, short, w, stride):
    """The weight-gradient kernel as it was written before it built w's
    layout: (C_short, width * C_long) products summed block by block into a
    zeroed accumulator, transposed at the end. The engine's kernel must
    match it bit for bit on the same blocks."""
    from segan import engine as eg
    width, c_long, c_short = w.shape
    cols = eg._columns(long, stride, short.shape[1], width)
    gw = np.zeros((c_short, width * c_long), dtype=w.dtype)
    example_bytes = short.shape[1] * width * c_long * long.itemsize
    for ex in eg._blocks(long.shape[0], example_bytes, w.nbytes):
        gw += short[ex].reshape(-1, c_short).T @ cols[ex].reshape(-1, width * c_long)
    return gw.T.reshape(width, c_long, c_short)


SCATTER_FORMS = ("blas", "fold")


@contextmanager
def scatter_form(form):
    """Run the engine's scatter in one form: "blas" accumulates through BLAS
    at every shape the rest of its rule allows, small ones included (a
    no-op where numpy's OpenBLAS was not found), and "fold" never does."""
    from segan import engine as eg
    with pytest.MonkeyPatch.context() as mp:
        if form == "blas":
            mp.setattr(eg, "_BLAS_MIN_ROWS", 0)
        else:
            mp.setattr(eg, "_BLAS", None)
        yield


def archive_bytes(entries, count=None):
    """An SGN2 tensor archive built by hand from (name bytes, shape, payload
    bytes) entries: the magic, the tensor count (`count` overrides it), then
    per entry its name, rank and dims, and its payload at the next 64-byte
    file offset."""
    blob = bytearray(b"SGN2" + struct.pack("<I", len(entries) if count is None else count))
    for name, shape, payload in entries:
        blob += struct.pack(f"<H{len(name)}sB{len(shape)}I", len(name), name, len(shape), *shape)
        blob += bytes(-len(blob) % 64) + payload
    return bytes(blob)


def enhance_whole_file(checkpoint_path, in_path, out_path, z_mode="seeded", z_seed=0):
    """Whole-file enhancement, the oracle for the package's streamed
    `enhance_file`: the input read whole through the stdlib (48 kHz through
    `resample_48k_to_16k`), preemphasized and windowed whole, z drawn for
    every window at once, the generator run ENHANCE_BATCH windows at a time,
    and the output reassembled and deemphasized whole."""
    from segan.audio_io import chunk, deemphasis, preemphasis, reassemble, write_wav
    from segan.engine import Tensor, no_grad, sample_z
    from segan.model import g_forward, load_checkpoint
    from segan.trainer import ENHANCE_BATCH
    gen, _, mcfg = load_checkpoint(checkpoint_path)
    pcm, rate = read_raw_pcm(in_path)
    x = pcm / 32768.0
    if rate == 48000:
        x = resample_48k_to_16k(x)
    windows, pad = chunk(preemphasis(x), mcfg.window, mcfg.window)
    n = windows.shape[0]
    if z_mode == "zero":
        z = np.zeros((n, mcfg.bottleneck_len, mcfg.z_channels), dtype=np.float32)
    else:
        z = sample_z(n, mcfg.bottleneck_len, mcfg.z_channels, seed=z_seed).data
    out = np.empty((n, mcfg.window))
    with no_grad():
        for lo in range(0, n, ENHANCE_BATCH):
            hi = lo + ENHANCE_BATCH
            g = g_forward(gen, windows[lo:hi].astype(np.float32)[..., None], Tensor(z[lo:hi]))
            out[lo:hi] = g.data[:, :, 0]
    write_wav(deemphasis(reassemble(out, pad)), out_path)


def resample_48k_to_16k(x):
    """Whole-signal 48 kHz -> 16 kHz decimation, the oracle for the package's
    block-wise `decimate_blocks`: one np.convolve with the package's 127-tap
    filter over the whole signal, then every third sample at the filter's
    group delay."""
    from segan.audio_io import RATE_48K, SAMPLE_RATE, _design_lowpass
    if len(x) == 0:
        return np.zeros(0)
    taps = _design_lowpass(127, 0.45 * SAMPLE_RATE, RATE_48K)
    delay = (len(taps) - 1) // 2
    full = np.convolve(x, taps, mode="full")
    return full[delay:delay + len(x):3]


def params_digest(params):
    """Order-sensitive content hash of a parameter list."""
    h = hashlib.blake2b()
    for p in params:
        h.update(p.data.tobytes())
    return h.digest()


def tone(freq_hz, n, rate=16000, amp=0.5, phase=0.0):
    t = np.arange(n) / rate
    return amp * np.sin(2 * np.pi * freq_hz * t + phase)


def levinson_oracle(r, order):
    """Scalar Levinson-Durbin recursion on one row of lags: (a, err)."""
    r = np.asarray(r, dtype=np.float64)
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = float(r[0])
    for i in range(1, order + 1):
        acc = r[i] + float(np.dot(a[1:i], r[i - 1:0:-1]))
        k = -acc / err
        prev = a.copy()
        for j in range(1, i):
            a[j] = prev[j] + k * prev[i - j]
        a[i] = k
        err *= 1.0 - k * k
    return a, err


def llr_oracle(x, y, rate, order=16, frame_s=0.030, hop_s=0.0075, wnc=1e-4, clamp=(0.0, 2.0)):
    """Frame-by-frame LPC log-likelihood ratio with both zero lags raised by
    the fraction wnc, each frame clamped, trimmed to the lowest 95%."""
    flen, fhop = round(frame_s * rate), round(hop_s * rate)
    win = np.hanning(flen)
    idx = np.abs(np.arange(order + 1)[:, None] - np.arange(order + 1)[None, :])
    vals = []
    for start in range(0, x.size - flen + 1, fhop):
        xf, yf = x[start:start + flen] * win, y[start:start + flen] * win
        rc = np.array([np.dot(xf[:flen - k], xf[k:]) for k in range(order + 1)])
        rt = np.array([np.dot(yf[:flen - k], yf[k:]) for k in range(order + 1)])
        if rc[0] < 1e-10 or rt[0] < 1e-10:
            continue
        rc[0] *= 1.0 + wnc
        rt[0] *= 1.0 + wnc
        a_clean, _ = levinson_oracle(rc, order)
        a_test, _ = levinson_oracle(rt, order)
        R = rc[idx]
        ratio = float(a_test @ R @ a_test) / float(a_clean @ R @ a_clean)
        vals.append(min(max(np.log(ratio), clamp[0]), clamp[1]))
    vals.sort()
    return float(np.mean(vals[:max(1, round(0.95 * len(vals)))]))


def ssnr_oracle(x, y, frame=512, lo=-10.0, hi=35.0):
    """Frame-by-frame segmental SNR with the energy gate and clamp."""
    vals = []
    for j in range(x.size // frame):
        seg = slice(j * frame, (j + 1) * frame)
        ex = float(np.sum(x[seg] * x[seg]))
        if ex < 1e-8:
            continue
        err = x[seg] - y[seg]
        ee = max(float(np.sum(err * err)), 1e-12)
        vals.append(min(max(10.0 * np.log10(ex / ee), lo), hi))
    return float(np.mean(vals))


def stft_oracle(x, frame, hop):
    """One rfft per Hamming-windowed frame over a zero-padded tail."""
    n_frames = 1 + -(-(x.size - frame) // hop)
    padded = np.zeros((n_frames - 1) * hop + frame)
    padded[:x.size] = x
    win = np.hamming(frame)
    return np.stack([np.fft.rfft(padded[t * hop:t * hop + frame] * win)
                     for t in range(n_frames)])


def istft_oracle(frames, frame, hop):
    """Frame-by-frame weighted overlap-add of one irfft per frame."""
    win = np.hamming(frame)
    length = (frames.shape[0] - 1) * hop + frame
    num, den = np.zeros(length), np.zeros(length)
    for t in range(frames.shape[0]):
        seg = slice(t * hop, t * hop + frame)
        num[seg] += win * np.fft.irfft(frames[t], n=frame)
        den[seg] += win * win
    return np.where(den > 1e-12, num / np.where(den > 1e-12, den, 1.0), 0.0)


def reference_stats_oracle(disc, candidate, noisy):
    """The discriminator's reference pass as a raw-numpy loop around the
    package's conv1d: each layer's batch mean and variance over (batch,
    length), the layer normalized with them (eps 1e-5), then LeakyReLU 0.3.
    Returns (means, variances, batch size).
    """
    from segan import engine as eg
    cand = np.asarray(candidate, dtype=np.float32)
    noise = np.asarray(noisy, dtype=np.float32)
    if cand.ndim == 2:
        cand = cand[..., None]
    if noise.ndim == 2:
        noise = noise[..., None]
    h = np.concatenate([cand, noise], axis=2)
    means, variances = [], []
    with eg.no_grad():
        t = eg.Tensor(h)
        for w, b, gamma, beta in zip(disc.conv_w, disc.conv_b, disc.gamma, disc.beta):
            pre = eg.conv1d(t, w, b, stride=disc.cfg.stride).data
            mu = pre.mean(axis=(0, 1))
            var = pre.var(axis=(0, 1))
            means.append(mu.astype(np.float32))
            variances.append(var.astype(np.float32))
            normed = gamma.data * (pre - mu) / np.sqrt(var + 1e-5) + beta.data
            t = eg.Tensor(np.where(normed > 0, normed, 0.3 * normed))
    return means, variances, h.shape[0]


def vbn_composite(x, ref_mean, ref_var, n_ref, gamma, beta):
    """Virtual batch norm built from elementwise engine nodes, one per
    operation. Followed by prelu at LEAKY_ALPHA slopes, it is the oracle the
    fused engine.virtual_batch_norm must match bit for bit. Division and
    square root are local nodes, built like the engine's own ops."""
    from segan import engine as eg

    def div(a, b):
        def back(g):
            eg._accum(a, eg._unbroadcast(g / b.data, a.data.shape))
            eg._accum(b, eg._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
        return eg._make(a.data / b.data, (a, b), back)

    def sqrt(v):
        root = np.sqrt(v.data)

        def back(g):
            eg._accum(v, g * (0.5 / root))
        return eg._make(root, (v,), back)

    w_ref = n_ref / (n_ref + 1.0)
    w_new = 1.0 / (n_ref + 1.0)
    dt = x.data.dtype
    ex_mean = x.mean_axis(1)
    centered = eg.sub(x, ex_mean)
    ex_var = eg.mul(centered, centered).mean_axis(1)
    mu = eg.add(eg.Tensor((w_ref * ref_mean).astype(dt)),
                eg.mul(ex_mean, eg.Tensor(np.asarray(w_new, dt))))
    var = eg.add(eg.Tensor((w_ref * ref_var + eg.VBN_EPS).astype(dt)),
                 eg.mul(ex_var, eg.Tensor(np.asarray(w_new, dt))))
    norm = div(eg.sub(x, mu), sqrt(var))
    return eg.add(eg.mul(norm, gamma), beta)
