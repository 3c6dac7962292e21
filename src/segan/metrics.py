"""Objective quality metrics and listening-test score arithmetic.

Segmental SNR over fixed frames with the usual [-10, 35] dB clamp; an
LPC-based log-likelihood-ratio distance; and MOS/CMOS/preference
aggregation from a ratings table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AllFramesSilentError,
    IncompleteTripletError,
    LengthMismatchError,
    NumericalError,
)

SYSTEMS = ("noisy", "wiener", "segan")


# Frames are windowed and solved in blocks of at most this many (3.9 MB of
# 30 ms frames per signal at 16 kHz), so the scratch memory stays bounded
# whatever the signal length. Every frame's arithmetic is row-local, so
# results do not depend on the block size.
_BLOCK_FRAMES = 1024

SSNR_FRAME = 512
SSNR_CLAMP_DB = (-10.0, 35.0)

LPC_ORDER = 16
LLR_FRAME = 480          # 30 ms at 16 kHz
LLR_HOP = 120            # 7.5 ms
LLR_CLAMP = (0.0, 2.0)   # per-frame range, as in Hu & Loizou (2008)
# White-noise correction: each frame's zero lag is raised by this fraction
# before the LPC fits, as if white noise 40 dB below the frame were added.
# The Toeplitz matrix is then positive definite with its smallest eigenvalue
# at least LLR_WNC * r_0, so the Levinson error of a noise-free harmonic
# frame stays far above rounding instead of reaching it.
LLR_WNC = 1e-4


def _matched(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two signals, once their lengths agree."""
    if x.size != y.size:
        raise LengthMismatchError(f"length mismatch: {x.size} vs {y.size}")
    return x, y


def ssnr(clean: np.ndarray, test: np.ndarray) -> float:
    """Mean over non-overlapping SSNR_FRAME-sample frames of
    10*log10(clean energy / error energy), clamped to SSNR_CLAMP_DB. Frames
    whose clean energy is below 1e-8 are skipped; the error denominator is
    floored at 1e-12 so identical signals score the upper clamp.
    """
    x, y = _matched(clean, test)
    if x.size < SSNR_FRAME:
        raise LengthMismatchError(f"signals shorter than one frame ({x.size} < {SSNR_FRAME})")
    n = x.size // SSNR_FRAME * SSNR_FRAME
    xs = x[:n].reshape(-1, SSNR_FRAME)
    ex = np.sum(xs * xs, axis=1)
    voiced = ex >= 1e-8
    if not voiced.any():
        raise AllFramesSilentError("every frame fell below the clean-energy gate")
    err = xs - y[:n].reshape(-1, SSNR_FRAME)
    ee = np.maximum(np.sum(np.square(err, out=err), axis=1)[voiced], 1e-12)
    lo, hi = SSNR_CLAMP_DB
    vals = np.minimum(np.maximum(10.0 * np.log10(ex[voiced] / ee), lo), hi)
    return float(np.mean(vals))


def levinson(r: np.ndarray, order: int) -> tuple[np.ndarray, float | np.ndarray]:
    """Solve the Toeplitz normal equations by the Levinson-Durbin
    recursion, run across every leading row of r (shape (..., lags)) at
    once. Returns (a, err): a of shape (..., order + 1) with a[..., 0] == 1,
    and err the final prediction-error power of each row, a float for 1-D r.
    """
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if r.shape[-1] < order + 1:
        raise ValueError(f"need {order + 1} autocorrelation lags, got {r.shape[-1]}")
    a = np.zeros(r.shape[:-1] + (order + 1,))
    a[..., 0] = 1.0
    err = r[..., 0].copy()
    if np.any(err <= 0.0):
        raise NumericalError(f"nonpositive zero-lag autocorrelation: {float(err.min())}")
    rev = r[..., order::-1, None].copy()  # rev[..., m, 0] == r[..., order - m]
    for i in range(1, order + 1):
        acc = r[..., i] + _dot(a[..., None, 1:i], rev[..., order - i + 1:order, :])
        k = -acc / err
        a[..., 1:i] += k[..., None] * a[..., i - 1:0:-1]
        a[..., i] = k
        err *= 1.0 - k * k
        if np.any(err <= 0.0):
            raise NumericalError(f"prediction error became nonpositive at order {i}")
    return a, (float(err) if r.ndim == 1 else err)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., 1, n) u and (..., n, 1) v. A stacked
    matmul makes one BLAS dot call per row, the same call np.dot makes on
    one pair of vectors, so each row's sum does not depend on the others."""
    return np.matmul(u, v)[..., 0, 0]


def _lag_products(f: np.ndarray, order: int) -> np.ndarray:
    """Row-wise sum_i f[..., i] * f[..., i + k] for k = 0..order."""
    n = f.shape[-1]
    return np.stack([_dot(f[..., None, :n - k], f[..., k:, None])
                     for k in range(order + 1)], axis=-1)


def llr(clean: np.ndarray, test: np.ndarray) -> float:
    """Log-likelihood-ratio spectral distance: per Hanning-windowed frame,
    log of the ratio of the test LPC polynomial's residual energy to the
    clean one's, both measured against the clean autocorrelation, clamped
    to LLR_CLAMP; the mean is taken over the smallest 95% of frame values.
    Both autocorrelations carry the LLR_WNC white-noise correction.
    Near-silent frames are skipped.
    """
    x, y = _matched(clean, test)
    order, flen, fhop = LPC_ORDER, LLR_FRAME, LLR_HOP
    if x.size < flen:
        raise LengthMismatchError(f"signals shorter than one frame ({x.size} < {flen})")
    win = np.hanning(flen)
    x_frames = sliding_window_view(x, flen)[::fhop]
    y_frames = sliding_window_view(y, flen)[::fhop]
    # a^T R a for symmetric Toeplitz R: r_0 * c_0 + 2 * sum_k r_k * c_k, where
    # c_k are a's own lag products.
    twice = np.full(order + 1, 2.0)
    twice[0] = 1.0
    vals = []
    for b in range(0, x_frames.shape[0], _BLOCK_FRAMES):
        rc = _lag_products(x_frames[b:b + _BLOCK_FRAMES] * win, order)
        rt = _lag_products(y_frames[b:b + _BLOCK_FRAMES] * win, order)
        voiced = (rc[:, 0] >= 1e-10) & (rt[:, 0] >= 1e-10)
        rc, rt = rc[voiced], rt[voiced]
        if not voiced.any():
            continue
        rc[:, 0] *= 1.0 + LLR_WNC
        rt[:, 0] *= 1.0 + LLR_WNC
        a_clean, _ = levinson(rc, order)
        a_test, _ = levinson(rt, order)
        weighted = rc * twice
        num = np.sum(weighted * _lag_products(a_test, order), axis=-1)
        den = np.sum(weighted * _lag_products(a_clean, order), axis=-1)
        if np.any((num <= 0.0) | (den <= 0.0)):
            raise NumericalError("nonpositive residual energy in LLR frame")
        vals.append(np.clip(np.log(num / den), *LLR_CLAMP))
    if not vals:
        raise AllFramesSilentError("no frames above the energy gate")
    vals = np.sort(np.concatenate(vals))
    keep = max(1, round(0.95 * vals.size))
    return float(np.mean(vals[:keep]))


@dataclass(frozen=True)
class Rating:
    listener: str
    sentence: str
    system: str
    score: int


@dataclass(frozen=True)
class MosSummary:
    mos: dict
    cmos: dict            # (sys_a, sys_b) -> mean score_a - score_b
    preference: dict      # (sys_a, sys_b) -> {sys_a: frac, sys_b: frac, "none": frac}


def load_ratings(path) -> list[Rating]:
    """CSV with header listener,sentence,system,score."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"listener", "sentence", "system", "score"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected header listener,sentence,system,score")
        for rec in reader:
            where = f"{path} line {reader.line_num}"
            if None in rec or None in rec.values():   # a row longer or shorter than the header
                raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields, as in the header")
            try:
                score = int(rec["score"])
            except ValueError:
                raise ValueError(f"{where}: score {rec['score']!r} is not an integer") from None
            rows.append(Rating(rec["listener"].strip(), rec["sentence"].strip(),
                               rec["system"].strip(), score))
    return rows


def aggregate_mos(rows: list[Rating]) -> MosSummary:
    """MOS per system, pairwise CMOS means, and preference fractions. Every
    (listener, sentence) item must carry a rating for all three systems.
    """
    for r in rows:
        if r.system not in SYSTEMS:
            raise ValueError(f"unknown system {r.system!r}; expected one of {SYSTEMS}")
        if not 1 <= r.score <= 5:
            raise ValueError(f"score {r.score} outside 1..5 for {r.listener}/{r.sentence}")
    by_item: dict[tuple[str, str], dict[str, int]] = {}
    for r in rows:
        item = by_item.setdefault((r.listener, r.sentence), {})
        if r.system in item:
            raise IncompleteTripletError(
                f"duplicate rating for {r.listener}/{r.sentence}/{r.system}")
        item[r.system] = r.score
    if not by_item:
        raise IncompleteTripletError("empty ratings table")
    for (listener, sentence), scores in by_item.items():
        missing = set(SYSTEMS) - set(scores)
        if missing:
            raise IncompleteTripletError(
                f"{listener}/{sentence} missing ratings for {sorted(missing)}")

    mos = {s: float(np.mean([item[s] for item in by_item.values()])) for s in SYSTEMS}
    cmos = {}
    preference = {}
    for a, b in (("segan", "noisy"), ("segan", "wiener"), ("wiener", "noisy")):
        diffs = np.array([item[a] - item[b] for item in by_item.values()], dtype=float)
        cmos[(a, b)] = float(np.mean(diffs))
        n = diffs.size
        preference[(a, b)] = {
            a: float(np.sum(diffs > 0)) / n,
            b: float(np.sum(diffs < 0)) / n,
            "none": float(np.sum(diffs == 0)) / n,
        }
    return MosSummary(mos, cmos, preference)


def metric_means(rows: list[tuple[str, str, float]]) -> dict[str, float]:
    """Mean value per metric of (file, metric, value) rows, keyed in the
    order each metric first appears."""
    metrics = dict.fromkeys(m for _, m, _ in rows)
    return {m: float(np.mean([v for _, mm, v in rows if mm == m])) for m in metrics}


def write_report(path, rows: list[tuple[str, str, float]]) -> None:
    """CSV of (file, metric, value) rows plus per-metric aggregate rows."""
    lines = ["file,metric,value"]
    for name, metric, value in rows:
        lines.append(f"{name},{metric},{value!r}")
    for m, mean in sorted(metric_means(rows).items()):
        lines.append(f"AGGREGATE,{m},{mean!r}")
    Path(path).write_text("\n".join(lines) + "\n")
