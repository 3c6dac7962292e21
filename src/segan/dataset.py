"""Synthetic clean/noise generation, SNR-controlled mixing, and the
(noisy, clean) training-pair stream.

Clean utterances are harmonic complexes with a slow amplitude envelope;
noises come in four kinds. Everything is deterministic from (kind, seed),
so corpora regenerate bit-identically.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .audio_io import SAMPLE_RATE, Waveform, chunk, preemphasis, read_wav
from .errors import ManifestError, ZeroPowerError


class NoiseKind(str, Enum):
    WHITE = "white"
    PINK = "pink"
    TONAL_HUM = "tonal_hum"
    MODULATED_BURST = "modulated_burst"


@dataclass(frozen=True)
class TrainingPair:
    noisy: np.ndarray
    clean: np.ndarray

    def __post_init__(self):
        if self.noisy.shape != self.clean.shape:
            raise ValueError(f"pair length mismatch: {self.noisy.shape} vs {self.clean.shape}")


@dataclass(frozen=True)
class ManifestEntry:
    clean_path: str
    noise_ref: str         # a WAV path or "SYNTH:<kind>"
    snr_db: float
    split: str             # train | test


def _rng_for(kind: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(kind.encode())])


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """clean + g * noise with g chosen so the mean-square power ratio over
    the full clean duration equals snr_db exactly.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError(f"rate mismatch: {clean.sample_rate} vs {noise.sample_rate}")
    if len(noise) < len(clean):
        raise ValueError(f"noise shorter than clean: {len(noise)} < {len(clean)}")
    n = noise.samples[:len(clean)]
    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(n ** 2))
    if p_clean <= 0.0 or p_noise <= 0.0:
        raise ZeroPowerError("cannot set an SNR against a zero-energy signal")
    g = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    return Waveform(clean.samples + g * n, clean.sample_rate)


def _time_axis(duration_s: float, rate: int) -> np.ndarray:
    """Sample times in seconds of a signal duration_s long."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    return np.arange(round(duration_s * rate)) / rate


def synth_clean(seed: int = 0, duration_s: float = 1.0,
                rate: int = SAMPLE_RATE) -> Waveform:
    """Harmonic complex: random f0 in 80-300 Hz, 3-8 harmonics with strictly
    decaying amplitudes, slow sinusoidal amplitude envelope, peak <= 0.8.
    """
    t = _time_axis(duration_s, rate)
    rng = _rng_for("clean:voice", seed)
    f0 = rng.uniform(80.0, 300.0)
    n_harm = int(rng.integers(3, 9))
    amps = rng.uniform(0.8, 1.0, n_harm) / (1.0 + np.arange(n_harm)) ** 1.2
    phases = rng.uniform(0.0, 2 * np.pi, n_harm)
    sig = np.zeros_like(t)
    for h in range(n_harm):
        sig += amps[h] * np.sin(2 * np.pi * f0 * (h + 1) * t + phases[h])
    env_rate = rng.uniform(1.5, 4.0)
    env = 0.55 + 0.45 * np.sin(2 * np.pi * env_rate * t + rng.uniform(0, 2 * np.pi))
    sig *= env
    peak = np.max(np.abs(sig))
    sig *= 0.8 * rng.uniform(0.85, 1.0) / peak
    return Waveform(sig, rate)


def synth_noise(kind, seed: int = 0, duration_s: float = 1.0,
                rate: int = SAMPLE_RATE) -> Waveform:
    """Deterministic noise of the given kind, peak-normalized to <= 0.8."""
    t = _time_axis(duration_s, rate)
    kind = NoiseKind(kind)
    rng = _rng_for(f"noise:{kind.value}", seed)
    n = t.size

    if kind is NoiseKind.WHITE:
        sig = rng.standard_normal(n)
    elif kind is NoiseKind.PINK:
        # low-frequency weighted: spectral power falls ~4.5 dB per octave,
        # slightly steeper than 1/f so octave-band energies order strictly
        white = rng.standard_normal(n)
        spec = np.fft.rfft(white)
        freq = np.fft.rfftfreq(n, 1.0 / rate)
        shaping = np.ones_like(freq)
        shaping[1:] = freq[1:] ** -0.75
        shaping[0] = 0.0
        sig = np.fft.irfft(spec * shaping, n=n)
    elif kind is NoiseKind.TONAL_HUM:
        sig = np.zeros(n)
        for h in range(1, 6):
            amp = rng.uniform(0.6, 1.0) / h
            sig += amp * np.sin(2 * np.pi * 50.0 * h * t + rng.uniform(0, 2 * np.pi))
    else:  # MODULATED_BURST
        gate_rate = rng.uniform(2.0, 6.0)
        gate = (np.sin(2 * np.pi * gate_rate * t + rng.uniform(0, 2 * np.pi)) > 0).astype(float)
        sig = rng.standard_normal(n) * gate

    peak = np.max(np.abs(sig))
    if peak > 0:
        sig *= 0.8 / peak
    return Waveform(sig, rate)


SYNTH_PREFIX = "SYNTH:"


def load_manifest(path) -> list[ManifestEntry]:
    """Tab-separated records: clean_path, noise_path_or_SYNTH:kind, snr_db,
    split. Blank lines and # comments allowed. Referenced files must exist.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    entries = []
    base = p.parent
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ManifestError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        clean_path, noise_ref, snr_text, split = (s.strip() for s in parts)
        try:
            snr_db = float(snr_text)
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: bad snr_db {snr_text!r}") from exc
        if not np.isfinite(snr_db):
            raise ManifestError(f"{path}:{lineno}: snr_db must be finite, got {snr_text!r}")
        if split not in ("train", "test"):
            raise ManifestError(f"{path}:{lineno}: split must be train or test, got {split!r}")
        clean_abs = str((base / clean_path))
        if not Path(clean_abs).exists():
            raise ManifestError(f"{path}:{lineno}: clean file missing: {clean_path}")
        if noise_ref.startswith(SYNTH_PREFIX):
            kind = noise_ref[len(SYNTH_PREFIX):]
            try:
                NoiseKind(kind)
            except ValueError as exc:
                raise ManifestError(f"{path}:{lineno}: unknown synth noise kind {kind!r}") from exc
            noise_abs = noise_ref
        else:
            noise_abs = str(base / noise_ref)
            if not Path(noise_abs).exists():
                raise ManifestError(f"{path}:{lineno}: noise file missing: {noise_ref}")
        entries.append(ManifestEntry(clean_abs, noise_abs, snr_db, split))
    return entries


def write_manifest(path, entries: Iterable[ManifestEntry]) -> None:
    lines = [f"{e.clean_path}\t{e.noise_ref}\t{e.snr_db:g}\t{e.split}" for e in entries]
    Path(path).write_text("\n".join(lines) + "\n")


def iter_utterances(entries: Iterable[ManifestEntry], split: str,
                    seed: int = 0) -> Iterator[tuple[Waveform, Waveform, float]]:
    """Load (or synthesize) each entry's clean and noise signals.

    Synth noises draw a per-entry seed from the base seed and the entry
    index, so streams are reproducible.
    """
    for idx, e in enumerate(entries):
        if e.split != split:
            continue
        clean = read_wav(e.clean_path)
        if e.noise_ref.startswith(SYNTH_PREFIX):
            kind = e.noise_ref[len(SYNTH_PREFIX):]
            noise = synth_noise(kind, seed=seed * 1000003 + idx,
                                duration_s=len(clean) / clean.sample_rate,
                                rate=clean.sample_rate)
        else:
            noise = read_wav(e.noise_ref)
        yield clean, noise, e.snr_db


def build_pairs(utterances: Iterable[tuple[Waveform, Waveform, float]],
                window: int, hop: int) -> Iterator[TrainingPair]:
    """Mix, preemphasize both signals, then window clean and noisy with
    identical offsets. Pair count equals the summed per-utterance chunk
    count.
    """
    for clean, noise, snr_db in utterances:
        noisy = mix_at_snr(clean, noise, snr_db)
        clean_pre = preemphasis(clean)
        noisy_pre = preemphasis(noisy)
        c_chunks, _ = chunk(clean_pre, window, hop)
        n_chunks, _ = chunk(noisy_pre, window, hop)
        for c_row, n_row in zip(c_chunks, n_chunks):
            yield TrainingPair(noisy=n_row.copy(), clean=c_row.copy())
