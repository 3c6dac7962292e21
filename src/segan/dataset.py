"""Synthetic clean/noise generation, SNR-controlled mixing, and the
training corpus of (noisy, clean) windows.

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
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import SAMPLE_RATE, preemphasis, read_wav, window_starts
from .errors import ManifestError, ZeroPowerError


class NoiseKind(str, Enum):
    WHITE = "white"
    PINK = "pink"
    TONAL_HUM = "tonal_hum"
    MODULATED_BURST = "modulated_burst"


@dataclass(frozen=True, eq=False)
class Corpus:
    """Every training window, held once. `noisy` and `clean` are the
    preemphasized signals of all utterances end to end, each utterance
    zero-padded to the end of its last window, as float32; `starts` is the
    offset of every window in chunk() order. A window is copied out only
    into the batch that gathers it.
    """
    noisy: np.ndarray
    clean: np.ndarray
    starts: np.ndarray
    window: int
    hop: int
    utterances: int

    def __post_init__(self):
        if self.noisy.shape != self.clean.shape:
            raise ValueError(f"pair length mismatch: {self.noisy.shape} vs {self.clean.shape}")

    def __len__(self) -> int:
        return self.starts.size

    @property
    def nbytes(self) -> int:
        return self.noisy.nbytes + self.clean.nbytes + self.starts.nbytes

    def batch(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """The (noisy, clean) windows at `idx`, each (len(idx), window, 1)."""
        at = self.starts[idx]
        return tuple(sliding_window_view(x, self.window)[at][..., None]
                     for x in (self.noisy, self.clean))


@dataclass(frozen=True)
class ManifestEntry:
    clean_path: str
    noise_ref: str         # a WAV path or "SYNTH:<kind>"
    snr_db: float
    split: str             # train | test


def _rng_for(kind: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(kind.encode())])


def mix_at_snr(clean: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """clean + g * noise with g chosen so the mean-square power ratio over
    the full clean duration equals snr_db exactly.
    """
    if len(noise) < len(clean):
        raise ValueError(f"noise shorter than clean: {len(noise)} < {len(clean)}")
    if not len(clean):
        raise ZeroPowerError("cannot set an SNR against an empty signal")
    n = noise[:len(clean)]
    p_clean = float(np.mean(clean ** 2))
    p_noise = float(np.mean(n ** 2))
    if p_clean <= 0.0 or p_noise <= 0.0:
        raise ZeroPowerError("cannot set an SNR against a zero-energy signal")
    g = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    return clean + g * n


def _time_axis(duration_s: float) -> np.ndarray:
    """Sample times in seconds of a signal duration_s long."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    return np.arange(round(duration_s * SAMPLE_RATE)) / SAMPLE_RATE


def synth_clean(seed: int = 0, duration_s: float = 1.0) -> np.ndarray:
    """Harmonic complex: random f0 in 80-300 Hz, 3-8 harmonics with strictly
    decaying amplitudes, slow sinusoidal amplitude envelope, peak <= 0.8.
    """
    t = _time_axis(duration_s)
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
    return sig


def synth_noise(kind, seed: int = 0, duration_s: float = 1.0) -> np.ndarray:
    """Deterministic noise of the given kind, peak-normalized to <= 0.8."""
    t = _time_axis(duration_s)
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
        freq = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
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
    return sig


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
    # repr: the shortest text that reads back as the same float
    lines = [f"{e.clean_path}\t{e.noise_ref}\t{float(e.snr_db)!r}\t{e.split}" for e in entries]
    Path(path).write_text("\n".join(lines) + "\n")


def iter_utterances(entries: Iterable[ManifestEntry], split: str,
                    seed: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """Load (or synthesize) each entry's clean and noise signals, at
    16 kHz as `read_wav` gives them.

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
                                duration_s=len(clean) / SAMPLE_RATE)
        else:
            noise = read_wav(e.noise_ref)
        yield clean, noise, e.snr_db


def build_pairs(utterances: Iterable[tuple[np.ndarray, np.ndarray, float]],
                window: int, hop: int) -> Corpus:
    """Mix and preemphasize each utterance, then lay clean and noisy end to
    end with identical window offsets. The window count equals the summed
    per-utterance chunk count, and each window equals chunk()'s row cast to
    float32. An empty utterance adds no window.
    """
    parts: dict[str, list[np.ndarray]] = {"noisy": [], "clean": []}
    starts, offset, count = [], 0, 0
    for clean, noise, snr_db in utterances:
        count += 1
        at, pad = window_starts(len(clean), window, hop)
        if not at.size:
            continue
        noisy = mix_at_snr(clean, noise, snr_db)
        for name, sig in (("clean", clean), ("noisy", noisy)):
            x = preemphasis(sig)
            part = np.zeros(x.size + pad, np.float32)
            part[:x.size] = x
            parts[name].append(part)
        starts.append(at + offset)
        offset += len(clean) + pad
    # one signal at a time: its parts die once joined, so the peak is the
    # corpus plus one signal's parts (1.5 times the corpus), not twice it
    signals = {name: np.concatenate(parts.pop(name) or [np.zeros(0, np.float32)])
               for name in ("noisy", "clean")}
    return Corpus(starts=np.concatenate(starts or [np.zeros(0, np.intp)]),
                  window=window, hop=hop, utterances=count, **signals)
