"""Seeded workload inputs, written as 16-bit PCM WAVs with the standard
library so that the program under test only ever sees files.

The same seed gives the same files. What a seed changes is signal content
(pitch, harmonics, envelopes, noise draws); file counts, lengths, rates,
noise kinds and SNRs are fixed per workload, so every seed asks for the
same amount of work.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

RATE = 16000
NOISE_KINDS = ("white", "pink", "tonal_hum", "modulated_burst")
SNRS_DB = (0.0, 5.0, 10.0, 15.0)
LEAD_SILENCE_S = 0.15

# train-adv: 10 one-second utterances give 320 pairs of 1024 samples at
# hop 512, i.e. 20 steps of batch 16 per `segan train` run.
TRAIN_UTTERANCES = 10
TRAIN_DURATION_S = 1.0

# enhance-long: (seconds, sample rate). The first is shorter than one
# 16384-sample window; the last is long enough that its single-batch
# activations exceed the full-scale model's resident parameters.
ENHANCE_FILES = ((0.6, RATE), (2.5, 48000), (6.0, RATE), (11.0, 48000), (100.0, RATE))

# eval-baseline: 16 kHz clean/noisy pairs, noise kinds and SNRs crossed.
EVAL_DURATIONS_S = (1.5, 2.0, 3.0, 4.0, 2.5, 5.0, 1.2, 3.5)


def speech_like(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    """Voiced-speech stand-in: a harmonic complex on a gliding pitch under
    a syllable-rate envelope, peak 0.5."""
    t = np.arange(n) / rate
    f0 = rng.uniform(100.0, 220.0) * (1.0 + 0.06 * np.sin(2 * np.pi * rng.uniform(0.4, 1.2) * t
                                                         + rng.uniform(0, 2 * np.pi)))
    phase = 2 * np.pi * np.cumsum(f0) / rate
    sig = np.zeros(n)
    for k in range(1, 9):
        sig += rng.uniform(0.6, 1.0) / k ** 1.3 * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    syllable = rng.uniform(3.0, 5.0)
    env = 0.15 + 0.85 * np.sin(np.pi * syllable * t + rng.uniform(0, np.pi)) ** 2
    sig *= env
    return 0.5 * sig / np.max(np.abs(sig))


def noise(kind: str, rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    t = np.arange(n) / rate
    if kind == "white":
        sig = rng.standard_normal(n)
    elif kind == "pink":
        spec = np.fft.rfft(rng.standard_normal(n))
        freq = np.fft.rfftfreq(n, 1.0 / rate)
        shaping = np.zeros_like(freq)
        shaping[1:] = freq[1:] ** -0.5
        sig = np.fft.irfft(spec * shaping, n=n)
    elif kind == "tonal_hum":
        sig = sum(rng.uniform(0.6, 1.0) / h * np.sin(2 * np.pi * 50.0 * h * t + rng.uniform(0, 2 * np.pi))
                  for h in range(1, 6))
        sig = sig + 0.05 * rng.standard_normal(n)
    elif kind == "modulated_burst":
        gate = np.sin(2 * np.pi * rng.uniform(2.0, 6.0) * t + rng.uniform(0, 2 * np.pi)) > 0
        sig = rng.standard_normal(n) * (0.1 + gate)
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return sig / np.max(np.abs(sig))


def mix(clean: np.ndarray, noise_sig: np.ndarray, snr_db: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale the noise to snr_db against the clean signal's mean power, then
    scale both so the mixture peaks at 0.9. Returns (clean, noisy)."""
    gain = np.sqrt(np.mean(clean ** 2) / (np.mean(noise_sig ** 2) * 10.0 ** (snr_db / 10.0)))
    noisy = clean + gain * noise_sig
    scale = 0.9 / np.max(np.abs(noisy))
    return clean * scale, noisy * scale


def write_wav(path: Path, x: np.ndarray, rate: int) -> None:
    pcm = np.clip(np.round(x * 32767.0), -32767, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def read_wav(path: Path) -> tuple[np.ndarray, int]:
    with wave.open(str(path), "rb") as fh:
        rate = fh.getframerate()
        pcm = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    return pcm.astype(np.float64) / 32768.0, rate


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), index])


def make_train_corpus(out: Path, seed: int) -> Path:
    """Clean and noise WAVs plus a manifest naming both, all split=train."""
    lines = []
    n = round(TRAIN_DURATION_S * RATE)
    for i in range(TRAIN_UTTERANCES):
        rng = _rng(seed, "train-adv", i)
        kind = NOISE_KINDS[i % len(NOISE_KINDS)]
        write_wav(out / f"clean_{i:02d}.wav", speech_like(rng, n, RATE), RATE)
        write_wav(out / f"noise_{i:02d}.wav", 0.5 * noise(kind, rng, n, RATE), RATE)
        snr = SNRS_DB[(i + i // len(NOISE_KINDS)) % len(SNRS_DB)]
        lines.append(f"clean_{i:02d}.wav\tnoise_{i:02d}.wav\t{snr:g}\ttrain")
    manifest = out / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def make_noisy_files(out: Path, seed: int, workload: str, specs) -> list[dict]:
    """One clean/noisy pair per (seconds, rate) spec, with a short
    noise-only lead-in. Returns one record per file."""
    records = []
    for i, (seconds, rate) in enumerate(specs):
        rng = _rng(seed, workload, i)
        n = round(seconds * rate)
        lead = min(round(LEAD_SILENCE_S * rate), n // 4)
        clean = np.concatenate([np.zeros(lead), speech_like(rng, n - lead, rate)])
        kind = NOISE_KINDS[i % len(NOISE_KINDS)]
        snr = SNRS_DB[(i + i // len(NOISE_KINDS)) % len(SNRS_DB)]
        clean, noisy = mix(clean, noise(kind, rng, n, rate), snr)
        clean_path, noisy_path = out / f"clean_{i:02d}.wav", out / f"noisy_{i:02d}.wav"
        write_wav(clean_path, clean, rate)
        write_wav(noisy_path, noisy, rate)
        records.append({"clean": str(clean_path), "noisy": str(noisy_path), "rate": rate,
                        "samples": n, "seconds": n / rate, "kind": kind, "snr_db": snr})
    return records


def make_full_scale_checkpoint(path: Path, seed: int) -> None:
    """Full-scale G and D (window 16384, 11 layers, z 1024) with reference
    stats from two seeded windows, saved as an adversarial run saves it."""
    from segan.model import (
        GeneratorConfig,
        build_discriminator,
        build_generator,
        save_checkpoint,
        set_reference_batch,
    )
    cfg = GeneratorConfig()
    rng = _rng(seed, "checkpoint", 0)
    clean = np.stack([speech_like(rng, cfg.window, RATE) for _ in range(2)])
    noisy = clean + 0.1 * rng.standard_normal(clean.shape)
    gen = build_generator(cfg, seed=seed)
    disc = build_discriminator(cfg, seed=seed + 1)
    set_reference_batch(disc, clean.astype(np.float32), noisy.astype(np.float32))
    save_checkpoint(path, gen, disc)
