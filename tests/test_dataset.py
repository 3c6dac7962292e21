"""Synthetic corpus: SNR mixing, signal synthesis, manifests, the training corpus."""

import warnings

import numpy as np
import pytest

from segan.audio_io import chunk, preemphasis, read_wav, write_wav
from segan.dataset import (ManifestEntry, NoiseKind,
                           SYNTH_PREFIX, Corpus, _rng_for, build_pairs,
                           iter_utterances, load_manifest, mix_at_snr,
                           synth_clean, synth_noise, write_manifest)
from segan.errors import ManifestError, ZeroPowerError

from helpers import resample_48k_to_16k, write_raw_wav


# ---------------------------------------------------------------------------
# SNR mixing

def test_mix_gain_one_at_0db():
    clean = np.array([1.0, -1.0, 1.0, -1.0])
    noise = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    out = mix_at_snr(clean, noise, 0.0)
    assert np.allclose(out, clean + noise[:4], atol=1e-15)


def test_mix_gain_at_10db():
    clean = np.array([1.0, -1.0, 1.0, -1.0])
    noise = np.ones(4)
    out = mix_at_snr(clean, noise, 10.0)
    g = 10.0 ** -0.5
    assert np.allclose(out, clean + g, atol=1e-15)


def test_mix_measured_snr_is_exact():
    rng = np.random.default_rng(2)
    clean = rng.uniform(-0.5, 0.5, 8000)
    noise = rng.uniform(-0.5, 0.5, 8000)
    out = mix_at_snr(clean, noise, 5.0)
    resid = out - clean
    snr = 10.0 * np.log10(np.mean(clean ** 2) / np.mean(resid ** 2))
    assert abs(snr - 5.0) < 1e-6


def test_mix_validation():
    c = np.ones(4)
    with pytest.raises(ValueError, match="shorter"):
        mix_at_snr(c, np.ones(3), 0.0)
    with pytest.raises(ZeroPowerError):
        mix_at_snr(np.zeros(4), np.ones(4), 0.0)
    with pytest.raises(ZeroPowerError):
        mix_at_snr(c, np.zeros(4), 0.0)


def test_mix_rejects_an_empty_clean_signal_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for noise_len in (0, 4):
            with pytest.raises(ZeroPowerError, match="empty"):
                mix_at_snr(np.zeros(0), np.ones(noise_len), 0.0)


# ---------------------------------------------------------------------------
# Clean synthesis

def test_synth_clean_deterministic():
    a = synth_clean(seed=4)
    b = synth_clean(seed=4)
    c = synth_clean(seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_synth_clean_peak_bounded_over_100_seeds():
    for seed in range(100):
        w = synth_clean(seed=seed, duration_s=0.25)
        peak = np.max(np.abs(w))
        assert 0.5 < peak <= 0.8 + 1e-12


def test_synth_clean_duration():
    assert len(synth_clean(seed=0, duration_s=0.5)) == 8000
    with pytest.raises(ValueError):
        synth_clean(seed=0, duration_s=0.0)


def test_synth_clean_spectral_peak_sits_on_a_harmonic():
    for seed in range(10):
        w = synth_clean(seed=seed, duration_s=1.0)
        f0 = _rng_for("clean:voice", seed).uniform(80.0, 300.0)
        spec = np.abs(np.fft.rfft(w))
        peak_hz = float(np.argmax(spec))  # 1 s of audio: bin index == Hz
        ratio = peak_hz / f0
        assert abs(ratio - round(ratio)) * f0 < 1.5
        assert 1 <= round(ratio) <= 8


# ---------------------------------------------------------------------------
# Noise synthesis

def test_noise_kinds_enumeration():
    assert {k.value for k in NoiseKind} == {"white", "pink", "tonal_hum",
                                            "modulated_burst"}


def test_synth_noise_deterministic_and_kind_tagged():
    a = synth_noise("white", seed=3)
    b = synth_noise(NoiseKind.WHITE, seed=3)
    c = synth_noise("pink", seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_synth_noise_peak_bounded():
    for kind in NoiseKind:
        for seed in range(25):
            w = synth_noise(kind, seed=seed, duration_s=0.25)
            assert np.max(np.abs(w)) <= 0.8 + 1e-12


def test_white_noise_autocorrelation_is_flat():
    x = synth_noise("white", seed=0, duration_s=1.0)
    x = x - x.mean()
    denom = float(np.dot(x, x))
    for lag in range(1, 21):
        rho = float(np.dot(x[:-lag], x[lag:])) / denom
        assert abs(rho) < 0.05


def _band_energy(x, lo_hz, hi_hz, rate=16000):
    spec = np.abs(np.fft.rfft(x)) ** 2
    freq = np.fft.rfftfreq(len(x), 1.0 / rate)
    return float(spec[(freq >= lo_hz) & (freq < hi_hz)].sum())


def test_pink_noise_octave_energies_decrease():
    for seed in range(5):
        x = synth_noise("pink", seed=seed, duration_s=1.0)
        bands = [_band_energy(x, lo, 2 * lo) for lo in (250.0, 500.0, 1000.0, 2000.0)]
        assert bands[0] > bands[1] > bands[2] > bands[3]


def test_tonal_hum_concentrates_on_50hz_multiples():
    x = synth_noise("tonal_hum", seed=1, duration_s=1.0)
    spec = np.abs(np.fft.rfft(x)) ** 2
    line_bins = [50 * h for h in range(1, 6)]
    assert spec[line_bins].sum() / spec.sum() > 0.999


def test_modulated_burst_is_gated():
    x = synth_noise("modulated_burst", seed=2, duration_s=1.0)
    zero_frac = np.mean(x == 0.0)
    assert 0.3 <= zero_frac <= 0.7
    assert np.max(np.abs(x)) == pytest.approx(0.8)


def test_synth_noise_validation():
    with pytest.raises(ValueError):
        synth_noise("brown", seed=0)
    with pytest.raises(ValueError):
        synth_noise("white", seed=0, duration_s=-1.0)


# ---------------------------------------------------------------------------
# Manifests

def _write_clean(path, n=800, seed=0):
    rng = np.random.default_rng(seed)
    write_wav(rng.uniform(-0.5, 0.5, n), path)


def test_manifest_round_trip(tmp_path):
    _write_clean(tmp_path / "c1.wav")
    _write_clean(tmp_path / "n1.wav", seed=1)
    entries = [
        ManifestEntry(str(tmp_path / "c1.wav"), SYNTH_PREFIX + "white", 5.0, "train"),
        ManifestEntry(str(tmp_path / "c1.wav"), str(tmp_path / "n1.wav"), -2.5, "test"),
    ]
    man = tmp_path / "m.tsv"
    write_manifest(man, entries)
    assert load_manifest(man) == entries


@pytest.mark.parametrize("snr_db", [7.123456789, 1e-7, 0.1 + 0.2])
def test_manifest_keeps_every_bit_of_the_snr(tmp_path, snr_db):
    _write_clean(tmp_path / "c.wav")
    entries = [ManifestEntry(str(tmp_path / "c.wav"), SYNTH_PREFIX + "white", snr_db, "train")]
    write_manifest(tmp_path / "m.tsv", entries)
    assert load_manifest(tmp_path / "m.tsv")[0].snr_db == snr_db


def test_manifest_resolves_relative_paths(tmp_path):
    _write_clean(tmp_path / "c.wav")
    man = tmp_path / "m.tsv"
    man.write_text("c.wav\tSYNTH:pink\t0\ttrain\n")
    (entry,) = load_manifest(man)
    assert entry.clean_path == str(tmp_path / "c.wav")
    assert entry.noise_ref == "SYNTH:pink"
    assert entry.snr_db == 0.0


def test_manifest_skips_blanks_and_comments(tmp_path):
    _write_clean(tmp_path / "c.wav")
    man = tmp_path / "m.tsv"
    man.write_text("# header\n\nc.wav\tSYNTH:white\t5\ttrain\n\n")
    assert len(load_manifest(man)) == 1


def test_manifest_missing_file():
    with pytest.raises(FileNotFoundError):
        load_manifest("/nonexistent/m.tsv")


@pytest.mark.parametrize("line,frag", [
    ("a.wav\tSYNTH:white\t5", "4 tab-separated"),
    ("c.wav\tSYNTH:white\tloud\ttrain", "bad snr_db"),
    ("c.wav\tSYNTH:white\t5\tdev", "split must be"),
    ("missing.wav\tSYNTH:white\t5\ttrain", "clean file missing"),
    ("c.wav\tSYNTH:brown\t5\ttrain", "unknown synth noise kind"),
    ("c.wav\tgone.wav\t5\ttrain", "noise file missing"),
])
def test_manifest_rejects_bad_lines(tmp_path, line, frag):
    _write_clean(tmp_path / "c.wav")
    man = tmp_path / "m.tsv"
    man.write_text(line + "\n")
    with pytest.raises(ManifestError, match=frag):
        load_manifest(man)


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_manifest_rejects_non_finite_snr(tmp_path, snr):
    _write_clean(tmp_path / "c.wav")
    man = tmp_path / "m.tsv"
    man.write_text(f"c.wav\tSYNTH:white\t5\ttrain\nc.wav\tSYNTH:white\t{snr}\ttrain\n")
    with pytest.raises(ManifestError, match=r"m\.tsv:2: snr_db must be finite"):
        load_manifest(man)


def test_manifest_error_carries_line_number(tmp_path):
    _write_clean(tmp_path / "c.wav")
    man = tmp_path / "m.tsv"
    man.write_text("c.wav\tSYNTH:white\t5\ttrain\nc.wav\tSYNTH:white\tx\ttrain\n")
    with pytest.raises(ManifestError, match=":2:"):
        load_manifest(man)


# ---------------------------------------------------------------------------
# Utterance iteration and pair building

def _toy_entries(tmp_path):
    _write_clean(tmp_path / "c1.wav", n=800, seed=0)
    _write_clean(tmp_path / "c2.wav", n=900, seed=1)
    return [
        ManifestEntry(str(tmp_path / "c1.wav"), SYNTH_PREFIX + "white", 5.0, "train"),
        ManifestEntry(str(tmp_path / "c2.wav"), SYNTH_PREFIX + "white", 0.0, "train"),
        ManifestEntry(str(tmp_path / "c1.wav"), SYNTH_PREFIX + "pink", 0.0, "test"),
    ]


def test_iter_utterances_filters_split_and_matches_lengths(tmp_path):
    entries = _toy_entries(tmp_path)
    train = list(iter_utterances(entries, "train", seed=1))
    test = list(iter_utterances(entries, "test", seed=1))
    assert len(train) == 2 and len(test) == 1
    for clean, noise, snr in train:
        assert len(noise) == len(clean)
    assert train[0][2] == 5.0 and train[1][2] == 0.0


def test_iter_utterances_seed_determinism(tmp_path):
    entries = _toy_entries(tmp_path)
    a = list(iter_utterances(entries, "train", seed=1))
    b = list(iter_utterances(entries, "train", seed=1))
    c = list(iter_utterances(entries, "train", seed=2))
    assert np.array_equal(a[0][1], b[0][1])
    assert not np.array_equal(a[0][1], c[0][1])
    # distinct entries draw distinct noise even under one base seed
    assert not np.array_equal(a[0][1][:800], a[1][1][:800])


def test_iter_utterances_reads_noise_files(tmp_path):
    _write_clean(tmp_path / "c.wav", n=400, seed=0)
    _write_clean(tmp_path / "n.wav", n=500, seed=9)
    entries = [ManifestEntry(str(tmp_path / "c.wav"), str(tmp_path / "n.wav"),
                             3.0, "train")]
    ((clean, noise, snr),) = iter_utterances(entries, "train")
    assert len(noise) == 500
    assert np.array_equal(noise, read_wav(tmp_path / "n.wav"))


def test_a_48k_noise_file_mixes_with_a_16k_clean_one(tmp_path):
    # every file enters at 16 kHz, so the two rates no longer clash
    _write_clean(tmp_path / "c.wav", n=400, seed=0)
    pcm = np.random.default_rng(9).integers(-16000, 16000, 1500)
    write_raw_wav(tmp_path / "n48.wav", pcm, rate=48000)
    entries = [ManifestEntry(str(tmp_path / "c.wav"), str(tmp_path / "n48.wav"), 3.0, "train")]
    ((clean, noise, _),) = iter_utterances(entries, "train")
    assert noise.tobytes() == resample_48k_to_16k(pcm / 32768.0).tobytes()
    corpus = build_pairs(iter_utterances(entries, "train"), window=256, hop=128)
    assert len(corpus) == chunk(clean, 256, 128)[0].shape[0] == 4


def _windows(corpus):
    """Every (noisy, clean) window of the corpus, each (n, window)."""
    noisy, clean = corpus.batch(np.arange(len(corpus)))
    return noisy[..., 0], clean[..., 0]


def _chunk_rows(utterances, window, hop):
    """The windows chunk() cuts from each utterance's preemphasized noisy
    and clean signals, stacked and cast to float32: the old pair list."""
    noisy, clean = [], []
    for c, n, snr_db in utterances:
        if not len(c):
            continue        # chunk() cuts no row from it (and mix_at_snr rejects it)
        noisy.append(chunk(preemphasis(mix_at_snr(c, n, snr_db)), window, hop)[0])
        clean.append(chunk(preemphasis(c), window, hop)[0])
    return (np.concatenate(noisy).astype(np.float32),
            np.concatenate(clean).astype(np.float32))


def test_build_pairs_counts_and_shapes():
    clean = synth_clean(seed=0, duration_s=1.0)
    noise = synth_noise("white", seed=1, duration_s=1.0)
    corpus = build_pairs([(clean, noise, 0.0)], window=16384, hop=8192)
    assert len(corpus) == 2
    for rows in _windows(corpus):
        assert rows.shape == (2, 16384)


def test_build_pairs_residual_is_preemphasized_scaled_noise():
    rng = np.random.default_rng(8)
    clean = rng.uniform(-0.5, 0.5, 700)
    noise = rng.uniform(-0.5, 0.5, 700)
    snr_db = 5.0
    corpus = build_pairs([(clean, noise, snr_db)], window=256, hop=128)
    g = np.sqrt(np.mean(clean ** 2)
                / (np.mean(noise ** 2) * 10.0 ** (snr_db / 10.0)))
    expected_rows, _ = chunk(preemphasis(g * noise), 256, 128)
    noisy, clean_rows = _windows(corpus)
    assert len(corpus) == expected_rows.shape[0]
    # each side is stored as float32, so each carries one float32 rounding
    residual = noisy.astype(np.float64) - clean_rows
    assert np.allclose(residual, expected_rows, rtol=0, atol=4 * np.finfo(np.float32).eps)


def test_build_pairs_deterministic(tmp_path):
    entries = _toy_entries(tmp_path)
    a = build_pairs(iter_utterances(entries, "train", seed=3), window=256, hop=256)
    b = build_pairs(iter_utterances(entries, "train", seed=3), window=256, hop=256)
    assert len(a) == len(b) > 0
    assert np.array_equal(a.starts, b.starts)
    assert a.noisy.tobytes() == b.noisy.tobytes() and a.clean.tobytes() == b.clean.tobytes()


def _mixed_lengths():
    """A long utterance, one shorter than any window below, an empty one
    and one of an odd length."""
    out = []
    for i, n in enumerate([5000, 300, 0, 1777]):
        rng = np.random.default_rng(40 + i)
        out.append((rng.uniform(-0.5, 0.5, n),
                    rng.uniform(-0.5, 0.5, n), 3.0 * i))
    return out


@pytest.mark.parametrize("window,hop", [(512, 256), (512, 512), (512, 100), (1024, 512)])
def test_corpus_windows_are_the_chunk_rows_cast_to_float32(window, hop):
    utts = _mixed_lengths()
    corpus = build_pairs(utts, window=window, hop=hop)
    want_noisy, want_clean = _chunk_rows(utts, window, hop)
    noisy, clean = _windows(corpus)
    assert (corpus.window, corpus.hop, corpus.utterances) == (window, hop, 4)
    assert noisy.dtype == clean.dtype == np.float32
    assert noisy.tobytes() == want_noisy.tobytes()
    assert clean.tobytes() == want_clean.tobytes()
    # one float32 copy of each padded signal: the empty utterance adds nothing
    padded = sum(int(starts[-1]) + window for starts in
                 (np.arange(0, len(c), hop) for c, _, _ in utts) if starts.size)
    assert corpus.noisy.shape == corpus.clean.shape == (padded,)
    assert corpus.nbytes == 2 * 4 * padded + corpus.starts.nbytes


def test_corpus_batch_gather_equals_the_stacked_indexing():
    utts = _mixed_lengths()
    corpus = build_pairs(utts, window=512, hop=256)
    noisy_all, clean_all = (rows[..., None] for rows in _chunk_rows(utts, 512, 256))
    perm = np.random.default_rng(0).permutation(len(corpus))
    for lo in range(0, len(corpus), 5):
        idx = perm[lo:lo + 5]
        noisy_b, clean_b = corpus.batch(idx)
        assert noisy_b.flags.c_contiguous and clean_b.flags.c_contiguous
        assert noisy_b.tobytes() == noisy_all[idx].tobytes()
        assert clean_b.tobytes() == clean_all[idx].tobytes()
        assert noisy_b.shape == clean_b.shape == (len(idx), 512, 1)


def test_an_empty_utterance_list_gives_an_empty_corpus():
    corpus = build_pairs([], window=512, hop=256)
    assert len(corpus) == 0 and corpus.utterances == 0
    assert corpus.noisy.size == corpus.clean.size == 0


def test_pair_and_condition_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        Corpus(noisy=np.zeros(4, np.float32), clean=np.zeros(5, np.float32),
               starts=np.zeros(1, np.intp), window=4, hop=4, utterances=1)
