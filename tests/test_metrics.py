"""Objective metrics and listening-score arithmetic."""

import re

import numpy as np
import pytest

from segan import metrics
from segan.dataset import mix_at_snr, synth_clean, synth_noise
from segan.errors import (AllFramesSilentError, IncompleteTripletError,
                          LengthMismatchError, NumericalError)
from segan.metrics import (Rating, aggregate_mos, levinson, llr,
                           load_ratings, ssnr, write_report)

from helpers import levinson_oracle, llr_oracle, ssnr_oracle, tone


def _ar(coefs, e):
    """x[n] = e[n] + sum_k coefs[k] * x[n - 1 - k]."""
    x = np.zeros(e.size)
    for n in range(e.size):
        x[n] = e[n] + sum(c * x[n - 1 - k] for k, c in enumerate(coefs) if n > k)
    return x


def _pcm16(x):
    return np.clip(np.round(x * 32768.0), -32768, 32767) / 32768.0


# ---------------------------------------------------------------------------
# Segmental SNR

def test_ssnr_identical_signals_hit_upper_clamp():
    x = tone(440.0, 2048)
    assert ssnr(x, x) == 35.0


def test_ssnr_zero_estimate_scores_zero():
    x = tone(440.0, 2048)
    zero = np.zeros(2048)
    assert abs(ssnr(x, zero)) < 1e-9


def test_ssnr_constructed_10db():
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, 4096)
    err = rng.standard_normal(4096)
    for j in range(8):
        seg = slice(j * 512, (j + 1) * 512)
        scale = np.sqrt(np.sum(x[seg] ** 2) / (10.0 * np.sum(err[seg] ** 2)))
        err[seg] *= scale
    assert abs(ssnr(x, x - err) - 10.0) < 0.5


def test_ssnr_heavy_noise_hits_lower_clamp():
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.01, 0.01, 1024)
    y = x + rng.uniform(-1, 1, 1024)
    assert ssnr(x, y) == -10.0


def test_ssnr_skips_silent_frames():
    rng = np.random.default_rng(2)
    x = np.zeros(1536)
    x[512:] = rng.uniform(-0.5, 0.5, 1024)
    # first frame is silent; identical elsewhere: still the upper clamp
    assert ssnr(x, x) == 35.0
    with pytest.raises(AllFramesSilentError):
        ssnr(np.zeros(1024), np.zeros(1024))


def test_ssnr_monotone_in_noise_scale():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, 4096)
    n = rng.standard_normal(4096) * 0.05
    vals = [ssnr(x, x + s * n) for s in (0.25, 1.0, 4.0)]
    assert vals[0] > vals[1] > vals[2]


def test_ssnr_matches_frame_loop_bitwise():
    rng = np.random.default_rng(11)
    for n in (1300, 4097, 16000):
        x = rng.uniform(-0.5, 0.5, n)
        x[:700] = 0.0  # a silent leading frame exercises the gate
        for scale in (0.0, 1e-7, 0.05, 3.0):
            y = x + scale * rng.standard_normal(n)
            assert ssnr(x, y) == ssnr_oracle(x, y)


def test_ssnr_validation():
    x = np.ones(1024)
    with pytest.raises(LengthMismatchError, match="length"):
        ssnr(x, np.ones(1000))
    with pytest.raises(LengthMismatchError, match="shorter"):
        ssnr(np.ones(100), np.ones(100))


# ---------------------------------------------------------------------------
# Levinson-Durbin and LLR

def test_levinson_first_order_fixture():
    a, err = levinson(np.array([1.0, 0.5]), 1)
    assert abs(a[0] - 1.0) < 1e-12
    assert abs(a[1] + 0.5) < 1e-12
    assert abs(err - 0.75) < 1e-12


def test_levinson_matches_direct_toeplitz_solve():
    rng = np.random.default_rng(4)
    e = rng.standard_normal(50000)
    x = np.empty_like(e)
    acc = 0.0
    for i, v in enumerate(e):
        acc = 0.9 * acc + v
        x[i] = acc
    order = 8
    r = np.array([np.dot(x[:x.size - k], x[k:]) for k in range(order + 1)])
    a, err = levinson(r, order)
    idx = np.abs(np.arange(order)[:, None] - np.arange(order)[None, :])
    solved = np.linalg.solve(r[idx], -r[1:order + 1])
    assert np.allclose(a[1:], solved, atol=1e-10)
    # an AR(1) source needs only the first coefficient
    assert abs(a[1] + 0.9) < 0.01
    assert np.all(np.abs(a[2:]) < 0.02)
    assert err > 0.0


def test_levinson_validation():
    with pytest.raises(ValueError, match="lags"):
        levinson(np.array([1.0]), 1)
    with pytest.raises(ValueError, match="need 3 autocorrelation lags, got 2"):
        levinson(np.ones((4, 2)), 2)
    with pytest.raises(NumericalError, match="zero-lag autocorrelation: 0.0"):
        levinson(np.array([0.0, 0.0]), 1)
    with pytest.raises(NumericalError, match="zero-lag"):
        levinson(np.array([[1.0, 0.5], [-1.0, 0.0]]), 1)
    # a perfectly predictable row loses positivity at the first order
    with pytest.raises(NumericalError, match="nonpositive at order 1"):
        levinson(np.array([1.0, 1.0]), 1)
    with pytest.raises(NumericalError, match="nonpositive at order 1"):
        levinson(np.array([[1.0, 0.5], [1.0, 1.0]]), 1)


def test_levinson_rows_match_one_row_calls_bitwise():
    rng = np.random.default_rng(12)
    frames = rng.standard_normal((37, 480)) * np.hanning(480)
    frames[5:9] = np.convolve(rng.standard_normal(600), np.ones(5), "same")[:480]  # low-pass rows
    r = np.stack([[np.dot(f[:480 - k], f[k:]) for k in range(17)] for f in frames])
    a, err = levinson(r, 16)
    assert a.shape == (37, 17) and err.shape == (37,)
    for i in range(r.shape[0]):
        a_i, err_i = levinson(r[i], 16)
        assert isinstance(err_i, float)
        assert np.array_equal(a[i], a_i) and err[i] == err_i
    ref, ref_err = levinson_oracle(r[0], 16)
    assert np.allclose(a[0], ref, rtol=0, atol=1e-12)
    assert abs(err[0] - ref_err) <= 1e-12 * ref_err


def test_llr_identical_is_zero():
    rng = np.random.default_rng(5)
    e = rng.standard_normal(2400)
    x = np.convolve(e, np.ones(8) / 8.0, mode="same")
    assert llr(x, x) < 1e-10


def test_llr_separates_mismatched_spectra():
    rng = np.random.default_rng(6)
    e = rng.standard_normal(3200)
    ar = np.empty_like(e)
    acc = 0.0
    for i, v in enumerate(e):
        acc = 0.9 * acc + v
        ar[i] = acc
    white = rng.standard_normal(3200)
    assert llr(ar, white) > 0.1


def test_llr_invariant_to_test_gain():
    rng = np.random.default_rng(7)
    clean = np.convolve(rng.standard_normal(2400), np.ones(6) / 6.0, mode="same")
    test = np.convolve(rng.standard_normal(2400), np.ones(3) / 3.0, mode="same")
    base = llr(clean, test)
    scaled = llr(clean, 4.0 * test)
    assert abs(base - scaled) < 1e-10


def _well_conditioned_pairs():
    rng = np.random.default_rng(13)
    for n in (2401, 5003, 9999):
        white = rng.standard_normal(n)
        yield white, white + 0.5 * rng.standard_normal(n)
        clean = _ar([1.2, -0.6, 0.2], rng.standard_normal(n))
        noise = _ar([0.5, -0.3, 0.1, 0.05], rng.standard_normal(n))
        yield clean, clean + 0.3 * noise
        quiet = clean.copy()
        quiet[:1500] = 0.0  # leading silence: the energy gate drops frames
        yield quiet, quiet + 0.3 * noise * (np.arange(n) >= 1000)
        dropout = clean + 0.3 * noise
        dropout[1800:2400] = 0.0  # a silent test frame under a voiced clean one
        yield clean, dropout


def test_llr_matches_frame_loop_on_well_conditioned_inputs():
    for x, y in _well_conditioned_pairs():
        want = llr_oracle(x, y, 16000)
        assert abs(llr(x, y) - want) <= 1e-9 * abs(want)


def test_llr_matches_frame_loop_on_16bit_speech_like_pairs():
    for seed, kind, snr in ((0, "white", 5.0), (1, "modulated_burst", 0.0), (2, "pink", 10.0)):
        clean = synth_clean(seed=seed, duration_s=1.3)
        noisy = mix_at_snr(clean, synth_noise(kind, seed=seed, duration_s=1.3), snr)
        x, y = _pcm16(clean), _pcm16(noisy)
        want = llr_oracle(x, y, 16000)
        assert abs(llr(x, y) - want) <= 1e-6 * abs(want)


def test_llr_runs_on_an_enveloped_tone():
    # Near-singular frames: whether the Levinson error stays positive hinges
    # on the rounding of the lag sums, which must be the per-frame dot's.
    t = np.arange(80000) / 16000
    x = 0.4 * np.sin(2 * np.pi * 150 * t) * (0.2 + np.sin(2 * np.pi * 2 * t) ** 2)
    y = x + 0.05 * np.random.default_rng(0).standard_normal(x.size)
    assert np.isfinite(llr(x, y))


def _harmonic_speech(n, seed, rate=16000):
    """Noise-free voiced-speech stand-in: eight harmonics of a gliding pitch
    under a syllable-rate envelope, peak 0.5."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    f0 = rng.uniform(100, 220) * (1 + 0.06 * np.sin(2 * np.pi * rng.uniform(0.4, 1.2) * t))
    phase = 2 * np.pi * np.cumsum(f0) / rate
    x = sum(rng.uniform(0.6, 1.0) / k ** 1.3 * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
            for k in range(1, 9))
    x *= 0.15 + 0.85 * np.sin(np.pi * rng.uniform(3, 5) * t) ** 2
    return 0.5 * x / np.max(np.abs(x))


def test_llr_on_noise_free_harmonic_speech():
    # without the white-noise correction these frames drive the Levinson
    # error to the rounding floor and the fit raises NumericalError
    x = _harmonic_speech(30 * 16000, seed=0)
    assert llr(x, x) == 0.0
    quantised = _pcm16(x)
    got = llr(x, quantised)
    assert 0.0 <= got < 1e-6
    want = llr_oracle(x[:16000], quantised[:16000], 16000)
    assert abs(llr(x[:16000], quantised[:16000]) - want) <= 1e-9
    noisy = x + 0.05 * np.random.default_rng(1).standard_normal(x.size)
    assert 0.0 < llr(x, noisy) <= 2.0


def test_llr_clamps_each_frame():
    # a resonant clean signal against white noise: unclamped frame values
    # pass 2, and each is held at 2 before the mean
    rng = np.random.default_rng(16)
    clean = _ar([1.8, -0.95], rng.standard_normal(4800))
    white = rng.standard_normal(4800)
    assert llr_oracle(clean, white, 16000, clamp=(-np.inf, np.inf)) > 2.0
    got = llr(clean, white)
    assert got <= 2.0
    assert abs(got - llr_oracle(clean, white, 16000)) <= 1e-9


def test_llr_independent_of_block_size(monkeypatch):
    x, y = list(_well_conditioned_pairs())[-2]
    want = llr(x, y)
    calls = []

    def counted(r, order):
        calls.append(r.shape[0])
        return levinson(r, order)

    monkeypatch.setattr(metrics, "levinson", counted)
    n_frames = (x.size - 480) // 120 + 1
    for block in (1, 3, 10 ** 9):
        monkeypatch.setattr(metrics, "_BLOCK_FRAMES", block)
        calls.clear()
        assert llr(x, y) == want
        # two batched solves per block holding a voiced frame; the first 9
        # frames lie inside the leading 1500-sample silence
        assert len(calls) == 2 * (-(-n_frames // block) - 9 // block)
    assert calls == [n_frames - 9] * 2


def test_llr_residual_energy_check(monkeypatch):
    monkeypatch.setattr(metrics, "levinson",
                        lambda r, order: (np.zeros(r.shape[:-1] + (order + 1,)), None))
    w = np.random.default_rng(15).standard_normal(2400)
    with pytest.raises(NumericalError, match="residual energy"):
        llr(w, w)


def test_llr_validation():
    with pytest.raises(LengthMismatchError):
        llr(np.ones(2400), np.ones(2000))
    with pytest.raises(LengthMismatchError, match="shorter"):
        llr(np.ones(100), np.ones(100))
    with pytest.raises(AllFramesSilentError):
        llr(np.zeros(2400), np.zeros(2400))


# ---------------------------------------------------------------------------
# MOS aggregation

def _triplets(spec):
    """spec: list of (noisy, wiener, segan) score triples."""
    rows = []
    for i, (n, w, s) in enumerate(spec):
        item = f"s{i:03d}"
        rows += [Rating("l1", item, "noisy", n),
                 Rating("l1", item, "wiener", w),
                 Rating("l1", item, "segan", s)]
    return rows


def test_mos_reference_table():
    spec = [(3 if i < 9 else 2, 3 if i < 70 else 2, 4 if i < 18 else 3)
            for i in range(100)]
    summary = aggregate_mos(_triplets(spec))
    assert abs(summary.mos["noisy"] - 2.09) < 1e-12
    assert abs(summary.mos["wiener"] - 2.70) < 1e-12
    assert abs(summary.mos["segan"] - 3.18) < 1e-12


def test_cmos_equals_mos_difference_and_preferences_sum_to_one():
    rng = np.random.default_rng(8)
    spec = [tuple(rng.integers(1, 6, 3)) for _ in range(60)]
    summary = aggregate_mos(_triplets(spec))
    for (a, b), v in summary.cmos.items():
        assert abs(v - (summary.mos[a] - summary.mos[b])) < 1e-12
    for (a, b), frac in summary.preference.items():
        assert abs(frac[a] + frac[b] + frac["none"] - 1.0) < 1e-12
        assert min(frac.values()) >= 0.0


def test_single_triplet_summary():
    summary = aggregate_mos(_triplets([(2, 3, 4)]))
    assert summary.mos == {"noisy": 2.0, "wiener": 3.0, "segan": 4.0}
    assert summary.cmos[("segan", "noisy")] == 2.0
    assert summary.preference[("segan", "noisy")] == {"segan": 1.0, "noisy": 0.0,
                                                      "none": 0.0}
    assert summary.preference[("wiener", "noisy")]["wiener"] == 1.0


def test_tied_scores_prefer_none():
    summary = aggregate_mos(_triplets([(3, 3, 3), (3, 3, 3)]))
    for pair in summary.preference.values():
        assert pair["none"] == 1.0
    assert all(v == 0.0 for v in summary.cmos.values())


def test_aggregate_validation():
    with pytest.raises(ValueError, match="unknown system"):
        aggregate_mos([Rating("l", "s", "oracle", 3)])
    with pytest.raises(ValueError, match="outside 1..5"):
        aggregate_mos([Rating("l", "s", "noisy", 6)])
    with pytest.raises(IncompleteTripletError, match="duplicate"):
        aggregate_mos(_triplets([(3, 3, 3)]) + [Rating("l1", "s000", "noisy", 2)])
    with pytest.raises(IncompleteTripletError, match="missing"):
        aggregate_mos([Rating("l", "s", "noisy", 3), Rating("l", "s", "segan", 3)])
    with pytest.raises(IncompleteTripletError, match="empty"):
        aggregate_mos([])


def test_load_ratings_round_trip(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("listener,sentence,system,score\n"
                    "l1, s1 ,noisy,2\n"
                    "l1,s1,wiener,3\n"
                    "l1,s1,segan,4\n")
    rows = load_ratings(path)
    assert rows[0] == Rating("l1", "s1", "noisy", 2)
    assert len(rows) == 3
    assert aggregate_mos(rows).mos["segan"] == 4.0


def test_load_ratings_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("who,what,score\nl,s,3\n")
    with pytest.raises(ValueError, match="expected header"):
        load_ratings(path)


@pytest.mark.parametrize("row, message", [
    ("l1,s1,segan\n", "line 3: expected 4 fields"),
    ("l1,s1,segan,4,5\n", "line 3: expected 4 fields"),
    ("l1,s1,segan,4.5\n", "line 3: score '4.5' is not an integer"),
])
def test_load_ratings_names_the_bad_line(tmp_path, row, message):
    path = tmp_path / "r.csv"
    path.write_text("listener,sentence,system,score\nl1,s1,noisy,2\n" + row)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path} {message}")):
        load_ratings(path)


def test_write_report(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, [("a.wav", "ssnr", 3.5), ("b.wav", "ssnr", 4.5),
                        ("a.wav", "llr", 0.25)])
    lines = path.read_text().splitlines()
    assert lines[0] == "file,metric,value"
    assert "a.wav,ssnr,3.5" in lines
    agg = [l for l in lines if l.startswith("AGGREGATE,")]
    assert agg == ["AGGREGATE,llr,0.25", "AGGREGATE,ssnr,4.0"]
