"""STFT analysis/synthesis and the decision-directed Wiener baseline."""

import numpy as np
import pytest

from segan.dataset import mix_at_snr, synth_clean, synth_noise
from segan.errors import ConfigError, ShapeMismatchError, TooShortError
from segan.metrics import ssnr
from segan import wiener
from segan.wiener import enhance_wiener, istft, stft, wiener_gains

from helpers import istft_oracle, stft_oracle, tone


# ---------------------------------------------------------------------------
# STFT / iSTFT

def test_stft_shapes_and_frame_count():
    assert stft(np.zeros(512), frame=512, hop=256).shape == (1, 257)
    assert stft(np.zeros(513), frame=512, hop=256).shape == (2, 257)
    assert stft(np.zeros(1024), frame=512, hop=256).shape == (3, 257)


def test_stft_dc_concentrates_on_bin_zero():
    spec = stft(np.ones(2048), frame=512, hop=256)
    mag = np.abs(spec[2])
    assert np.argmax(mag) == 0
    # everything beyond the window mainlobe sits at least 20 dB down
    assert mag[0] > 10.0 * np.max(mag[3:])
    assert float(mag[:3] @ mag[:3]) > 0.9999 * float(mag @ mag)


def test_stft_tone_concentrates_on_its_bin():
    # bin 10 of a 512-point frame at 16 kHz is exactly 312.5 Hz
    spec = stft(tone(312.5, 4096), frame=512, hop=256)
    mag = np.abs(spec[4])
    assert np.argmax(mag) == 10
    # at least 20 dB above everything beyond the immediate sidelobes
    others = np.delete(mag, [8, 9, 10, 11, 12])
    assert mag[10] > 10.0 * np.max(others)


def test_istft_round_trip_exact():
    rng = np.random.default_rng(0)
    for n in (512, 700, 1024, 2000):
        x = rng.uniform(-0.5, 0.5, n)
        back = istft(stft(x, 512, 256), 512, 256)
        assert back.size >= n
        assert np.max(np.abs(back[:n] - x)) < 1e-6


@pytest.mark.parametrize("block", [1, 3, wiener._BLOCK_FRAMES])
def test_stft_istft_match_frame_loops(monkeypatch, block):
    monkeypatch.setattr(wiener, "_BLOCK_FRAMES", block)
    rng = np.random.default_rng(3)
    for n in (512, 513, 7001):
        x = rng.standard_normal(n)
        for frame, hop in ((512, 256), (512, 512), (512, 128), (400, 160)):
            spec = stft(x, frame, hop)
            assert np.array_equal(spec, stft_oracle(x, frame, hop))
            back = istft(spec, frame, hop)
            want = istft_oracle(spec, frame, hop)
            if -(-frame // hop) <= 2:
                assert np.array_equal(back, want)
            else:
                assert np.max(np.abs(back - want)) <= 1e-12


def test_istft_single_frame_round_trip():
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.5, 0.5, 512)
    back = istft(stft(x, 512, 256), 512, 256)
    assert np.max(np.abs(back[:512] - x)) < 1e-6


def test_istft_zero_spectrogram_is_silence():
    spec = np.zeros((4, 257), dtype=complex)
    assert np.array_equal(istft(spec, 512, 256), np.zeros(3 * 256 + 512))


def test_stft_validation():
    with pytest.raises(TooShortError):
        stft(np.zeros(100), frame=512, hop=256)
    for hop in (0, -1, 513):
        with pytest.raises(ConfigError, match="hop"):
            stft(np.zeros(1024), frame=512, hop=hop)


def test_istft_validation():
    with pytest.raises(ShapeMismatchError, match="bins"):
        istft(np.zeros((4, 256), dtype=complex), 512, 256)
    with pytest.raises(ShapeMismatchError, match="frames, bins"):
        istft(np.zeros(257, dtype=complex), 512, 256)
    for hop in (0, -1, 513):
        with pytest.raises(ConfigError, match="hop"):
            istft(np.zeros((4, 257), dtype=complex), 512, hop)


def test_stft_istft_are_double_precision_for_float32_input():
    x = np.random.default_rng(6).uniform(-0.5, 0.5, 2000)
    spec = stft(x.astype(np.float32), 512, 256)
    assert spec.dtype == np.complex128
    assert np.array_equal(spec, stft(x.astype(np.float32).astype(np.float64), 512, 256))
    assert istft(spec.astype(np.complex64), 512, 256).dtype == np.float64


# ---------------------------------------------------------------------------
# Gain recursion

def test_gains_stay_in_declared_interval():
    rng = np.random.default_rng(2)
    power = rng.uniform(0.0, 4.0, (40, 257))
    gains = wiener_gains(power)
    floor = 10.0 ** (-25.0 / 20.0)
    assert gains.shape == power.shape
    assert np.all(gains >= floor - 1e-15)
    assert np.all(gains <= 1.0)


def test_gains_rise_with_signal_onset():
    # quiet noise-level frames, then a 100x power burst in one bin
    power = np.ones((20, 5))
    power[10:, 2] = 100.0
    gains = wiener_gains(power)
    assert gains[12, 2] > 0.9
    assert gains[12, 0] < 0.3


def test_gains_deterministic():
    rng = np.random.default_rng(3)
    power = rng.uniform(0.0, 2.0, (30, 17))
    assert np.array_equal(wiener_gains(power), wiener_gains(power.copy()))


def test_gains_need_more_than_noise_frames():
    with pytest.raises(TooShortError):
        wiener_gains(np.ones((6, 9)))


def test_baseline_settings_are_not_parameters():
    with pytest.raises(TypeError):
        wiener_gains(np.ones((20, 9)), noise_frames=3)
    with pytest.raises(TypeError):
        enhance_wiener(np.zeros(4096), hop=128)


# ---------------------------------------------------------------------------
# End-to-end enhancement

def test_enhance_zero_noise_passthrough():
    # a silent leader spans the six estimation frames, so the noise floor
    # collapses and speech frames pass through at unit gain
    lead = np.zeros(5 * 256 + 512)
    x = np.concatenate([lead, tone(440.0, 16000)])
    out = enhance_wiener(x)
    assert len(out) == len(x)
    rel = np.sqrt(np.mean((out - x) ** 2)) / np.sqrt(np.mean(x ** 2))
    assert rel < 1e-3


def test_enhance_improves_snr_on_white_noise():
    clean = synth_clean(seed=7, duration_s=1.0)
    lead = np.zeros(2048)  # noise-only header for the estimator
    padded = np.concatenate([lead, clean])
    noise = synth_noise("white", seed=8, duration_s=len(padded) / 16000)
    noisy = mix_at_snr(padded, noise, 5.0)
    out = enhance_wiener(noisy)
    assert len(out) == len(noisy)
    gain = ssnr(padded, out) - ssnr(padded, noisy)
    assert gain >= 2.0


def test_enhance_attenuates_pure_stationary_noise():
    # Noise-only input: the recursion holds most gains near the floor, but
    # heavy-tailed per-frame power estimates keep re-opening isolated bins
    # exactly where the power is largest, so the residual sits well above
    # the -25 dB floor; the honest band for this recursion is 5-12%.
    noise = synth_noise("white", seed=4, duration_s=2.0)
    out = enhance_wiener(noise)
    ratio = np.sqrt(np.mean(out ** 2)) / np.sqrt(np.mean(noise ** 2))
    assert 0.05 <= ratio <= 0.12


def test_enhance_output_length_odd_sizes():
    rng = np.random.default_rng(5)
    for n in (5000, 5001, 8191):
        out = enhance_wiener(rng.uniform(-0.3, 0.3, n))
        assert len(out) == n
