"""WAV I/O, resampling, emphasis filters, and windowing."""

import os

import numpy as np
import pytest

from segan.audio_io import (_DEEMPH_BLOCK, PREEMPH, Waveform, WavReader, chunk,
                            decimate_blocks, deemphasis, preemphasis, read_wav,
                            reassemble, wav_writer, write_wav)
from segan.errors import InvalidWindowError, UnsupportedFormatError, WrongRateError

from helpers import emphasis_oracle, read_raw_pcm, resample_48k_to_16k, tone, write_raw_wav


# ---------------------------------------------------------------------------
# Waveform container

def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.zeros((2, 3)), 16000)
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.inf]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(4), 0)


def test_waveform_len_and_duration():
    w = Waveform(np.zeros(16000), 16000)
    assert len(w) == 16000
    assert w.duration_s == 1.0


# ---------------------------------------------------------------------------
# WAV read/write

def test_read_scales_pcm_by_32768(tmp_path):
    path = tmp_path / "t.wav"
    write_raw_wav(path, [0, 16384, -32768, 32767])
    w = read_wav(path)
    assert w.sample_rate == 16000
    assert np.array_equal(w.samples, [0.0, 0.5, -1.0, 32767 / 32768])


def test_read_preserves_sample_rate(tmp_path):
    path = tmp_path / "t48.wav"
    write_raw_wav(path, [0, 0, 0], rate=48000)
    assert read_wav(path).sample_rate == 48000


def test_write_quantizer_fixture(tmp_path):
    path = tmp_path / "q.wav"
    write_wav(Waveform(np.array([1.0, 0.0, -1.0, 0.5, 2.0, -3.0]), 16000), path)
    pcm, rate = read_raw_pcm(path)
    assert rate == 16000
    assert np.array_equal(pcm, [32767, 0, -32767, 16384, 32767, -32767])


def test_every_quantized_level_round_trips(tmp_path):
    path = tmp_path / "levels.wav"
    levels = np.arange(-32767, 32768, dtype=np.float64) / 32768.0
    write_wav(Waveform(levels, 16000), path)
    back = read_wav(path)
    assert np.array_equal(back.samples, levels)


def test_write_read_write_is_stable(tmp_path):
    rng = np.random.default_rng(5)
    w = Waveform(rng.uniform(-1, 1, 2000), 16000)
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(w, a)
    first = read_wav(a)
    write_wav(first, b)
    assert np.array_equal(read_wav(b).samples, first.samples)


def test_empty_wav_round_trip(tmp_path):
    path = tmp_path / "e.wav"
    write_wav(Waveform(np.zeros(0), 16000), path)
    assert len(read_wav(path)) == 0


def test_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    write_raw_wav(path, [0, 0, 0, 0], channels=2)
    with pytest.raises(UnsupportedFormatError, match="mono"):
        read_wav(path)


def test_rejects_8_bit(tmp_path):
    path = tmp_path / "8bit.wav"
    import wave
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(16000)
        fh.writeframes(b"\x80\x80\x80")
    with pytest.raises(UnsupportedFormatError, match="16-bit"):
        read_wav(path)


def test_rejects_non_wav(tmp_path):
    path = tmp_path / "not.wav"
    path.write_bytes(b"this is not audio at all, nope")
    with pytest.raises(UnsupportedFormatError, match="not a readable WAV"):
        read_wav(path)


# ---------------------------------------------------------------------------
# Resampler

def _interior(x, margin=64):
    return x[margin:-margin]


def _resample(w):
    """The 16 kHz samples decimate_blocks makes of a 48 kHz Waveform given whole."""
    assert w.sample_rate == 48000
    return np.concatenate([np.zeros(0), *decimate_blocks([w.samples])])


def test_resample_dc_gain():
    w = Waveform(np.ones(4800), 48000)
    out = _resample(w)
    assert len(out) == 1600
    assert np.all(np.abs(_interior(out) - 1.0) < 1e-3)


def test_resample_1khz_amplitude():
    n = 48000
    w = Waveform(tone(1000.0, n, rate=48000), 48000)
    out = _resample(w)
    expected = tone(1000.0, len(out), rate=16000)
    ratio = (np.sqrt(np.mean(_interior(out) ** 2))
             / np.sqrt(np.mean(_interior(expected) ** 2)))
    assert abs(ratio - 1.0) < 0.005
    # group-delay compensation keeps the output phase-aligned sample for
    # sample with a tone generated directly at the low rate
    err = _interior(out - expected)
    assert np.sqrt(np.mean(err ** 2)) < 0.01 * np.sqrt(np.mean(expected ** 2))


def test_resample_rejects_20khz():
    w = Waveform(tone(20000.0, 48000, rate=48000), 48000)
    out = _resample(w)
    # 20 kHz sits far above the new Nyquist; at least 40 dB must go
    assert np.sqrt(np.mean(_interior(out) ** 2)) < 0.01 * (0.5 / np.sqrt(2))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 100, 101, 102])
def test_resample_length_is_ceil_n_over_3(n):
    out = _resample(Waveform(np.zeros(n), 48000))
    assert len(out) == -(-n // 3)


def test_resample_wrong_rate(tmp_path):
    # only 16 and 48 kHz files have a 16 kHz block stream
    path = tmp_path / "in22.wav"
    write_raw_wav(path, np.zeros(10), rate=22050)
    with WavReader(path) as r, pytest.raises(WrongRateError, match="expected 16 or 48 kHz"):
        r.blocks(4)


@pytest.mark.parametrize("block", [1, 2, 43, 127, 1000])
def test_decimate_blocks_match_the_whole_signal(block):
    # np.convolve over blocks, with the history decimate_blocks keeps,
    # gives the whole-signal convolution's samples bit for bit
    rng = np.random.default_rng(block)
    for n in [*range(0, 260), 1000, 3001]:
        x = rng.uniform(-1, 1, n)
        got = np.concatenate(
            [np.zeros(0), *decimate_blocks(x[i:i + block] for i in range(0, n, block))])
        want = resample_48k_to_16k(Waveform(x, 48000)).samples
        assert got.tobytes() == want.tobytes(), (n, block)


@pytest.mark.parametrize("rate", [16000, 48000])
def test_reader_blocks_are_the_whole_signal_in_order(tmp_path, rate):
    pcm = np.random.default_rng(rate).integers(-32767, 32768, 5000)
    path = tmp_path / "in.wav"
    write_raw_wav(path, pcm, rate=rate)
    w = read_wav(path)
    whole = w.samples if rate == 16000 else resample_48k_to_16k(w).samples
    with WavReader(path) as r:
        blocks = list(r.blocks(300))
    assert all(b.size == 300 for b in blocks[:-1]) and 0 < blocks[-1].size <= 300
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


def test_header_claiming_more_frames_is_read_as_far_as_the_file_goes(tmp_path):
    path = tmp_path / "cut.wav"
    pcm = np.arange(-500, 500) * 30
    write_raw_wav(path, pcm)
    path.write_bytes(path.read_bytes()[:-20])           # the last 10 frames
    assert np.array_equal(read_wav(path).samples, pcm[:-10] / 32768.0)
    with WavReader(path) as r:
        assert np.array_equal(np.concatenate(list(r.blocks(64))), pcm[:-10] / 32768.0)


def test_file_cut_inside_a_sample_reads_to_the_sample_before(tmp_path):
    path = tmp_path / "cut.wav"
    pcm = np.arange(-50, 50) * 300
    write_raw_wav(path, pcm)
    path.write_bytes(path.read_bytes()[:-1])            # half of the last sample
    assert np.array_equal(read_wav(path).samples, pcm[:-1] / 32768.0)
    for block in (7, 99, 100, 1000):
        with WavReader(path) as r:
            assert np.array_equal(np.concatenate(list(r.blocks(block))), pcm[:-1] / 32768.0)


def test_writer_appends_blocks_as_one_write(tmp_path):
    x = np.random.default_rng(2).uniform(-1.2, 1.2, 1001)
    write_wav(Waveform(x, 16000), tmp_path / "whole.wav")
    with wav_writer(tmp_path / "blocks.wav", 16000) as write:
        for lo in range(0, x.size, 100):
            write(x[lo:lo + 100])
    assert (tmp_path / "blocks.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()


def test_writer_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.wav"
    write_wav(Waveform(np.zeros(10), 16000), path)
    blob = path.read_bytes()
    with pytest.raises(RuntimeError):
        with wav_writer(path, 16000) as write:
            write(np.ones(5) * 0.5)
            raise RuntimeError("stop")
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["out.wav"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_writer_rejects_non_finite_samples(tmp_path, bad):
    with pytest.raises(ValueError, match="non-finite"):
        with wav_writer(tmp_path / "out.wav", 16000) as write:
            write(np.array([0.0, bad]))
    assert os.listdir(tmp_path) == []


def test_write_into_a_missing_directory_names_the_target(tmp_path):
    target = tmp_path / "missing" / "out.wav"
    with pytest.raises(FileNotFoundError) as err:
        write_wav(Waveform(np.zeros(4), 16000), target)
    assert err.value.filename == str(target)


def test_written_file_has_the_mode_of_a_plain_open(tmp_path):
    umask = os.umask(0o027)
    try:
        write_wav(Waveform(np.zeros(4), 16000), tmp_path / "a.wav")
        assert (tmp_path / "a.wav").stat().st_mode & 0o777 == 0o640
        os.chmod(tmp_path / "a.wav", 0o604)
        write_wav(Waveform(np.zeros(4), 16000), tmp_path / "a.wav")
        assert (tmp_path / "a.wav").stat().st_mode & 0o777 == 0o604
    finally:
        os.umask(umask)


# ---------------------------------------------------------------------------
# Emphasis filters

def test_preemphasis_fixture():
    out = preemphasis(np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, [1.0, 0.05, 0.05], atol=1e-15)


def test_deemphasis_fixture():
    out = deemphasis(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [1.0, 0.95, 0.9025], atol=1e-15)


def test_emphasis_round_trip_below_1e_9():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 16000)
    back = deemphasis(preemphasis(x))
    assert np.max(np.abs(back - x)) < 1e-9
    fwd = preemphasis(deemphasis(x))
    assert np.max(np.abs(fwd - x)) < 1e-9


def test_emphasis_filters_match_loop_oracle():
    x = np.random.default_rng(12).uniform(-1, 1, 3000)
    assert np.array_equal(preemphasis(x), emphasis_oracle(x, PREEMPH))
    assert np.array_equal(deemphasis(x), emphasis_oracle(x, PREEMPH, inverse=True))
    assert np.array_equal(emphasis_oracle(x, 0.0), x)


@pytest.mark.parametrize("n", [_DEEMPH_BLOCK - 1, _DEEMPH_BLOCK, _DEEMPH_BLOCK + 1,
                               2 * _DEEMPH_BLOCK + 7])
def test_deemphasis_carries_across_blocks(n):
    x = np.random.default_rng(n).uniform(-1, 1, n)
    out = deemphasis(x)
    assert np.array_equal(out, emphasis_oracle(x, PREEMPH, inverse=True))


# ---------------------------------------------------------------------------
# Chunking

def test_chunk_fixture_10_4_4():
    chunks, pad = chunk(np.arange(10, dtype=np.float64), 4, 4)
    assert chunks.shape == (3, 4)
    assert pad == 2
    assert np.array_equal(chunks[0], [0, 1, 2, 3])
    assert np.array_equal(chunks[1], [4, 5, 6, 7])
    assert np.array_equal(chunks[2], [8, 9, 0, 0])


def test_chunk_fixture_half_overlap():
    chunks, pad = chunk(np.arange(24576, dtype=np.float64), 16384, 8192)
    assert chunks.shape == (3, 16384)
    assert pad == 8192
    assert np.array_equal(chunks[0], np.arange(16384))
    assert np.array_equal(chunks[1], np.arange(8192, 24576))
    assert np.array_equal(chunks[2][:8192], np.arange(16384, 24576))
    assert np.all(chunks[2][8192:] == 0)


def test_chunk_exact_fit_has_no_padding():
    chunks, pad = chunk(np.arange(8, dtype=np.float64), 4, 4)
    assert chunks.shape == (2, 4)
    assert pad == 0


def test_chunk_empty_signal():
    chunks, pad = chunk(np.zeros(0), 4, 4)
    assert chunks.shape == (0, 4)
    assert pad == 0


def test_chunk_validation():
    w = np.zeros(8)
    with pytest.raises(InvalidWindowError):
        chunk(w, 4, 5)
    with pytest.raises(InvalidWindowError):
        chunk(w, 0, 1)
    with pytest.raises(InvalidWindowError):
        chunk(w, 4, 0)


def test_reassemble_fixtures():
    out = reassemble(np.array([[1.0, 2.0], [3.0, 4.0]]), 0)
    assert np.array_equal(out, [1, 2, 3, 4])
    out = reassemble(np.array([[1.0, 2.0], [3.0, 0.0]]), 1)
    assert np.array_equal(out, [1, 2, 3])


def test_chunk_reassemble_identity_50000():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 50000)
    chunks, pad = chunk(x, 16384, 16384)
    back = reassemble(chunks, pad)
    assert np.array_equal(back, x)


def test_reassemble_validation():
    with pytest.raises(InvalidWindowError):
        reassemble(np.zeros(8), 0)
    with pytest.raises(InvalidWindowError):
        reassemble(np.zeros((2, 4)), -1)
    with pytest.raises(InvalidWindowError):
        reassemble(np.zeros((2, 4)), 9)


def test_array_forms_return_float64_for_float32_input():
    x = np.random.default_rng(13).uniform(-1, 1, 1000)
    x32 = x.astype(np.float32)
    wide = x32.astype(np.float64)
    for f in (preemphasis, deemphasis):
        out = f(x32)
        assert out.dtype == np.float64
        assert np.array_equal(out, f(wide))
    chunks, pad = chunk(x32, 256, 256)
    assert chunks.dtype == np.float64
    assert np.array_equal(chunks, chunk(wide, 256, 256)[0])
    assert chunk(np.zeros(0, np.float32), 4, 4)[0].dtype == np.float64
    back = reassemble(chunks.astype(np.float32), pad)
    assert back.dtype == np.float64
    assert np.array_equal(back, wide)
