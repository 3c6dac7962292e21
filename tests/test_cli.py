"""Command-line interface: flags, config files, exit codes, pipeline."""

import dataclasses
import inspect
import re

import numpy as np
import pytest

from segan import engine as eg
from segan.audio_io import read_wav, write_wav
from segan.cli import FULL_SCALE_LEDGER, SUBCOMMANDS, main, parse_config_file
from segan.dataset import load_manifest, synth_clean
from segan.gradcheck import check_all_ops
from segan.model import GeneratorConfig, build_generator, save_checkpoint
from segan.trainer import TrainConfig, enhance_file
from segan.wiener import enhance_wiener

from helpers import read_raw_pcm, resample_48k_to_16k, write_raw_wav


def _out_lines(capsys):
    return capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# Usage plumbing

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out
    assert main(["train", "--help"]) == 0


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag(capsys):
    assert main(["shapes", "--nope", "1"]) == 1


def test_missing_required_flag(capsys):
    assert main(["enhance"]) == 1
    assert "--checkpoint" in capsys.readouterr().err


def test_bad_flag_value(capsys):
    assert main(["shapes", "--window", "lots"]) == 1
    assert "expected an integer" in capsys.readouterr().err


def test_bad_choice_value(tmp_path, capsys):
    assert main(["enhance", "--checkpoint", "x", "--in", "y", "--out", "z",
                 "--z-mode", "random"]) == 1
    assert "must be one of" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# shapes

def test_shapes_matches_reference(capsys):
    assert main(["shapes"]) == 0
    lines = _out_lines(capsys)
    assert f"{'input':<14}16384x1" in lines
    assert f"{'enc11':<14}8x1024" in lines
    assert f"{'bottleneck+z':<14}8x2048" in lines
    assert f"{'dec1':<14}16384x1" in lines
    assert lines[-1] == "full-scale reference ledger: match"


def test_shapes_reports_divergence(capsys):
    assert main(["shapes", "--window", "8192"]) == 0
    out = capsys.readouterr().out
    assert "full-scale reference ledger: differs" in out


def test_shapes_prints_resolved_config(capsys):
    assert main(["shapes", "--z-channels", "512"]) == 0
    out = capsys.readouterr().out
    assert "config shapes.z_channels=512" in out
    assert "bottleneck+z" in out


def test_every_run_names_its_scatter_path(capsys):
    assert main(["shapes"]) == 0
    want = "numpy-fold" if eg._BLAS is None else f"blas-accumulate ({eg._BLAS[0]})"
    assert f"config engine.scatter={want}" in capsys.readouterr().out.splitlines()


# the library code each subcommand's flags feed
_FLAG_SOURCES = {
    "synth-data": [synth_clean],
    "train": [GeneratorConfig, TrainConfig],
    "enhance": [enhance_file],
    "enhance-wiener": [],
    "eval": [],
    "gradcheck": [check_all_ops],
    "shapes": [GeneratorConfig],
    "mos": [],
}
# optional flags with no library counterpart
_CLI_ONLY = {("synth-data", "n_utterances"), ("train", "hop"), ("eval", "metric"),
             ("eval", "report"), ("gradcheck", "tol")}


def _library_defaults(source) -> dict:
    if dataclasses.is_dataclass(source):
        return {f.name: f.default for f in dataclasses.fields(source)}
    return {name: p.default for name, p in inspect.signature(source).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_flag_defaults_match_library_defaults():
    assert set(_FLAG_SOURCES) == set(SUBCOMMANDS)
    checked, drift = 0, []
    for sub, flags in SUBCOMMANDS.items():
        library = {}
        for source in _FLAG_SOURCES[sub]:
            library.update(_library_defaults(source))
        for f in flags:
            if f.required:
                continue
            if f.name not in library:
                assert (sub, f.name) in _CLI_ONLY, f"{sub}.{f.name} feeds no library default"
                continue
            checked += 1
            if f.default != library[f.name]:
                drift.append(f"{sub}.{f.name}: flag {f.default!r}, library {library[f.name]!r}")
    assert drift == []
    assert checked == 24


# every subcommand's flags in table order; "*" marks a required flag
_SURFACE = {
    "synth-data": "out* n_utterances duration_s seed",
    "train": "data* out* window filter_width stride enc_channels z_channels hop epochs lr "
             "batch_size lambda_l1 seed checkpoint_every adversarial accum_steps",
    "enhance": "checkpoint* in* out* z_mode z_seed",
    "enhance-wiener": "in* out*",
    "eval": "clean* test* metric report",
    "gradcheck": "eps tol seed",
    "shapes": "window filter_width stride enc_channels z_channels",
    "mos": "ratings*",
}


def test_flag_table_is_pinned():
    got = {sub: " ".join(f.name + "*" * f.required for f in flags)
           for sub, flags in SUBCOMMANDS.items()}
    assert got == _SURFACE


def test_full_scale_reference_ledger_contents():
    assert FULL_SCALE_LEDGER[0] == ("input", 16384, 1)
    assert FULL_SCALE_LEDGER[-1] == ("bottleneck+z", 8, 2048)
    assert len(FULL_SCALE_LEDGER) == 13


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_passes_at_default_tolerance(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "within" in out


def test_gradcheck_fails_at_impossible_tolerance(capsys):
    assert main(["gradcheck", "--tol", "1e-12"]) == 2
    assert "exceeded tolerance" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# config files

def test_config_precedence_cli_over_file_over_default(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shapes.window=8192\n")
    assert main(["shapes", "--config", str(cfg)]) == 0
    assert "config shapes.window=8192" in capsys.readouterr().out
    assert main(["shapes", "--config", str(cfg), "--window", "4096"]) == 0
    assert "config shapes.window=4096" in capsys.readouterr().out
    assert main(["shapes"]) == 0
    assert "config shapes.window=16384" in capsys.readouterr().out


def test_config_other_scopes_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.window=512\n")
    assert main(["shapes", "--config", str(cfg)]) == 0
    assert "config shapes.window=16384" in capsys.readouterr().out


@pytest.mark.parametrize("text,frag", [
    ("shapes.bogus=1", "not a flag"),
    ("window=1", "missing a subcommand scope"),
    ("nosuch.window=1", "unknown subcommand"),
    ("shapes.window", "expected key=value"),
])
def test_config_rejects_bad_keys(tmp_path, capsys, text, frag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    assert main(["shapes", "--config", str(cfg)]) == 1
    assert frag in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert main(["shapes", "--config", "/nonexistent.cfg"]) == 1


def test_parse_config_file_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nshapes.window = 8192\n")
    assert parse_config_file(cfg) == {"shapes.window": "8192"}


# ---------------------------------------------------------------------------
# eval

def _tone_wav(path, n=2048, seed=0):
    rng = np.random.default_rng(seed)
    write_wav(rng.uniform(-0.5, 0.5, n), path)


def test_eval_single_pair_prints_bare_value(tmp_path, capsys):
    wav = tmp_path / "c.wav"
    _tone_wav(wav)
    assert main(["eval", "--clean", str(wav), "--test", str(wav)]) == 0
    assert _out_lines(capsys)[-1] == "35.0"


def test_eval_multi_pair_prints_table_and_report(tmp_path, capsys):
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    _tone_wav(a, seed=1)
    _tone_wav(b, seed=2)
    report = tmp_path / "report.csv"
    code = main(["eval", "--clean", f"{a},{b}", "--test", f"{a},{b}",
                 "--metric", "all", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"{a}\tssnr\t35.0" in out
    assert "AGGREGATE\tssnr\t35.0" in out
    assert "AGGREGATE\tllr\t" in out
    text = report.read_text()
    assert text.startswith("file,metric,value")
    assert "AGGREGATE,ssnr,35.0" in text


def test_eval_mismatched_counts(tmp_path, capsys):
    wav = tmp_path / "c.wav"
    _tone_wav(wav)
    assert main(["eval", "--clean", f"{wav},{wav}", "--test", str(wav)]) == 1


@pytest.mark.parametrize("listed", ["", ",", " , "])
def test_eval_empty_lists_are_a_usage_error(tmp_path, capsys, listed):
    report = tmp_path / "report.csv"
    assert main(["eval", "--clean", listed, "--test", listed, "--report", str(report)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not report.exists()


def test_eval_missing_file_is_runtime_error(tmp_path, capsys):
    assert main(["eval", "--clean", str(tmp_path / "no.wav"),
                 "--test", str(tmp_path / "no.wav")]) == 2


# ---------------------------------------------------------------------------
# runtime errors

def test_enhance_missing_checkpoint(tmp_path, capsys):
    wav = tmp_path / "c.wav"
    _tone_wav(wav)
    assert main(["enhance", "--checkpoint", str(tmp_path / "no.sgn"),
                 "--in", str(wav), "--out", str(tmp_path / "o.wav")]) == 2


def test_enhance_rejects_non_wav(tmp_path, capsys):
    ckpt = tmp_path / "g.sgn"
    save_checkpoint(ckpt, build_generator(
        GeneratorConfig(window=64, filter_width=5, enc_channels=(2, 3),
                        z_channels=4), seed=0))
    bad = tmp_path / "not.wav"
    bad.write_text("just text")
    assert main(["enhance", "--checkpoint", str(ckpt), "--in", str(bad),
                 "--out", str(tmp_path / "o.wav")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth-data and mos

def test_synth_data_writes_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth-data", "--out", str(out), "--n-utterances", "8",
                 "--duration-s", "0.2", "--seed", "3"]) == 0
    entries = load_manifest(out / "manifest.tsv")
    assert len(entries) == 8
    assert sum(e.split == "test" for e in entries) == 2
    kinds = [e.noise_ref for e in entries[:4]]
    assert kinds == ["SYNTH:white", "SYNTH:pink", "SYNTH:tonal_hum",
                     "SYNTH:modulated_burst"]
    for e in entries:
        w = read_wav(e.clean_path)
        assert len(w) == 3200


def test_mos_prints_summary(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    csv.write_text("listener,sentence,system,score\n"
                   "l1,s1,noisy,2\nl1,s1,wiener,3\nl1,s1,segan,4\n")
    assert main(["mos", "--ratings", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "MOS noisy 2.0000" in out
    assert "MOS segan 4.0000" in out
    assert "CMOS segan vs noisy +2.0000" in out
    assert "preference segan vs noisy: segan 1.0000" in out


def test_mos_bad_header(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    csv.write_text("a,b\n1,2\n")
    assert main(["mos", "--ratings", str(csv)]) == 2


@pytest.mark.parametrize("row", ["l1,s1,segan\n", "l1,s1,segan,four\n"])
def test_mos_bad_row(tmp_path, capsys, row):
    csv = tmp_path / "r.csv"
    csv.write_text("listener,sentence,system,score\nl1,s1,noisy,2\n" + row)
    assert main(["mos", "--ratings", str(csv)]) == 2
    assert f"error: {csv} line 3: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# end-to-end pipeline

def test_synth_train_enhance_eval_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth-data", "--out", str(corpus), "--n-utterances", "4",
                 "--duration-s", "0.064", "--seed", "1"]) == 0

    run = tmp_path / "run"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("train.lambda_l1=50\ntrain.checkpoint_every=0\n")
    code = main(["train", "--config", str(cfg),
                 "--data", str(corpus / "manifest.tsv"), "--out", str(run),
                 "--window", "256", "--filter-width", "31",
                 "--enc-channels", "8,16", "--z-channels", "16",
                 "--hop", "256", "--epochs", "2", "--batch-size", "4",
                 "--adversarial", "false", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "config train.lambda_l1=50.0" in out
    # 3 train utterances of 1024 samples, both sides float32, plus 12 offsets
    assert "corpus: 3 utterances, 12 windows (window 256, hop 256), 0.02 MB" in out
    assert "trained 6 steps over 12 pairs" in out
    assert (run / "ckpt_final.sgn").exists()
    assert (run / "losses.csv").exists()
    assert "lambda_l1=50.0" in (run / "run_config.txt").read_text()

    clean0 = corpus / "clean_000.wav"
    enhanced = tmp_path / "enhanced.wav"
    assert main(["enhance", "--checkpoint", str(run / "ckpt_final.sgn"),
                 "--in", str(clean0), "--out", str(enhanced),
                 "--z-mode", "zero"]) == 0
    assert len(read_wav(enhanced)) == 1024

    assert main(["eval", "--clean", str(clean0), "--test", str(enhanced),
                 "--metric", "ssnr"]) == 0
    value = float(_out_lines(capsys)[-1])
    assert np.isfinite(value)


def test_a_stopped_train_run_keeps_its_config_and_log(tmp_path, capsys, monkeypatch):
    import segan.trainer as trainer
    from segan.errors import NonFiniteLossError

    def stops(*a, **k):
        raise NonFiniteLossError("injected")

    corpus, run = tmp_path / "corpus", tmp_path / "run"
    assert main(["synth-data", "--out", str(corpus), "--n-utterances", "2",
                 "--duration-s", "0.064", "--seed", "1"]) == 0
    monkeypatch.setattr(trainer, "train_step", stops)
    code = main(["train", "--data", str(corpus / "manifest.tsv"), "--out", str(run),
                 "--window", "256", "--enc-channels", "8,16", "--z-channels", "16",
                 "--adversarial", "false", "--lambda-l1", "50"])
    assert code == 2
    assert "lambda_l1=50.0" in (run / "run_config.txt").read_text().splitlines()
    assert (run / "losses.csv").read_text() == "step,d_real,d_fake,g_adv,g_l1\n"


def test_enhance_wiener_cli(tmp_path, capsys):
    src = tmp_path / "noisy.wav"
    write_wav(synth_clean(seed=5, duration_s=1.0), src)
    dst = tmp_path / "out.wav"
    assert main(["enhance-wiener", "--in", str(src), "--out", str(dst)]) == 0
    assert len(read_wav(dst)) == 16000


def test_enhance_wiener_too_short_is_runtime_error(tmp_path, capsys):
    src = tmp_path / "tiny.wav"
    write_wav(np.zeros(1024), src)
    assert main(["enhance-wiener", "--in", str(src),
                 "--out", str(tmp_path / "o.wav")]) == 2


# ---------------------------------------------------------------------------
# sample rates: every WAV is read at 16 kHz, a 48 kHz one decimated on the way in

_TINY = GeneratorConfig(window=64, filter_width=5, enc_channels=(2, 3), z_channels=4)


def _pcm48(path, n, seed=0):
    pcm = np.random.default_rng(seed).integers(-16000, 16000, n)
    write_raw_wav(path, pcm, rate=48000)
    return pcm


def test_synth_data_has_no_rate_flag(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth-data", "--out", str(out), "--rate", "16000"]) == 1
    assert "--rate" in capsys.readouterr().err
    assert not out.exists()


def test_train_on_48k_files_uses_their_16k_samples(tmp_path, capsys):
    # 3000 samples at 48 kHz are 1000 at 16 kHz, 4 windows of 256; taken
    # as 16 kHz samples they would make 12
    for i in range(2):
        _pcm48(tmp_path / f"c{i}.wav", 3000, seed=i)
    (tmp_path / "m.tsv").write_text("c0.wav\tSYNTH:white\t5\ttrain\n"
                                    "c1.wav\tSYNTH:pink\t0\ttrain\n")
    assert main(["train", "--data", str(tmp_path / "m.tsv"), "--out", str(tmp_path / "run"),
                 "--window", "256", "--enc-channels", "8,16", "--z-channels", "16",
                 "--hop", "256", "--epochs", "1", "--batch-size", "4",
                 "--adversarial", "false"]) == 0
    assert "corpus: 2 utterances, 8 windows (window 256, hop 256)" in capsys.readouterr().out


def test_enhance_wiener_decimates_48k(tmp_path, capsys):
    src, dst, want = tmp_path / "in48.wav", tmp_path / "out.wav", tmp_path / "want.wav"
    pcm = _pcm48(src, 48001)
    assert main(["enhance-wiener", "--in", str(src), "--out", str(dst)]) == 0
    out, rate = read_raw_pcm(dst)
    assert rate == 16000 and out.size == 16001
    write_wav(enhance_wiener(resample_48k_to_16k(pcm / 32768.0)), want)
    assert dst.read_bytes() == want.read_bytes()


def test_eval_scores_a_48k_clean_file_against_its_enhanced_output(tmp_path, capsys):
    clean, enhanced, ckpt = tmp_path / "clean48.wav", tmp_path / "enh.wav", tmp_path / "g.sgn"
    _pcm48(clean, 48000)
    save_checkpoint(ckpt, build_generator(_TINY, seed=0))
    assert main(["enhance", "--checkpoint", str(ckpt), "--in", str(clean),
                 "--out", str(enhanced)]) == 0
    assert main(["eval", "--clean", str(clean), "--test", str(enhanced),
                 "--metric", "all"]) == 0
    rows = [line.split("\t") for line in _out_lines(capsys) if line.startswith(str(enhanced))]
    assert [m for _, m, _ in rows] == ["ssnr", "llr"]
    assert all(np.isfinite(float(v)) for _, _, v in rows)


def _reader_args(sub, tmp, wav):
    """Arguments that make `sub` read `wav` and write only under tmp / "out"."""
    if sub == "train":
        (tmp / "m.tsv").write_text(f"{wav.name}\tSYNTH:white\t5\ttrain\n")
        return ["--data", str(tmp / "m.tsv"), "--out", str(tmp / "out")]
    if sub == "enhance":
        save_checkpoint(tmp / "g.sgn", build_generator(_TINY, seed=0))
        return ["--checkpoint", str(tmp / "g.sgn"), "--in", str(wav), "--out", str(tmp / "out")]
    if sub == "enhance-wiener":
        return ["--in", str(wav), "--out", str(tmp / "out")]
    return ["--clean", str(wav), "--test", str(wav), "--report", str(tmp / "out")]


@pytest.mark.parametrize("rate", [8000, 22050])
@pytest.mark.parametrize("sub", ["train", "enhance", "enhance-wiener", "eval"])
def test_every_wav_reader_rejects_other_rates(tmp_path, capsys, sub, rate):
    wav = tmp_path / "in.wav"
    write_raw_wav(wav, np.random.default_rng(0).integers(-16000, 16000, rate), rate=rate)
    assert main([sub, *_reader_args(sub, tmp_path, wav)]) == 2
    assert f"error: {wav}: expected 16 or 48 kHz, got {rate}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# out-of-range values: a one-line message naming the flag, nothing written

_INPUTS = {
    "enhance-wiener": lambda tmp: ["--in", str(tmp / "noisy.wav"), "--out", str(tmp / "o.wav")],
    "gradcheck": lambda tmp: [],
    "synth-data": lambda tmp: ["--out", str(tmp / "corpus"), "--n-utterances", "2",
                               "--duration-s", "0.1"],
    "train": lambda tmp: ["--data", str(tmp / "manifest.tsv"), "--out", str(tmp / "run")],
    "enhance": lambda tmp: ["--checkpoint", str(tmp / "g.sgn"), "--in", str(tmp / "noisy.wav"),
                            "--out", str(tmp / "o.wav")],
}


@pytest.mark.parametrize("sub, flag, value", [
    ("train", "hop", "-5"),
    ("train", "hop", "20000"),
    ("gradcheck", "eps", "0"),
    ("gradcheck", "tol", "nan"),
    ("gradcheck", "tol", "-1"),
    ("synth-data", "duration_s", "0"),
    ("synth-data", "duration_s", "-1"),
    ("synth-data", "duration_s", "nan"),
])
def test_out_of_range_flag_is_rejected(tmp_path, capsys, sub, flag, value):
    write_wav(synth_clean(seed=5, duration_s=1.0), tmp_path / "noisy.wav")
    code = main([sub, *_INPUTS[sub](tmp_path), f"--{flag.replace('_', '-')}", value])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert re.search(rf"\b{flag}\b", err), err
    assert not (tmp_path / "o.wav").exists()
    assert not (tmp_path / "corpus").exists()


# settings fixed as constants: the flag and the config key are both refused,
# naming the setting, before anything is written
@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("sub, name, value", [
    ("enhance-wiener", "alpha", "0.9"),
    ("enhance-wiener", "noise_frames", "4"),
    ("enhance-wiener", "gain_floor_db", "-20"),
    ("enhance-wiener", "frame", "1024"),
    ("enhance-wiener", "hop", "128"),
    ("synth-data", "kinds", "white"),
    ("synth-data", "snrs", "5"),
    ("synth-data", "test_fraction", "0.5"),
])
def test_fixed_setting_is_refused(tmp_path, capsys, via, sub, name, value):
    write_wav(synth_clean(seed=5, duration_s=1.0), tmp_path / "noisy.wav")
    if via == "flag":
        flag = f"--{name.replace('_', '-')}"
        extra, want = [flag, value], f"unrecognized arguments: {flag} {value}"
    else:
        (tmp_path / "run.cfg").write_text(f"{sub}.{name}={value}\n")
        extra = ["--config", str(tmp_path / "run.cfg")]
        want = f"config key '{sub}.{name}' is not a flag of '{sub}'"
    code = main([sub, *_INPUTS[sub](tmp_path), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert want in err, err
    assert not (tmp_path / "o.wav").exists()
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("sub, flag, value", [
    ("train", "lr", "nan"),
    ("train", "lr", "inf"),
    ("train", "lambda_l1", "nan"),
    ("train", "lambda_l1", "inf"),
    ("train", "seed", "-1"),
    ("synth-data", "seed", "-1"),
    ("enhance", "z_seed", "-1"),
    ("gradcheck", "seed", "-1"),
])
def test_non_finite_rate_or_negative_seed_is_a_usage_error(tmp_path, capsys, sub, flag, value):
    # checked before the manifest, checkpoint or input WAV is opened
    code = main([sub, *_INPUTS[sub](tmp_path), f"--{flag.replace('_', '-')}", value])
    err = capsys.readouterr().err
    assert code == 1, err
    assert re.search(rf"\b{flag}\b", err), err
    for name in ("o.wav", "corpus", "run"):
        assert not (tmp_path / name).exists()
