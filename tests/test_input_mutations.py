"""Seeded byte mutations and truncations of every file type the CLI reads:
each case ends in exit 0, or in exit 1 or 2 with one stderr line naming the
file, and leaves nothing under --out."""

import shutil

import numpy as np

from segan.cli import main
from segan.model import GeneratorConfig, build_generator, save_checkpoint

from helpers import write_raw_wav

CASES = 100     # mutated copies per file type
_TINY = ["--window", "64", "--filter-width", "5", "--enc-channels", "2,3", "--z-channels", "4"]
RATINGS = "listener,sentence,system,score\n" + "".join(
    f"l{i},s{j},{system},{1 + (i + j + k) % 5}\n"
    for i in range(2) for j in range(2) for k, system in enumerate(("noisy", "wiener", "segan")))


def _mutants(data: bytes, seed: int, head: int):
    """CASES copies of data, each cut at one offset or with 1-4 bytes
    overwritten; half the overwrites fall in the first `head` bytes."""
    rng = np.random.default_rng(seed)
    for i in range(CASES):
        if i % 3 == 0:
            yield data[:int(rng.integers(len(data)))]
            continue
        out = bytearray(data)
        span = head if i % 2 else len(data)
        for at in rng.integers(span, size=int(rng.integers(1, 5))):
            out[at] = int(rng.integers(256))
        yield bytes(out)


def _inputs(tmp):
    """(name, file, its bytes, header bytes, argv, --out path or None) per file type."""
    wav = tmp / "c.wav"
    write_raw_wav(wav, np.random.default_rng(0).integers(-16000, 16000, 4000))
    save_checkpoint(tmp / "g.sgn", build_generator(GeneratorConfig(
        window=64, filter_width=5, enc_channels=(2, 3), z_channels=4), seed=0))
    (tmp / "m.tsv").write_text("# clean\tnoise\tsnr_db\tsplit\n"
                               "c.wav\tSYNTH:white\t5\ttrain\nc.wav\tSYNTH:pink\t0\ttrain\n")
    (tmp / "r.csv").write_text(RATINGS)
    (tmp / "c.cfg").write_text("# reduced generator\nshapes.window=1024\n"
                               "shapes.enc_channels=16,32,64,128\nshapes.z_channels=128\n")
    mutated = tmp / "mutated"      # beside the manifest's own clean file
    mutated.mkdir()
    shutil.copy(wav, mutated / "c.wav")
    return [
        ("wav", mutated / "in.wav", wav.read_bytes(), 44,
         ["enhance-wiener", "--in", str(mutated / "in.wav")], tmp / "out.wav"),
        ("manifest", mutated / "m.tsv", (tmp / "m.tsv").read_bytes(), 32,
         ["train", "--data", str(mutated / "m.tsv"), *_TINY, "--hop", "64", "--epochs", "1",
          "--batch-size", "8", "--adversarial", "false"], tmp / "run"),
        ("ratings", mutated / "r.csv", (tmp / "r.csv").read_bytes(), 32,
         ["mos", "--ratings", str(mutated / "r.csv")], None),
        ("checkpoint", mutated / "g.sgn", (tmp / "g.sgn").read_bytes(), 64,
         ["enhance", "--checkpoint", str(mutated / "g.sgn"), "--in", str(wav)], tmp / "out.wav"),
        ("config", mutated / "c.cfg", (tmp / "c.cfg").read_bytes(), 32,
         ["shapes", "--config", str(mutated / "c.cfg")], None),
    ]


def test_mutated_input_files_end_in_one_error_line(tmp_path, capsys):
    for seed, (kind, path, data, head, argv, out) in enumerate(_inputs(tmp_path)):
        refused = 0
        # the file as written first: it must be accepted
        for case, bad in enumerate([data, *_mutants(data, seed, head)]):
            path.write_bytes(bad)
            code = main([*argv, *(["--out", str(out)] if out else [])])
            err = capsys.readouterr().err.splitlines()
            where = (kind, case, len(bad))
            if code == 0:
                assert err == [], (where, err)
                if out is not None:
                    shutil.rmtree(out) if out.is_dir() else out.unlink()
            else:
                assert case > 0 and code in (1, 2), (where, err)
                assert len(err) == 1 and str(path) in err[0], (where, err)
                assert out is None or not out.exists(), where
                refused += 1
        assert refused >= CASES // 4, kind     # the mutations reach the parsers
