"""Single command-line entry point for the whole pipeline.

Subcommands: synth-data, train, enhance, enhance-wiener, eval, gradcheck,
shapes, mos. Every flag can also come from a key=value config file
(--config), where keys are scoped by subcommand, e.g. train.lambda_l1=50.
Precedence: command-line flag > config file > built-in default. Every run
prints its fully-resolved configuration. Exit codes: 0 success, 1 usage
error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .audio_io import read_wav, write_wav
from .dataset import (
    ManifestEntry,
    NoiseKind,
    build_pairs,
    iter_utterances,
    load_manifest,
    synth_clean,
    write_manifest,
)
from .errors import ConfigError, SeganError
from .gradcheck import check_all_ops
from .metrics import aggregate_mos, llr, load_ratings, metric_means, ssnr, write_report
from .model import GeneratorConfig, shape_ledger
from .trainer import Z_MODES, TrainConfig, enhance_file, train
from .wiener import enhance_wiener


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _list_of(convert):
    """A converter for comma-separated values; blank items are skipped."""
    return lambda text: tuple(convert(p) for p in text.split(",") if p.strip())


_int_list, _float_list, _str_list = _list_of(_int), _list_of(_float), _list_of(str.strip)


@dataclass(frozen=True)
class Flag:
    name: str
    convert: object
    default: object = None
    help: str = ""
    required: bool = False
    choices: tuple = ()


def _library_defaults(source) -> dict:
    """Field defaults of a dataclass, or parameter defaults of a function."""
    if is_dataclass(source):
        return {f.name: f.default for f in fields(source)}
    return {name: p.default for name, p in inspect.signature(source).parameters.items()
            if p.default is not inspect.Parameter.empty}


def _flags(sources, flags: list[Flag]) -> list[Flag]:
    """A flag named after a field or parameter of the library code in
    `sources` takes its default from there; the others carry their own."""
    library = {k: d for source in sources for k, d in _library_defaults(source).items()}
    return [replace(f, default=library[f.name]) if f.name in library else f for f in flags]


def _library_args(source, values: dict) -> dict:
    """The resolved flags that feed the fields or defaulted parameters of `source`."""
    return {name: values[name] for name in _library_defaults(source)}


_MODEL_FLAGS = [
    Flag("window", _int, help="analysis window in samples"),
    Flag("filter_width", _int, help="conv filter width (odd)"),
    Flag("stride", _int, help="conv stride"),
    Flag("enc_channels", _int_list, help="comma list of encoder channels"),
    Flag("z_channels", _int, help="latent channels at the bottleneck"),
]

SUBCOMMANDS: dict[str, list[Flag]] = {
    "synth-data": _flags([synth_clean], [
        Flag("out", str, required=True, help="output corpus directory"),
        Flag("n_utterances", _int, 12, "number of clean utterances"),
        Flag("duration_s", _float, help="seconds per utterance"),
        Flag("seed", _int, help="corpus seed"),
        Flag("rate", _int, help="sample rate"),
        Flag("kinds", _str_list, tuple(k.value for k in NoiseKind), "noise kinds to cycle through"),
        Flag("snrs", _float_list, (0.0, 5.0, 10.0, 15.0), "SNR grid in dB"),
        Flag("test_fraction", _float, 0.25, "fraction of utterances held out"),
    ]),
    "train": _flags([GeneratorConfig, TrainConfig], [
        Flag("data", str, required=True, help="manifest path"),
        Flag("out", str, required=True, help="run output directory"),
        *_MODEL_FLAGS,
        Flag("hop", _int, 0, "pair-extraction hop (0 = window/2)"),
        Flag("epochs", _int, help="training epochs"),
        Flag("lr", _float, help="RMSprop learning rate"),
        Flag("batch_size", _int, help="examples per step"),
        Flag("lambda_l1", _float, help="weight of the L1 term"),
        Flag("seed", _int, help="training seed"),
        Flag("checkpoint_every", _int, help="steps between checkpoints (0 = only final)"),
        Flag("adversarial", _bool, help="false = plain L1 regression"),
        Flag("accum_steps", _int, help="micro-batches summed per step"),
    ]),
    "enhance": _flags([enhance_file], [
        Flag("checkpoint", str, required=True, help="trained model file"),
        Flag("in", str, required=True, help="input WAV (16 or 48 kHz)"),
        Flag("out", str, required=True, help="output WAV path"),
        Flag("z_mode", str, help="latent mode", choices=Z_MODES),
        Flag("z_seed", _int, help="latent seed for z_mode=seeded"),
    ]),
    "enhance-wiener": _flags([enhance_wiener], [
        Flag("in", str, required=True, help="input WAV (16 kHz)"),
        Flag("out", str, required=True, help="output WAV path"),
        Flag("alpha", _float, help="decision-directed smoothing"),
        Flag("noise_frames", _int, help="leading noise-only frames"),
        Flag("gain_floor_db", _float, help="minimum gain in dB"),
        Flag("frame", _int, help="STFT frame length"),
        Flag("hop", _int, help="STFT hop"),
    ]),
    "eval": [
        Flag("clean", _str_list, required=True, help="comma list of clean WAVs"),
        Flag("test", _str_list, required=True, help="comma list of test WAVs"),
        Flag("metric", str, "ssnr", "which metric", choices=("ssnr", "llr", "all")),
        Flag("report", str, "", "optional CSV report path"),
    ],
    "gradcheck": _flags([check_all_ops], [
        Flag("eps", _float, help="finite-difference step"),
        Flag("tol", _float, 1e-4, "max relative error allowed"),
        Flag("seed", _int, help="case seed"),
    ]),
    "shapes": _flags([GeneratorConfig], _MODEL_FLAGS),
    "mos": [
        Flag("ratings", str, required=True, help="ratings CSV path"),
    ],
}

# the full-scale dimension ledger the default config must reproduce
FULL_SCALE_LEDGER = [
    ("input", 16384, 1), ("enc1", 8192, 16), ("enc2", 4096, 32),
    ("enc3", 2048, 32), ("enc4", 1024, 64), ("enc5", 512, 64),
    ("enc6", 256, 128), ("enc7", 128, 128), ("enc8", 64, 256),
    ("enc9", 32, 256), ("enc10", 16, 512), ("enc11", 8, 1024),
    ("bottleneck+z", 8, 2048),
]


def parse_config_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_flags(sub: str, ns: argparse.Namespace) -> dict:
    """Merge config-file values under this subcommand's scope with explicit
    command-line flags, convert, and fill defaults. Unknown keys are
    rejected.
    """
    table = SUBCOMMANDS[sub]
    by_name = {f.name: f for f in table}
    raw: dict[str, str] = {}
    if getattr(ns, "config", None):
        for key, value in parse_config_file(ns.config).items():
            if "." not in key:
                raise ConfigError(f"config key {key!r} missing a subcommand scope")
            scope, name = key.split(".", 1)
            if scope not in SUBCOMMANDS:
                raise ConfigError(f"config key {key!r} names unknown subcommand {scope!r}")
            if scope != sub:
                continue
            if name not in by_name:
                raise ConfigError(f"config key {key!r} is not a flag of {sub!r}")
            raw[name] = value
    for f in table:
        cli_val = getattr(ns, f.name, None)
        if cli_val is not None:
            raw[f.name] = cli_val
    resolved = {}
    for f in table:
        if f.name in raw:
            value = f.convert(raw[f.name])
            if f.choices and value not in f.choices:
                raise ConfigError(f"{sub}.{f.name} must be one of {f.choices}, got {value!r}")
        elif f.required:
            raise _UsageError(f"{sub}: missing required flag --{f.name.replace('_', '-')}")
        else:
            value = f.default
        resolved[f.name] = value
    return resolved


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ",".join(str(x) for x in v)
    return str(v)


def _resolved_lines(values: dict) -> list[str]:
    """The resolved configuration as key=value lines, for stdout and run_config.txt."""
    return [f"{k}={_fmt_value(v)}" for k, v in values.items()]


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_synth_data(v: dict) -> int:
    n = v["n_utterances"]
    if n < 1:
        raise ConfigError("n_utterances must be >= 1")
    kinds, snrs = v["kinds"], v["snrs"]
    if v["rate"] < 1:
        raise ConfigError(f"synth-data.rate must be positive, got {v['rate']}")
    if v["seed"] < 0:
        raise ConfigError(f"synth-data.seed must be >= 0, got {v['seed']}")
    if not v["duration_s"] > 0:
        raise ConfigError(f"synth-data.duration_s must be positive, got {v['duration_s']}")
    for name in ("kinds", "snrs"):
        if not v[name]:
            raise ConfigError(f"synth-data.{name} must name at least one value")
    if not np.all(np.isfinite(snrs)):
        raise ConfigError(f"synth-data.snrs must be finite, got {_fmt_value(snrs)}")
    try:
        for kind in kinds:
            NoiseKind(kind)
    except ValueError as exc:
        raise ConfigError(f"synth-data.kinds: {exc}") from exc
    if not 0.0 <= v["test_fraction"] <= 1.0:
        raise ConfigError(f"synth-data.test_fraction must lie in [0, 1], got {v['test_fraction']}")
    out = Path(v["out"])
    out.mkdir(parents=True, exist_ok=True)
    n_test = round(n * v["test_fraction"]) if n > 1 else 0
    entries = []
    for i in range(n):
        wf = synth_clean(seed=v["seed"] * 7919 + i,
                         duration_s=v["duration_s"], rate=v["rate"])
        name = f"clean_{i:03d}.wav"
        write_wav(wf, out / name)
        kind = kinds[i % len(kinds)]
        snr = snrs[(i // len(kinds)) % len(snrs)]
        split = "test" if i >= n - n_test else "train"
        entries.append(ManifestEntry(name, f"SYNTH:{kind}", float(snr), split))
    write_manifest(out / "manifest.tsv", entries)
    print(f"wrote {n} utterances and manifest.tsv to {out}")
    return 0


def cmd_train(v: dict) -> int:
    mcfg = GeneratorConfig(**_library_args(GeneratorConfig, v))
    tcfg = TrainConfig(**_library_args(TrainConfig, v))
    if not 0 <= v["hop"] <= mcfg.window:
        raise ConfigError(f"train.hop must lie in [0, {mcfg.window}] (0 means window/2), "
                          f"got {v['hop']}")
    hop = v["hop"] or mcfg.window // 2
    entries = load_manifest(v["data"])
    corpus = build_pairs(iter_utterances(entries, "train", seed=tcfg.seed),
                         window=mcfg.window, hop=hop)
    print(f"corpus: {corpus.utterances} utterances, {len(corpus)} windows "
          f"(window {corpus.window}, hop {corpus.hop}), {corpus.nbytes / 2**20:.2f} MB")
    out = Path(v["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.txt").write_text("\n".join(_resolved_lines(v)) + "\n")
    result = train(mcfg, tcfg, corpus, out)
    last = result.reports[-1]
    print(f"trained {len(result.reports)} steps over {len(corpus)} pairs")
    print(f"final losses: d_real={last.d_real:.6f} d_fake={last.d_fake:.6f} "
          f"g_adv={last.g_adv:.6f} g_l1={last.g_l1:.6f}")
    print(f"checkpoint {result.final_checkpoint}")
    print(f"loss log {result.loss_log}")
    return 0


def cmd_enhance(v: dict) -> int:
    enhance_file(v["checkpoint"], v["in"], v["out"], **_library_args(enhance_file, v))
    print(f"enhanced {v['in']} -> {v['out']}")
    return 0


def cmd_enhance_wiener(v: dict) -> int:
    out = enhance_wiener(read_wav(v["in"]), **_library_args(enhance_wiener, v))
    write_wav(out, v["out"])
    print(f"enhanced {v['in']} -> {v['out']}")
    return 0


def cmd_eval(v: dict) -> int:
    cleans, tests = v["clean"], v["test"]
    if not cleans or len(cleans) != len(tests):
        raise _UsageError(f"eval: got {len(cleans)} clean and {len(tests)} test files")
    metrics = ("ssnr", "llr") if v["metric"] == "all" else (v["metric"],)
    rows = []
    for cpath, tpath in zip(cleans, tests):
        cw, tw = read_wav(cpath), read_wav(tpath)
        for m in metrics:
            value = ssnr(cw, tw) if m == "ssnr" else llr(cw, tw)
            rows.append((tpath, m, value))
    if len(rows) == 1:
        print(rows[0][2])
    else:
        for name, m, value in rows:
            print(f"{name}\t{m}\t{value}")
        for m, mean in metric_means(rows).items():
            print(f"AGGREGATE\t{m}\t{mean}")
    if v["report"]:
        write_report(v["report"], rows)
        print(f"report written to {v['report']}")
    return 0


def cmd_gradcheck(v: dict) -> int:
    if not 0 < v["tol"] < np.inf:
        raise ConfigError(f"gradcheck.tol must be positive and finite, got {v['tol']}")
    results = check_all_ops(**_library_args(check_all_ops, v))
    failed = [name for name, err in results.items() if err >= v["tol"]]
    for name, err in results.items():
        print(f"{name:<22} {err:.3e}  {'FAIL' if name in failed else 'ok'}")
    if failed:
        print(f"{len(failed)} op(s) exceeded tolerance {v['tol']}: {', '.join(failed)}")
        return 2
    print(f"all {len(results)} ops within {v['tol']}")
    return 0


def cmd_shapes(v: dict) -> int:
    ledger = shape_ledger(GeneratorConfig(**_library_args(GeneratorConfig, v)))
    for label, length, ch in ledger:
        print(f"{label:<14}{length}x{ch}")
    head = ledger[:len(FULL_SCALE_LEDGER)]
    if head == FULL_SCALE_LEDGER:
        print("full-scale reference ledger: match")
    else:
        print("full-scale reference ledger: differs")
        for got, want in zip(head, FULL_SCALE_LEDGER):
            if got != want:
                print(f"  {want[0]}: expected {want[1]}x{want[2]}, got {got[1]}x{got[2]}")
    return 0


def cmd_mos(v: dict) -> int:
    summary = aggregate_mos(load_ratings(v["ratings"]))
    for system, value in summary.mos.items():
        print(f"MOS {system} {value:.4f}")
    for (a, b), value in summary.cmos.items():
        print(f"CMOS {a} vs {b} {value:+.4f}")
    for (a, b), fracs in summary.preference.items():
        print(f"preference {a} vs {b}: {a} {fracs[a]:.4f}, {b} {fracs[b]:.4f}, "
              f"none {fracs['none']:.4f}")
    return 0


_HANDLERS = {
    "synth-data": cmd_synth_data,
    "train": cmd_train,
    "enhance": cmd_enhance,
    "enhance-wiener": cmd_enhance_wiener,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "shapes": cmd_shapes,
    "mos": cmd_mos,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="segan", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, flags in SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=f"{name} options", prog=f"segan {name}")
        sp.add_argument("--config", default=None, help="key=value config file")
        for f in flags:
            sp.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                            default=None, metavar="V", help=f.help)
    return parser


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        try:
            ns = parser.parse_args(args)
        except SystemExit as exc:  # argparse --help
            return 0 if (exc.code or 0) == 0 else 1
        if ns.subcommand is None:
            parser.print_help()
            return 1
        values = resolve_flags(ns.subcommand, ns)
        for line in _resolved_lines(values):
            print(f"config {ns.subcommand}.{line}")
        return _HANDLERS[ns.subcommand](values)
    except (_UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SeganError, ValueError) as exc:
        # Library modules signal bad runtime data with ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
