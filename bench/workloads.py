"""The three closed-loop workloads. One caller in one process runs `segan`
subcommands through `segan.cli.main`, each after the previous returns.

A workload runs in units (one `segan train` run; one pass over the input
files), so every unit does the same work; units repeat until the unit
boundary nearest to the measurement time. Each unit records what the end-to-end metrics
need; output checks count failed operations against attempted ones.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import inputs
import stats

TRAIN_WINDOW = 1024
TRAIN_BATCH = 16
TRAIN_ARGS = ["--window", str(TRAIN_WINDOW), "--enc-channels", "16,32,64,128",
              "--z-channels", "128", "--batch-size", str(TRAIN_BATCH), "--adversarial", "true",
              "--accum-steps", "1", "--epochs", "1", "--checkpoint-every", "0"]
TRAIN_STEPS = (inputs.TRAIN_UTTERANCES * math.ceil(inputs.TRAIN_DURATION_S * inputs.RATE
                                                   / (TRAIN_WINDOW // 2)) // TRAIN_BATCH)
L1_LAST_STEPS = 10
# Quality guards, checked on every unit. G learns: the mean g_l1 of the last
# L1_LAST_STEPS steps is below this share of the first L1_LAST_STEPS' mean
# (0.73-0.81 at the seed commit). The Wiener baseline helps: its mean SSNR
# gain over a pass is at least this many dB (7.1-8.3 dB at the seed commit).
L1_LEARN_RATIO = 0.9
MIN_WIENER_GAIN_DB = 3.0


def call_cli(argv: list[str]) -> tuple[int, float, float, str]:
    """Run one `segan` subcommand in-process; returns (exit code, start,
    end, captured stderr). An exception escaping the CLI counts as a
    failed run, with its traceback kept as the message."""
    from segan.cli import main
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    return code, t0, time.perf_counter(), err.getvalue()


def _first_start(spans, names, lo: int):
    for i in range(lo, len(spans)):
        if spans.name[i] in names:
            return spans.start[i]
    return None


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.record_many(int(ok), 1, message)

    def record_many(self, good: int, total: int, message: str) -> None:
        self.attempted += total
        self.failed += total - good
        if good < total and len(self.messages) < 20:
            self.messages.append(message)


class Workload:
    """One unit is the smallest repeat that does the workload's whole job;
    each op record carries its unit index, `wall_s` (its compute time),
    `seconds` (audio it covers) and `setup_s`. The quality figures of every
    unit must equal those of the first: same code, same seed."""

    name = ""
    unit_label = ""
    # units in every run, however slow the host: rtf takes the fastest of
    # this many repeats of each operation at least
    min_units = 1
    # (span name, call index) of the call run under tracemalloc when traced
    memory_probe = None

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.ops: list[dict] = []
        self.checks = Checks()
        self.units_run = 0
        self.first_quality = None

    def check_repeatable(self, quality: list[float], what: str) -> None:
        if self.first_quality is None:
            self.first_quality = quality
        else:
            self.checks.record(np.array_equal(quality, self.first_quality, equal_nan=True),
                               f"unit {self.units_run}: {what} differ from the first unit's")

    def take_ops(self) -> list[dict]:
        ops, self.ops = self.ops, []
        return ops

    def run_unit(self, tracer) -> None:
        self._run_unit(tracer)
        self.units_run += 1

    def memory_unit(self, tracer) -> None:
        """The work run once more under tracemalloc for the memory probe."""
        self.run_unit(tracer)

    def unit_time(self, ops) -> float:
        """Compute time per per-layer unit (step, window, audio second)."""
        return sum(op["wall_s"] for op in ops) / max(self.unit_count(ops), 1)

    def op_times(self, ops) -> dict:
        """Times of like operations (the same file, or the same step of a
        run), keyed so that traced and untraced runs can be paired."""
        out: dict = {}
        for op in ops:
            out.setdefault(op["file"], []).append(op["wall_s"])
        return out

    def overhead(self, ref_ops, ops) -> tuple[float, float]:
        """Tracing overhead as (ms per unit, percent): the median over
        paired operations of traced/untraced time, so the process's cold
        first operation does not count as overhead."""
        ref, traced = self.op_times(ref_ops), self.op_times(ops)
        ratio = stats.median([stats.median(traced[k]) / stats.median(ref[k]) for k in ref if k in traced])
        return 1e3 * (ratio - 1.0) * self.unit_time(ref_ops), 100.0 * (ratio - 1.0)

    def segments(self, ops) -> dict:
        """Compute times of like operations, keyed alike in every unit; the
        times of one unit sum to its compute time."""
        return self.op_times(ops)

    def end_to_end(self, ops) -> tuple[dict, dict, dict]:
        """(bounded metrics, named metrics as (value, unit, n[, extra]),
        facts). rtf is a unit's compute time per second of audio, each
        like operation taken at its fastest over the run's units: the
        host's speed swings in stretches of seconds, and the fastest repeat
        of a deterministic operation is the one those swings touch least.
        setup_s is the median over set-ups."""
        audio: dict[int, float] = {}
        for op in ops:
            audio[op["unit"]] = audio.get(op["unit"], 0.0) + op["seconds"]
        segments = self.segments(ops)
        unit_audio = max(audio.values(), default=0.0)
        rtf = sum(stats.best(v) for v in segments.values()) / unit_audio if unit_audio > 0 else math.nan
        setups = [op["setup_s"] for op in ops]
        named = {"setup_s": (stats.median(setups), "s", len(setups)),
                 "rtf": (rtf, "s/s", len(audio), {"operations": len(segments)})}
        named.update(self.named(ops))
        return {"setup_s": named["setup_s"][0], "rtf": named["rtf"][0]}, named, self.facts(ops)

    def named(self, ops) -> dict:
        return {}

    def facts(self, ops) -> dict:
        return {}


class TrainAdv(Workload):
    """`segan train` at the reduced acceptance config, adversarial, on a
    seeded on-disk corpus: manifest -> build_pairs -> train. One unit is
    one `segan train` run; its compute time runs from the first
    train_step to the end of train() (final checkpoint and loss log
    included), its set-up from the CLI call to the first train_step."""

    name = "train-adv"
    unit_label = "training step"
    min_units = 3
    memory_probe = ("trainer.train_step", 1)

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        inputs.make_train_corpus(work, seed)

    def _run_unit(self, tracer) -> None:
        out_dir = self.work / f"run{self.units_run}"
        spans = tracer.spans
        mark = len(spans)
        code, t0, t1, err = call_cli(["train", "--data", str(self.work / "manifest.tsv"),
                                      "--out", str(out_dir), "--seed", str(self.seed), *TRAIN_ARGS])
        steps = spans.where("trainer.train_step", mark)
        trains = spans.where("trainer.train", mark)
        result = spans.attr[trains[-1]] if trains else None
        if trains:
            spans.attr[trains[-1]] = None  # drop the model reference
        examples = sum(spans.attr[i] or 0 for i in steps)  # a failed step has no attr
        # the compute time cut at each step's start: step k and what follows
        # it until step k + 1 (the last piece runs to the end of train())
        cuts = [spans.start[i] for i in steps] + ([spans.end[trains[-1]]] if trains else [])
        op = {
            "unit": self.units_run,
            "step_s": [spans.duration(i) for i in steps],
            "segment_s": [b - a for a, b in zip(cuts, cuts[1:])],
            "examples": examples,
            "seconds": examples * TRAIN_WINDOW / inputs.RATE,
            "setup_s": spans.start[steps[0]] - t0 if steps else math.nan,
            "wall_s": spans.end[trains[-1]] - spans.start[steps[0]] if steps and trains else math.nan,
        }
        with tracer.suspended():
            self._check_run(op, code, err, out_dir, result)
        self.ops.append(op)

    def _check_run(self, op, code, err, out_dir: Path, result) -> None:
        """Every step's losses are finite, G learns, the losses repeat
        exactly, and the final checkpoint reloads to the parameters the run
        ended with."""
        from segan.model import load_checkpoint
        losses = _read_losses(out_dir / "losses.csv")
        finite = sum(all(math.isfinite(v) for v in row[1:]) for row in losses)
        good = min(finite, TRAIN_STEPS) if code == 0 else 0
        self.checks.record_many(good, TRAIN_STEPS, f"train run exit {code}: {finite}/{TRAIN_STEPS} "
                                                   f"steps with finite losses {err[-300:]}")
        self.checks.record(result is not None and _reloads_equal(load_checkpoint, result),
                           f"{out_dir}: final checkpoint does not reload to the trained parameters")
        g_l1 = [row[4] for row in losses]
        first = last = math.nan
        if len(g_l1) >= 2 * L1_LAST_STEPS:
            first, last = float(np.mean(g_l1[:L1_LAST_STEPS])), float(np.mean(g_l1[-L1_LAST_STEPS:]))
        self.checks.record(last < L1_LEARN_RATIO * first,
                           f"{out_dir}: g_l1 fell from {first:.6g} (first {L1_LAST_STEPS} steps) to "
                           f"only {last:.6g} (last {L1_LAST_STEPS}); want below {L1_LEARN_RATIO} times")
        self.check_repeatable(losses, "the losses")
        op["g_l1_last"] = last
        shutil.rmtree(out_dir, ignore_errors=True)

    def unit_count(self, ops) -> float:
        return sum(len(op["step_s"]) for op in ops)

    def op_times(self, ops) -> dict:
        out: dict = {}
        for op in ops:
            for k, s in enumerate(op["step_s"]):
                out.setdefault(k, []).append(s)
        return out

    def segments(self, ops) -> dict:
        out: dict = {}
        for op in ops:
            for k, s in enumerate(op["segment_s"]):
                out.setdefault(k, []).append(s)
        return out

    def named(self, ops) -> dict:
        steps_ms = [1e3 * s for op in ops for s in op["step_s"]]
        tail = stats.tail(steps_ms)
        examples = sum(op["examples"] for op in ops)
        return {
            "step_ms_p50": (stats.median(steps_ms), "ms", len(steps_ms)),
            "step_ms_tail": (tail[1] if tail else math.nan, "ms", len(steps_ms),
                             {"percentile": tail[0] if tail else None,
                              "beyond": tail[2] if tail else 0}),
            "train_examples_per_s": (examples / sum(op["wall_s"] for op in ops), "examples/s", len(ops)),
            "train_g_l1_last": (ops[0]["g_l1_last"], "1", L1_LAST_STEPS),
        }


class FileWorkload(Workload):
    """A unit is one pass over the seeded input files."""

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.files = json.loads((work / "files.json").read_text())

    def named(self, ops) -> dict:
        walls_ms = [1e3 * op["wall_s"] for op in ops]
        return {"file_ms_p50": (stats.median(walls_ms), "ms", len(walls_ms))}


class EnhanceLong(FileWorkload):
    """`segan enhance` (z_mode=seeded) over seeded noisy files with a
    full-scale G+D checkpoint made during set-up. A file's compute time is
    its whole `segan enhance` call; its set-up is load_checkpoint (or, if
    enhance stops calling it, the time until the first g_forward)."""

    name = "enhance-long"
    unit_label = "generator window"
    memory_probe = ("trainer.enhance_file", 0)

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        records = inputs.make_noisy_files(work, seed, "enhance-long", inputs.ENHANCE_FILES)
        (work / "files.json").write_text(json.dumps(records))
        inputs.make_full_scale_checkpoint(work / "model.sgn", seed)

    def memory_unit(self, tracer) -> None:
        """Only the longest file: the one whose activations set the peak."""
        self._run_files(tracer, self.files[-1:])

    def _run_unit(self, tracer) -> None:
        self._run_files(tracer, self.files)

    def _run_files(self, tracer, files) -> None:
        spans = tracer.spans
        for i, rec in enumerate(files):
            out = self.work / f"enhanced_{i:02d}.wav"
            mark = len(spans)
            code, t0, t1, err = call_cli(["enhance", "--checkpoint", str(self.work / "model.sgn"),
                                          "--in", rec["noisy"], "--out", str(out)])
            load_s = sum(spans.duration(j) for j in spans.where("model.load_checkpoint", mark))
            setup = load_s or (_first_start(spans, ("model.g_forward",), mark) or t1) - t0
            windows = sum(spans.attr[j] or 0 for j in spans.where("model.g_forward", mark))
            self.ops.append({"unit": self.units_run, "file": rec["noisy"], "wall_s": t1 - t0,
                             "load_s": load_s, "setup_s": setup, "seconds": rec["seconds"],
                             "windows": windows})
            self._check_output(code, err, out, rec)

    def _check_output(self, code, err, out: Path, rec) -> None:
        """16 kHz output of the input's duration, finite, not all zero."""
        if code != 0:
            self.checks.record(False, f"enhance {rec['noisy']} exit {code}: {err[-300:]}")
            return
        samples, rate = inputs.read_wav(out)
        want = math.ceil(rec["samples"] / 3) if rec["rate"] == 48000 else rec["samples"]
        nonzero = bool(np.any(samples != 0))
        ok = rate == 16000 and samples.size == want and bool(np.all(np.isfinite(samples))) and nonzero
        self.checks.record(ok, f"{out}: rate {rate}, {samples.size} samples (want {want}), "
                               f"all-zero={not nonzero}")
        out.unlink()

    def segments(self, ops) -> dict:
        """Each call split into its checkpoint load and the rest. Every
        load reads the same checkpoint, so each call's load counts as the
        fastest load of the run: a pass is too long to repeat in a run, but
        it repeats the load once per file."""
        loads = [op["load_s"] for op in ops]
        out: dict = {}
        for op in ops:
            out.setdefault(op["file"], []).append(op["wall_s"] - op["load_s"])
            out[("load", op["file"])] = loads
        return out

    def unit_count(self, ops) -> float:
        return sum(op["windows"] for op in ops)


class EvalBaseline(FileWorkload):
    """`segan enhance-wiener` then `segan eval --metric all` per seeded
    16 kHz clean/noisy pair; both the noisy input and the Wiener output are
    scored against the clean file. A file's compute time is both calls;
    its set-up is each call's time before its first Wiener or score call
    (argument parsing and WAV reads)."""

    name = "eval-baseline"
    unit_label = "second of input audio"

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        specs = [(s, inputs.RATE) for s in inputs.EVAL_DURATIONS_S]
        records = inputs.make_noisy_files(work, seed, "eval-baseline", specs)
        (work / "files.json").write_text(json.dumps(records))

    def _run_unit(self, tracer) -> None:
        spans = tracer.spans
        for i, rec in enumerate(self.files):
            wiener_out = self.work / f"wiener_{i:02d}.wav"
            report = self.work / f"report_{i:02d}.csv"
            mark = len(spans)
            code1, a0, a1, err1 = call_cli(["enhance-wiener", "--in", rec["noisy"],
                                            "--out", str(wiener_out)])
            mid = len(spans)
            code2, b0, b1, err2 = call_cli(["eval", "--clean", f"{rec['clean']},{rec['clean']}",
                                            "--test", f"{rec['noisy']},{wiener_out}",
                                            "--metric", "all", "--report", str(report)])
            setup = ((_first_start(spans, ("wiener.enhance_wiener",), mark) or a1) - a0
                     + (_first_start(spans, ("metrics.ssnr", "metrics.llr"), mid) or b1) - b0)
            op = {"unit": self.units_run, "file": i, "wall_s": (a1 - a0) + (b1 - b0),
                  "setup_s": setup, "seconds": rec["seconds"]}
            op["gain_db"] = self._check_output(code1, err1, code2, err2, wiener_out, report, rec)
            self.ops.append(op)
        gains = [op["gain_db"] for op in self.ops if op["unit"] == self.units_run]
        mean_gain = float(np.mean(gains))
        self.checks.record(mean_gain >= MIN_WIENER_GAIN_DB,
                           f"pass {self.units_run}: mean Wiener SSNR gain {mean_gain:.4g} dB, "
                           f"want at least {MIN_WIENER_GAIN_DB} dB")
        self.check_repeatable(gains, "the Wiener SSNR gains")

    def _check_output(self, code1, err1, code2, err2, wiener_out: Path, report: Path, rec):
        """Every score finite; Wiener output as long as its input. Returns
        SSNR(wiener) - SSNR(noisy)."""
        if code1 != 0 or code2 != 0:
            self.checks.record(False, f"{rec['noisy']}: exit {code1}/{code2}: {(err1 + err2)[-300:]}")
            return math.nan
        samples, rate = inputs.read_wav(wiener_out)
        scores = {}
        with open(report, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["file"] != "AGGREGATE":
                    scores[(Path(row["file"]).name, row["metric"])] = float(row["value"])
        noisy, wien = Path(rec["noisy"]).name, wiener_out.name
        want = {(f, m) for f in (noisy, wien) for m in ("ssnr", "llr")}
        ok = (samples.size == rec["samples"] and rate == rec["rate"] and set(scores) == want
              and all(math.isfinite(v) for v in scores.values()))
        self.checks.record(ok, f"{rec['noisy']}: wiener length {samples.size} (want {rec['samples']}), "
                               f"scores {scores}")
        return scores.get((wien, "ssnr"), math.nan) - scores.get((noisy, "ssnr"), math.nan)

    def unit_count(self, ops) -> float:
        return sum(op["seconds"] for op in ops)

    def named(self, ops) -> dict:
        gains = [op["gain_db"] for op in ops if op["unit"] == ops[0]["unit"]]
        return {**super().named(ops),
                "wiener_ssnr_gain_db": (float(np.mean(gains)), "dB", len(gains))}


def _read_losses(path: Path) -> list[list[float]]:
    if not path.exists():
        return []
    rows = path.read_text().splitlines()[1:]
    return [[float(v) for v in row.split(",")] for row in rows if row]


def _reloads_equal(load_checkpoint, result) -> bool:
    gen, disc, _cfg = load_checkpoint(result.final_checkpoint)
    pairs = list(zip(gen.parameters(), result.gen.parameters()))
    if result.disc is not None:
        if disc is None:
            return False
        pairs += list(zip(disc.parameters(), result.disc.parameters()))
        stats_pairs = list(zip(disc.ref_mean + disc.ref_var, result.disc.ref_mean + result.disc.ref_var))
        if disc.n_ref != result.disc.n_ref or not all(np.array_equal(a, b) for a, b in stats_pairs):
            return False
    return all(a.name == b.name and np.array_equal(a.data, b.data) for a, b in pairs)


WORKLOADS = {w.name: w for w in (TrainAdv, EnhanceLong, EvalBaseline)}
