"""Per-layer metrics from a traced run: the names BENCHMARK.json lists and
the arithmetic that turns spans and counters into them.

Timings are totals over the traced measurement divided by the workload's
unit count (training steps on train-adv, generator windows on
enhance-long, seconds of input audio on eval-baseline), so a layer's
figures add up towards the end-to-end time per unit. Set-up calls made once
per run or per file (the "call" rows of `_TIMED`, and checkpoint bytes) are
reported per call instead.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import NAMED_OPS, PHASES, attribute_phases, self_times

ENGINE_OPS = NAMED_OPS + ("other",)
G_LAYERS = tuple(f"g.enc{k}" for k in range(1, 12)) + tuple(f"g.dec{k}" for k in range(11, 0, -1))
D_LAYERS = tuple(f"d.conv{k}" for k in range(1, 5)) + ("d.head",)

# metric -> (span name, scale to the unit, reduction)
_TIMED = {
    "model.g_forward_ms": ("model.g_forward", 1e3, "unit"),
    "model.d_forward_ms": ("model.d_forward", 1e3, "unit"),
    "model.set_reference_batch_ms": ("model.set_reference_batch", 1e3, "call"),
    "model.load_checkpoint_s": ("model.load_checkpoint", 1.0, "call"),
    "model.save_checkpoint_ms": ("model.save_checkpoint", 1e3, "call"),
    "checkpoint.load_tensors_s": ("checkpoint.load_tensors", 1.0, "call"),
    "checkpoint.save_tensors_ms": ("checkpoint.save_tensors", 1e3, "call"),
    "optim.g_step_ms": ("optim.g_step", 1e3, "unit"),
    "optim.d_step_ms": ("optim.d_step", 1e3, "unit"),
    "audio_io.read_wav_ms": ("audio_io.read_wav", 1e3, "unit"),
    "audio_io.write_wav_ms": ("audio_io.write_wav", 1e3, "unit"),
    "audio_io.resample_ms": ("audio_io.resample", 1e3, "unit"),
    "audio_io.preemphasis_ms": ("audio_io.preemphasis", 1e3, "unit"),
    "audio_io.deemphasis_ms": ("audio_io.deemphasis", 1e3, "unit"),
    "audio_io.chunk_ms": ("audio_io.chunk", 1e3, "unit"),
    "audio_io.reassemble_ms": ("audio_io.reassemble", 1e3, "unit"),
    "dataset.load_manifest_ms": ("dataset.load_manifest", 1e3, "call"),
    "dataset.build_pairs_ms": ("dataset.build_pairs", 1e3, "call"),
    "wiener.stft_ms": ("wiener.stft", 1e3, "unit"),
    "wiener.wiener_gains_ms": ("wiener.wiener_gains", 1e3, "unit"),
    "wiener.istft_ms": ("wiener.istft", 1e3, "unit"),
    "metrics.ssnr_ms": ("metrics.ssnr", 1e3, "unit"),
    "metrics.llr_ms": ("metrics.llr", 1e3, "unit"),
}

def _unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_pct", "%"),
                         ("gflops", "GFLOP/s"), ("bytes_per_call", "B"), ("bytes_read", "B"),
                         ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> list[str]:
    names = []
    for op in ENGINE_OPS:
        names += [f"engine.{op}.fwd_ms", f"engine.{op}.bwd_ms"]
    names += ["engine.backward.walk_ms", "engine.nodes", "engine.conv.madds",
              "engine.conv.gflops", "engine.conv.bytes_per_call"]
    for layer in G_LAYERS + D_LAYERS:
        names += [f"engine.conv.{layer}.fwd_ms", f"engine.conv.{layer}.bwd_ms"]
    names += ["optim.g_step_ms", "optim.d_step_ms", "optim.elements"]
    names += ["model.g_forward_ms", "model.d_forward_ms", "model.set_reference_batch_ms",
              "model.load_checkpoint_s", "model.save_checkpoint_ms", "model.g_forward_peak_traced_mb"]
    names += ["checkpoint.load_tensors_s", "checkpoint.save_tensors_ms",
              "checkpoint.bytes_read", "checkpoint.bytes_written"]
    names += [f"trainer.phase.{p}_ms" for p in PHASES + ("remainder",)]
    names += ["trainer.step_peak_traced_mb", "trainer.enhance_peak_traced_mb"]
    names += [m for m in _TIMED if m.startswith(("audio_io.", "dataset.", "wiener.", "metrics."))]
    names += ["metrics.levinson_calls", "bench.trace_overhead_ms", "bench.trace_overhead_pct"]
    return names


def per_layer_units() -> dict[str, str]:
    return {name: _unit_of(name) for name in per_layer_names()}


def step_phases(spans) -> tuple[dict[str, float], float, int]:
    """Summed phase times over every traced training step, the summed step
    time, and the step count."""
    kinds = {"optim.d_step": "opt_d", "optim.g_step": "opt_g", "model.g_forward": "g_forward"}
    totals = dict.fromkeys(PHASES + ("remainder",), 0.0)
    step_total, steps = 0.0, 0
    n = len(spans)
    for i in range(n):
        if spans.name[i] != "trainer.train_step":
            continue
        lo, hi = spans.start[i], spans.end[i]
        events = []
        j = i + 1
        while j < n and spans.start[j] < hi:
            kind = kinds.get(spans.name[j])
            if kind is not None:
                events.append((spans.end[j], kind))
            j += 1
        for phase, value in attribute_phases(lo, hi, events).items():
            totals[phase] += value
        step_total += hi - lo
        steps += 1
    return totals, step_total, steps


def compute(tracer, units: float, memory: dict, overhead_ms: float,
            overhead_pct: float) -> tuple[dict, dict]:
    """Every per-layer metric (0 where the workload never reaches the
    layer), plus side facts for the details record."""
    spans, calls, counts = tracer.spans, tracer.calls, tracer.counts
    units = units or 1.0
    total = defaultdict(float)
    by_layer = defaultdict(float)
    conv_names = {f"engine.{op}.{d}": d for op in ("conv1d", "conv1d_transpose") for d in ("fwd", "bwd")}
    for i, name in enumerate(spans.name):
        d = spans.end[i] - spans.start[i]
        total[name] += d
        direction = conv_names.get(name)
        if direction is not None and spans.attr[i]:
            by_layer[(spans.attr[i], direction)] += d
    selfs = self_times(spans)
    walk = sum(s for s, name in zip(selfs, spans.name) if name == "engine.backward")

    out = {}
    for op in ENGINE_OPS:
        for d in ("fwd", "bwd"):
            out[f"engine.{op}.{d}_ms"] = 1e3 * total[f"engine.{op}.{d}"] / units
    out["engine.backward.walk_ms"] = 1e3 * walk / units
    out["engine.nodes"] = counts["engine.nodes"] / units
    out["engine.conv.madds"] = counts["conv.madds"] / units
    conv_time = sum(total[n] for n in conv_names)
    out["engine.conv.gflops"] = 2.0 * counts["conv.madds"] / conv_time / 1e9 if conv_time else 0.0
    out["engine.conv.bytes_per_call"] = counts["conv.bytes"] / counts["conv.calls"] if counts["conv.calls"] else 0.0
    for layer in G_LAYERS + D_LAYERS:
        for d in ("fwd", "bwd"):
            out[f"engine.conv.{layer}.{d}_ms"] = 1e3 * by_layer[(layer, d)] / units
    out["optim.elements"] = counts["optim.elements"] / units
    for metric, (span, scale, how) in _TIMED.items():
        if how == "unit":
            out[metric] = scale * total[span] / units
        else:
            out[metric] = scale * total[span] / calls[span] if calls[span] else 0.0
    out["model.g_forward_peak_traced_mb"] = memory.get("model.g_forward", 0.0)
    for metric, span in (("checkpoint.bytes_read", "checkpoint.load_tensors"),
                         ("checkpoint.bytes_written", "checkpoint.save_tensors")):
        sizes = [a for a, name in zip(spans.attr, spans.name) if name == span and a]
        out[metric] = sum(sizes) / len(sizes) if sizes else 0.0
    phases, step_time, steps = step_phases(spans)
    for phase, value in phases.items():
        out[f"trainer.phase.{phase}_ms"] = 1e3 * value / steps if steps else 0.0
    out["trainer.step_peak_traced_mb"] = memory.get("trainer.train_step", 0.0)
    out["trainer.enhance_peak_traced_mb"] = memory.get("trainer.enhance_file", 0.0)
    out["metrics.levinson_calls"] = calls["metrics.levinson"] / units
    out["bench.trace_overhead_ms"] = overhead_ms
    out["bench.trace_overhead_pct"] = overhead_pct

    facts = {
        "traced_steps": steps,
        "phase_coverage": (sum(phases[p] for p in PHASES) / step_time) if step_time else None,
        "traced_step_ms": 1e3 * step_time / steps if steps else None,
        "conv_calls": counts["conv.calls"],
        "spans": len(spans),
        "computed": ["engine.conv.madds", "engine.conv.bytes_per_call", "engine.conv.gflops"],
    }
    return {name: out[name] for name in per_layer_names()}, facts
