"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload train-adv --seed 1 --seconds 30 --trace 0

Run from the repository root. It builds nothing: segan is imported from
`src/` next to this directory, and the run fails (non-zero exit, no result
line) when that package is missing. Inputs are generated from --seed in a
child process, so the peak memory reported is the workload's alone. Whole
units of work repeat until the unit boundary nearest to --seconds (and at
least the workload's `min_units` times). With
--trace 0 the result carries the end-to-end metrics; with --trace 1 it
carries the per-layer split, measured after one untraced unit whose time
gives the tracing overhead. The last line of standard output is the result
JSON; a details record is written under .bench_results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-adv", "enhance-long", "eval-baseline")
PREPARE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "rtf": "s/s"}


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use. Must run
    before numpy is imported."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            os.environ[var] = str(n)
    return n


def import_segan() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    import segan
    import segan.cli  # noqa: F401  (loads every module the wrappers patch)
    if src.resolve() not in Path(segan.__file__).resolve().parents:
        raise ImportError(f"segan resolved to {segan.__file__}, not under {src}")


def machine_probe_ms() -> float:
    """Median time of a fixed matmul + pure-Python loop. Recorded at the
    start and end of every run so that a swing caused by host load can be
    told apart from a code change; no metric is adjusted by it."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((128, 128)).astype(np.float32)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(20):
            a @ a
        total = 0
        for i in range(50_000):
            total += i
        times.append(time.perf_counter() - t0)
    return 1e3 * sorted(times)[1]


def environment(nproc: int, seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
        "machine_probe_ms_start": machine_probe_ms(),
    }


def measure(wl, seconds: float, trace: bool) -> dict:
    from tracer import Tracer
    import layers

    ref_ops = []
    if trace:
        ref = Tracer()
        ref.install()
        try:
            wl.run_unit(ref)
        finally:
            ref.uninstall()
        ref_ops = wl.take_ops()
    tracer = Tracer()
    tracer.install(full=trace)
    t0 = time.perf_counter()
    try:
        units = 0
        while True:
            wl.run_unit(tracer)
            units += 1
            elapsed = time.perf_counter() - t0
            # stop at the unit boundary nearest to `seconds`
            if units >= wl.min_units and elapsed + 0.5 * elapsed / units >= seconds:
                break
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = wl.take_ops()
    bounded, named, facts = wl.end_to_end(ops)
    bounded["peak_rss_mb"] = peak_rss_mb
    named["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    out = {"end_to_end": bounded, "named": named, "facts": facts, "units": wl.unit_count(ops)}
    if trace:
        memory = traced_memory(wl)
        per_layer, layer_facts = layers.compute(tracer, wl.unit_count(ops), memory,
                                                *wl.overhead(ref_ops, ops))
        out["per_layer"] = per_layer
        out["facts"].update(layer_facts)
        out["facts"]["untraced_unit_ms"] = 1e3 * wl.unit_time(ref_ops)
        out["facts"]["traced_unit_ms"] = 1e3 * wl.unit_time(ops)
        out["spans"] = tracer.spans
    return out


def traced_memory(wl) -> dict[str, float]:
    """tracemalloc peaks from one extra, untimed unit: tracemalloc slows
    allocation-heavy Python code several-fold, so it stays out of the timed
    traced measurement."""
    from tracer import Tracer

    if wl.memory_probe is None:
        return {}
    probe = Tracer()
    probe.trace_memory(*wl.memory_probe)
    probe.install()
    try:
        wl.memory_unit(probe)
    finally:
        probe.uninstall()
    wl.take_ops()
    return probe.memory


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def write_details(path: Path, details: dict, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(details, indent=1, default=str) + "\n")
    if spans is not None and len(spans):
        origin = spans.start[0]
        with open(path.with_suffix(".spans.jsonl"), "w") as fh:
            for i in range(len(spans)):
                fh.write(json.dumps([spans.name[i], round(spans.start[i] - origin, 7),
                                     round(spans.end[i] - origin, 7), spans.parent[i],
                                     spans.attr[i] if isinstance(spans.attr[i], (int, str)) else None]))
                fh.write("\n")


def print_report(args, env, result, checks, details_path) -> None:
    print(f"segan benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))
    print(f"{'metric':<34}{'value':>16}  {'unit':<12}{'n':>6}")
    for name, entry in sorted(result["named"].items()):
        value, unit, n = entry[:3]
        extra = f"  {json.dumps(entry[3])}" if len(entry) > 3 else ""
        print(f"{name:<34}{value:>16.6g}  {unit:<12}{n:>6}{extra}")
    if "per_layer" in result:
        for name, value in result["per_layer"].items():
            if value:
                print(f"{name:<34}{value:>16.6g}")
    print(f"checks: attempted={checks.attempted} failed={checks.failed}")
    for msg in checks.messages:
        print(f"  failed: {msg}")
    print(f"details: {details_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = limit_blas_threads()
    try:
        import_segan()
    except ImportError as exc:
        print(f"error: cannot import segan from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.prepare:
        cls.prepare(Path(args.prepare), args.seed)
        return 0

    env = environment(nproc, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--prepare", str(work)],
                       check=True, timeout=PREPARE_TIMEOUT_S)
        wl = cls(work, args.seed)
        result = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env["machine_probe_ms_end"] = machine_probe_ms()

    if args.trace:
        metrics = {name: {"value": v, "unit": unit}
                   for (name, v), unit in zip(result["per_layer"].items(),
                                              layers.per_layer_units().values())}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    checks = wl.checks
    correct = checks.failed == 0 and all(_finite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not _finite(m["value"]):
            m["value"] = None

    details_path = ROOT / ".bench_results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details = {"environment": env, "workload": args.workload, "seconds": args.seconds,
               "trace": args.trace, "unit": wl.unit_label, "units": result["units"],
               "named": result["named"], "end_to_end": result["end_to_end"],
               "per_layer": result.get("per_layer"), "facts": result["facts"],
               "checks": {"attempted": checks.attempted, "failed": checks.failed,
                          "messages": checks.messages}}
    write_details(details_path, details, result.get("spans"))
    print_report(args, env, result, checks, details_path)
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
