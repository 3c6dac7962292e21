"""Run the benchmark once per seed and summarize every metric: median,
quartiles and spread (interquartile distance as a share of the median).

    python3 bench/repeat.py --workloads train-adv,eval-baseline --seeds 1-10
    python3 bench/repeat.py --seeds 1-10 --out bench/baseline.json
    python3 bench/repeat.py --compare bench/baseline.json bench/baseline_repeat.json

Run length comes from BENCHMARK.json; --trace 1 summarizes the per-layer
split instead of the end-to-end metrics. Each run's report
(every metric by name, unit and sample count, and its checks) is echoed.
With --out the summary, the environment of the first run and every
per-run value are written as JSON. Each run's machine probe (a fixed matmul
+ Python loop timed at its start and end) is summarized alongside, so a
host slowdown shows next to the metrics it moved. --compare reads two such
files and prints, per workload and end-to-end metric, how far the second
median is from the first, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    details = json.loads((ROOT / ".bench_results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else None}


def compare(first: Path, second: Path, spec: dict) -> bool:
    """Print the second set's median against the first's for every bounded
    metric; True when none is worse by more than its bound."""
    a, b = json.loads(first.read_text()), json.loads(second.read_text())
    ok = True
    for m in spec["end_to_end"]:
        for workload in a["workloads"]:
            m1 = a["workloads"][workload]["summary"][f"result.{m['name']}"]["median"]
            m2 = b["workloads"][workload]["summary"][f"result.{m['name']}"]["median"]
            change = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            ok &= change <= m["bound"]
            print(f"{workload:<14} {m['name']:<12} {m1:<12.6g} {m2:<12.6g} worse by {change:+.4f} "
                  f"(bound {m['bound']})")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare, spec) else 1

    out = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": seed_list(args.seeds),
           "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for seed in out["seeds"]:
            result, details = run_once(workload, seed, spec["run_seconds"], args.trace)
            out.setdefault("environment", details["environment"])
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "result": {k: v["value"] for k, v in result["metrics"].items()},
                         "named": {k: v[0] for k, v in details["named"].items()},
                         "machine_probe_ms": 0.5 * (details["environment"]["machine_probe_ms_start"]
                                                    + details["environment"]["machine_probe_ms_end"])})
        summary = {}
        for group in ("result", "named"):
            for name in runs[0][group]:
                if group == "result" or name not in runs[0]["result"]:
                    summary[f"{group}.{name}"] = summarize([r[group][name] for r in runs])
        summary["machine_probe_ms"] = summarize([r["machine_probe_ms"] for r in runs])
        out["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"{workload}: all correct={all(r['correct'] for r in runs)}")
        for key, s in summary.items():
            bound = bounds.get(key.removeprefix("result.")) if not args.trace else None
            note = f"  bound {bound}" if bound is not None else ""
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {key:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {spread}{note}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
