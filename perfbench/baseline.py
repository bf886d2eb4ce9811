"""Run the benchmark over several seeds and record the spread of every metric.

Run from the repository root, for example:

    python3 perfbench/baseline.py --trace-seed 1 --out perfbench/baseline/seed_code.json

Each run is the command from BENCHMARK.json with that file's run_seconds,
on every workload it names and seeds 1-10. For every workload and end-to-end metric the record holds the values, their
median and the spread (third minus first quartile, over the median). It
also holds one traced run per workload (--trace-seed), the machine (Python
version, CPU count and model) and the CPU steal ticks from /proc/stat over
each run: time the hypervisor gave this machine's CPUs to someone else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def steal_ticks() -> int:
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8])  # cpu user nice system idle iowait irq softirq steal


def cpu_model() -> str:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    steal0, t0 = steal_ticks(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall, steal = time.perf_counter() - t0, steal_ticks() - steal0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"seed": seed, "wall_s": wall, "steal_ticks": steal, **result}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-seed", type=int, default=0,
                        help="seed of one traced run per workload; 0 skips them")
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(spec, name, seed, 0))
            r = runs[-1]
            print(f"{name} seed {seed}: {r['wall_s']:.1f}s steal {r['steal_ticks']} "
                  f"failed {r['failed']}/{r['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            s = spread([r["metrics"][metric]["value"] for r in runs])
            s["bound"] = bounds[metric]
            summary[metric] = s
            print(f"  {metric}: median {s['median']:.6g} spread {s['spread']:.3f} "
                  f"(bound {s['bound']})", flush=True)
        entry = {"runs": runs, "summary": summary}
        if args.trace_seed:
            entry["traced"] = run_once(spec, name, args.trace_seed, 1)
            overhead = entry["traced"]["metrics"]["trace.overhead_ratio"]["value"]
            print(f"  traced seed {args.trace_seed}: overhead {overhead:.3f}", flush=True)
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
