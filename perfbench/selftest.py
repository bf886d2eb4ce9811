"""Fast self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

It runs every workload on tiny inputs (19 corpus polygons, a two-rung
ladder) and checks four things: every metric BENCHMARK.json names is
printed with its unit, self times under each run_pipeline span add up to
the span's inclusive time, a solver that drops one camera is counted as
failing, and the command refuses to run without the repository's src/.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_metric_names() -> str | None:
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if layers != {name: unit for name, unit, _ in run.layer_metric_specs()}:
        return "per_layer in BENCHMARK.json differs from run.layer_metric_specs()"
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, want in ((False, e2e), (True, layers)):
            result = run.run(workload, 1, 0.0, trace, fast=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                return f"{workload} trace={int(trace)}: printed {sorted(got)}"
            if not result["correct"] or result["failed"]:
                return f"{workload} trace={int(trace)}: failed on the seed code"
            if trace == 0 and any(v["value"] == 0 for v in result["metrics"].values()):
                return f"{workload}: an end-to-end metric is 0"
    return None


def check_self_times() -> str | None:
    bench = run.Bench(run.load_slidecam(), "corpus")
    workdir = run.ROOT / ".bench_build" / "perfbench-selftest"
    tracer = run.per_layer(bench, 1, 0.0, True, workdir)[3]
    selfs = tracer.self_times()
    name_of = [tracer.names[n] for n in tracer.name]
    roots = [i for i, n in enumerate(name_of) if n == "pipeline.run_pipeline"]
    subtree = {r: 0.0 for r in roots}
    for i in range(len(selfs)):
        j = i
        while j >= 0 and j not in subtree:
            j = tracer.parent[j]
        if j >= 0:
            subtree[j] += selfs[i]
        p = tracer.parent[i]
        if p >= 0 and not tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]:
            return f"span {i} ({name_of[i]}) lies outside its parent"
    if not roots:
        return "no run_pipeline span recorded"
    for r, total in subtree.items():
        inclusive = tracer.end[r] - tracer.start[r]
        if abs(total - inclusive) > 1e-9 + 1e-9 * inclusive:
            return f"run_pipeline span {r}: self times {total} != inclusive {inclusive}"
        if sum(1 for i in range(len(selfs)) if tracer.parent[i] == r) == 0:
            return f"run_pipeline span {r} has no child spans"
    return None


def check_dropped_camera() -> str | None:
    sc = run.load_slidecam()

    def drop_one(P):
        got = sc.camera_cover(P)
        return sc.GuardSet(got.cameras[1:], got.provenance[1:], got.stats)

    result = run.run("corpus", 1, 0.0, False, fast=True, api={"camera_cover": drop_one})
    if result["failed"] == 0 or result["correct"]:
        return f"a solver that drops a camera passed: {result['failed']} failed"
    return None


def check_refuses_without_source() -> str | None:
    bare = run.ROOT / ".bench_build" / "perfbench-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "corpus",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"ran without src/: exit {proc.returncode}, stdout {proc.stdout!r}"
    return None


def main() -> int:
    checks = (check_metric_names, check_self_times, check_dropped_camera,
              check_refuses_without_source)
    failures = 0
    for check in checks:
        problem = check()
        print(f"{check.__name__}: {'FAIL ' + problem if problem else 'PASS'}")
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
