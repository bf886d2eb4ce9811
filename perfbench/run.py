"""The slidecam benchmark: one command, three workloads, one client.

Run it from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

It imports slidecam from ./src, so nothing has to be installed, and builds
its inputs from --seed with generate_polygon. It then calls the public API
from one thread as a closed loop with one client: each call starts when
the previous one has returned. Every output is checked outside the timed
region, and a failed check or a raised exception counts as a failed
operation. The last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes over the same inputs, prints the per-layer metrics read off
the spans (spans.py), and writes the spans to .bench_build/perfbench/.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import re
import shutil
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from spans import Tracer, metric_specs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("corpus", "ladder", "verify")
END_TO_END = (("setup_s", "s"), ("latency_ref.p50", "ref"), ("cameras_total", "count"))

CORPUS_SIZE = 500
# (vertices, consecutive seeds). The seed counts put the middle rung at the
# middle of the pooled latencies (as many inputs below it as above), and its
# 40 seeds keep that median steady from one seed set to the next. The rungs
# run interleaved, so that the middle rung's calls spread over the whole
# pass and a slow spell of the machine cannot shift all of them at once.
LADDER = ((80, 4), (160, 4), (240, 40), (320, 4), (400, 4))
LADDER_REPORTED = (160, 240, 320, 400)
# setup_s is the median of at least this many set-ups, made over at least
# this many seconds: one corpus set-up takes well under a second.
SETUPS = 5
SETUP_MIN_S = 4.0
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW = 3  # a call is scaled by the median of this many last jobs
# setup_s is reported in seconds of a machine on which reference_job takes
# this long: about its median on the two-vCPU Xeon VM of the baseline.
REFERENCE_NOMINAL_S = 0.008


def reference_job() -> float:
    """Seconds a fixed pure-Python job takes: the machine's current speed.

    The speed of a shared machine drifts by up to a factor of two over tens
    of seconds. The job builds, sorts and probes a dict with tuple keys, the
    kind of work slidecam does, but it shares no code with slidecam, so a
    change to the program cannot change it. latency_ref.p50 divides each
    call's time by the job's median time over its last few runs before the
    call. On ladder inputs, on a shared two-vCPU Xeon VM, it tracked the
    drift better than an integer loop: over 15-second windows the medians
    scaled by it spread by 0.06, loop-scaled ones by 0.13 and unscaled ones
    by 0.35 (third minus first quartile, over the median).
    """
    t0 = perf_counter()
    n = 6000
    table = {((i * 7919) % n, i): (i, -i) for i in range(n)}
    items = sorted(table.items(), reverse=True)
    probe = {key for key, _value in items[::2]}
    sum(1 for key in table if key in probe)
    return perf_counter() - t0


class Gauge:
    """The machine's current speed: the median of reference_job's last runs."""

    def __init__(self):
        # A full window from the start: the first job in a process runs cold.
        self.refs = [reference_job() for _ in range(REFERENCE_WINDOW)]
        self.last = perf_counter()

    def ref(self) -> float:
        return statistics.median(self.refs[-REFERENCE_WINDOW:])

    def poll(self) -> None:
        """Run the job again if REFERENCE_EVERY_S have passed since it last
        ran. Called between timed calls, never inside one."""
        if perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.refs.append(reference_job())
            self.last = perf_counter()


def corpus_target(seed: int) -> int:
    """Vertex count of corpus polygon `seed`: cycles 4, 6, ..., 40, the rule
    of the acceptance-gate corpus in tests/conftest.py."""
    return 4 + 2 * ((seed - 1) % 19)


def plan(workload: str, seed: int, fast: bool) -> list[tuple[int, int]]:
    """(generate_polygon seed, vertex count) of every input, in run order.

    Seed 1 gives the acceptance-gate corpus (polygon seeds 1-500) and the
    ladder's polygon seeds 1..k on every rung; seed s takes the next block.
    The ladder's i-th input of k on a rung runs at i/k of the pass.
    """
    if workload == "ladder":
        rungs = ((12, 2), (20, 2)) if fast else LADDER
        inputs = [(i / k, k * (seed - 1) + i, n) for n, k in rungs for i in range(1, k + 1)]
        return [(q, n) for _at, q, n in sorted(inputs)]
    size = 19 if fast else CORPUS_SIZE
    first = size * (seed - 1)
    return [(q, corpus_target(q)) for q in range(first + 1, first + size + 1)]


@dataclass(frozen=True)
class Case:
    seed: int
    size: int
    text: str
    path: str = ""


def load_slidecam():
    """Import slidecam from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "slidecam" / "__init__.py").is_file():
        raise ImportError(f"no slidecam package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    sc = importlib.import_module("slidecam")
    if not Path(sc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"slidecam was imported from {sc.__file__}, not {src}")
    for module in ("cli", "pipeline", "polyfile", "visibility"):
        importlib.import_module(f"slidecam.{module}")
    return sc


class Bench:
    """One workload's inputs, its operation and its output check.

    `api` replaces entry points by name; the self-test uses it to plant a
    faulty solver.
    """

    def __init__(self, sc, workload: str, api=None):
        self.sc = sc
        self.workload = workload
        self.api = {
            "camera_cover": sc.pipeline.camera_cover,
            "guarded_camera_cover": sc.pipeline.guarded_camera_cover,
            "main": sc.cli.main,
        }
        self.api.update(api or {})
        self.tracer: Tracer | None = None

    def call(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.wrap(name, "perfbench", fn)(*args)

    def make_case(self, i: int, q: int, n: int, workdir: Path) -> Case:
        """Input i: polygon seed q with n vertices, serialised, and for
        verify written to a file in workdir."""
        P = self.call("generator.generate_polygon", self.sc.generate_polygon, q, n)
        case = Case(q, n, self.sc.format_polygon(P))
        if self.workload == "verify":
            path = workdir / f"{i:04d}-seed{q}.poly"
            path.write_text(case.text)
            case = replace(case, path=str(path))
        return case

    def _parse(self, case: Case):
        # A fresh polygon for every call: camera_visibility, the slab tables
        # and the transposed twin cache on the polygon object, and a solve
        # from a file never starts with them warm.
        return self.call("polyfile.parse_polygon", self.sc.parse_polygon, case.text)

    def _timed(self, name: str, fn, *args):
        t0 = perf_counter()
        out = self.call(name, fn, *args)
        return perf_counter() - t0, out

    def op(self, case: Case):
        """Run one operation; returns (seconds of each timed call, output).
        The calls are camera_cover, then guarded_camera_cover on corpus,
        and the verify command on verify."""
        if self.workload == "verify":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                dt, rc = self._timed("cli.main", self.api["main"], ["verify", case.path])
            return (dt,), (rc, buf.getvalue())
        t1, cover = self._timed(
            "pipeline.camera_cover", self.api["camera_cover"], self._parse(case)
        )
        if self.workload == "ladder":
            return (t1,), cover.cameras
        t2, guarded = self._timed(
            "pipeline.guarded_camera_cover", self.api["guarded_camera_cover"],
            self._parse(case),
        )
        return (t1, t2), (cover.cameras, guarded.cameras)

    def check(self, case: Case, out) -> tuple[int, ...]:
        """Check an output against the polygon; returns the camera count of
        each call (camera_cover's first) and raises AssertionError on a
        wrong output."""
        sc = self.sc
        P = sc.parse_polygon(case.text)
        if self.workload == "verify":
            rc, text = out
            _require(rc == 0, f"verify exited {rc}")
            _require(text.splitlines()[-1:] == ["ok"], "verify did not print ok")
            # The count verify reports must be the library's answer.
            cameras = len(sc.camera_cover(P).cameras)
            m = re.search(r"^cover_bound: (\d+) vs", text, re.M)
            _require(m is None or int(m[1]) == cameras, "verify reports another count")
            return (cameras,)
        cover = out if self.workload == "ladder" else out[0]
        _require(len(cover) > 0 and sc.covers_polygon(P, cover), "cover misses area")
        if self.workload == "ladder":
            return (len(cover),)
        guarded = out[1]
        _require(sc.covers_polygon(P, guarded), "guarded cover misses area")
        _require(_all_watched(sc, P, guarded), "a guarded camera is unwatched")
        return len(cover), len(guarded)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _all_watched(sc, P, cameras) -> bool:
    """Is every camera watched by another (a twin on its track counts)?"""
    return all(
        any(
            j != i and (g == c or sc.camera_guards_camera(P, g, c))
            for j, g in enumerate(cameras)
        )
        for i, c in enumerate(cameras)
    )


class Results:
    """Timings and outputs of every call, and the failure count."""

    def __init__(self, n: int):
        # Per input, per recorded call: each timed call's seconds over ref.
        self.times: list[list[tuple[float, ...]]] = [[] for _ in range(n)]
        self.first: list[object] = [None] * n
        self.repeats = [0] * n  # calls that returned input k's first output
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def run(self, bench: Bench, cases: list[Case], k: int, ref: float = 1.0,
            record: bool = True) -> float:
        """Call input k once and compare the output with its first one.
        Returns the seconds taken; keeps them, divided by `ref`, if `record`."""
        self.attempted += 1
        try:
            times, out = bench.op(cases[k])
        except Exception as e:  # a raising solver is a failed operation
            self._fail(f"seed {cases[k].seed}: {type(e).__name__}: {e}")
            return 0.0
        dt = sum(times)
        if self.first[k] is None:
            self.first[k] = out
        elif out != self.first[k]:
            self._fail(f"seed {cases[k].seed}: output differs from the first call")
            return dt
        self.repeats[k] += 1
        if record:
            self.times[k].append(tuple(t / ref for t in times))
        return dt

    def check(self, bench: Bench, cases: list[Case]) -> list[int]:
        """Check the first output of each input (later calls were compared
        with it); returns the summed camera counts of the correct ones,
        camera_cover's and then guarded_camera_cover's."""
        cameras = [0, 0]
        for k, case in enumerate(cases):
            if self.first[k] is None:
                continue
            try:
                counts = bench.check(case, self.first[k])
            except Exception as e:
                self._fail(f"seed {case.seed}: {type(e).__name__}: {e}")
                self.failed += self.repeats[k] - 1
                self.times[k].clear()
                continue
            for j, count in enumerate(counts):
                cameras[j] += count
        return cameras

    def per_input(self, call: int | None = None) -> list[float]:
        """Each input's median time of one timed call, or of the whole
        operation when `call` is None."""
        pick = sum if call is None else (lambda t: t[call])
        return [statistics.median(pick(t) for t in ts) for ts in self.times if ts]


def _setup(bench: Bench, seed: int, fast: bool, workdir: Path, gauge: Gauge,
           repeats: int = 1, min_s: float = 0.0):
    """Set up at least `repeats` times and for at least `min_s` seconds;
    returns the inputs, the median set-up time and whether every set-up
    produced the same inputs. Like latency_ref, each input's set-up time is
    divided by the gauge's reference time; the sum is then given in seconds
    at REFERENCE_NOMINAL_S."""
    workdir.mkdir(parents=True, exist_ok=True)
    seconds, builds = [], []
    start = perf_counter()
    while len(seconds) < repeats or perf_counter() - start < min_s:
        cases, scaled = [], 0.0
        for i, (q, n) in enumerate(plan(bench.workload, seed, fast)):
            t0 = perf_counter()
            cases.append(bench.make_case(i, q, n, workdir))
            scaled += (perf_counter() - t0) / gauge.ref()
            gauge.poll()
        builds.append(cases)
        seconds.append(scaled * REFERENCE_NOMINAL_S)
    same = all(b == builds[0] for b in builds)
    return builds[0], statistics.median(seconds), same


def end_to_end(bench: Bench, seed: int, seconds: float, fast: bool, workdir: Path):
    gauge = Gauge()
    cases, setup_s, same = _setup(bench, seed, fast, workdir, gauge, SETUPS, SETUP_MIN_S)
    res = Results(len(cases))
    start = perf_counter()
    i = 0
    # Whole passes are not required: the loop stops at the deadline once
    # every input has run at least once.
    while i < len(cases) or perf_counter() - start < seconds:
        res.run(bench, cases, i % len(cases), gauge.ref())
        i += 1
        gauge.poll()
    cameras = res.check(bench, cases)
    per_input = res.per_input()
    values = {
        "setup_s": setup_s,
        "latency_ref.p50": statistics.median(per_input) if per_input else 0.0,
        "cameras_total": sum(cameras),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return res, same, metrics


def _untraced_figures(bench: Bench, res: Results, cases: list[Case],
                      cameras: list[int]) -> dict[str, float]:
    """Wall-clock figures of the untraced passes of a traced run. They move
    with the machine's speed and, on the ladder, with the seed, so they are
    reported here without a bound rather than gated on. Figures of a call
    the workload does not make are 0."""

    def rate(call: int) -> float:
        seconds = sum(t[call] for ts in res.times for t in ts)
        return sum(map(len, res.times)) / seconds if seconds else 0.0

    verify = bench.workload == "verify"
    first = res.per_input(0)  # camera_cover, or the verify command
    out = {
        "e2e.solve_pps": 0.0 if verify else rate(0),
        "e2e.guarded_pps": rate(1) if bench.workload == "corpus" else 0.0,
        "e2e.verify_pps": rate(0) if verify else 0.0,
        "e2e.latency_ms.p50": 1000 * statistics.median(first) if first else 0.0,
        "e2e.latency_ms.p98": (
            1000 * statistics.quantiles(first, n=50)[-1] if len(first) > 1 else 0.0
        ),
        "e2e.guarded_cameras_total": cameras[1],
    }
    for n in LADDER_REPORTED:
        rung = [statistics.median(t[0] for t in ts)
                for ts, c in zip(res.times, cases) if ts and c.size == n]
        out[f"e2e.latency_s.n{n}"] = statistics.median(rung) if rung else 0.0
    return out


def per_layer(bench: Bench, seed: int, seconds: float, fast: bool, workdir: Path):
    tracer = Tracer()
    bench.tracer = tracer
    cases, _setup_s, same = _setup(bench, seed, fast, workdir, Gauge())
    res = Results(len(cases))
    untraced = [0.0] * len(cases)
    traced = [0.0] * len(cases)
    passes = 0
    start = perf_counter()
    # Each input runs untraced and traced back to back, so that the
    # machine's drifting speed cancels out of the tracing overhead; which
    # goes first alternates, so that warming up cancels out too.
    while not passes or perf_counter() - start < seconds:
        for k in range(len(cases)):
            for traced_now in ((False, True) if (k + passes) % 2 else (True, False)):
                if traced_now:
                    bench.tracer = tracer
                    with tracer.installed():
                        tracer.begin_op()
                        traced[k] += res.run(bench, cases, k, record=False)
                else:
                    bench.tracer = None
                    untraced[k] += res.run(bench, cases, k)
        passes += 1
    bench.tracer = None
    cameras = res.check(bench, cases)
    values = tracer.metrics(passes=passes, setups=1)
    values.update(_untraced_figures(bench, res, cases, cameras))
    # The median over inputs, so that a few multi-second solves, whose
    # times wander by more than the whole overhead, do not decide it.
    ratios = [t / u for t, u in zip(traced, untraced) if t and u]
    values["trace.overhead_ratio"] = statistics.median(ratios) - 1 if ratios else 0.0
    values["trace.overhead_s"] = values["trace.overhead_ratio"] * sum(untraced) / passes
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{bench.workload}-seed{seed}.tsv.gz")
    metrics = {name: (values[name], unit) for name, unit, _better in layer_metric_specs()}
    return res, same, metrics, tracer


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better): the spans' metrics,
    then the untraced passes' wall-clock figures."""
    return [
        *metric_specs(),
        ("e2e.solve_pps", "1/s", "higher"),
        ("e2e.guarded_pps", "1/s", "higher"),
        ("e2e.verify_pps", "1/s", "higher"),
        ("e2e.latency_ms.p50", "ms", "lower"),
        ("e2e.latency_ms.p98", "ms", "lower"),
        *((f"e2e.latency_s.n{n}", "s", "lower") for n in LADDER_REPORTED),
        ("e2e.guarded_cameras_total", "count", "lower"),
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, fast=False, api=None):
    """One benchmark run; returns the result object the command prints."""
    sc = load_slidecam()
    bench = Bench(sc, workload, api)
    workdir = ROOT / ".bench_build" / f"perfbench-verify-{seed}"
    try:
        if trace:
            res, ok, metrics, _tracer = per_layer(bench, seed, seconds, fast, workdir)
        else:
            res, ok, metrics = end_to_end(bench, seed, seconds, fast, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in res.errors:
        print(f"failed: {message}", file=sys.stderr)
    return {
        "correct": ok and res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
