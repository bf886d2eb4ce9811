"""Command line interface.

Subcommands: solve a polygon file, generate a random instance, and verify
the approximation bounds (verify solves once and checks the result against
the brute-force optima). Exit codes: 0 ok, 1 a bound was violated, 2 bad
input (or, for gen, a vertex count the generator gave up on), 3 an internal
check failed or an unexpected exception, printed with its traceback, 4 the
solver's search exceeded its cap (TooLarge) or, under verify --strict, an
oracle cap was exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

from .errors import ParseError, PolygonError, SlidecamError, TooLarge
from .generator import generate_polygon
from .oracles import NODE_CAP, TRACK_CAP
from .oracles import opt_cameras, opt_grid_cover, opt_guarded_cameras, opt_region_cover
from .pipeline import checked_cover, run_pipeline, watched_cover
from .polyfile import format_polygon, parse_polygon
from .svg import render_run
# Unused here: perfbench/spans.py wraps both names on this module.
from .pipeline import guarded_camera_cover  # noqa: F401
from .visibility import covers_polygon  # noqa: F401

OK = 0
BOUND_VIOLATION = 1
BAD_INPUT = 2
INTERNAL = 3
CAP_EXCEEDED = 4


def _load(path: str):
    return parse_polygon(Path(path).read_text())


def _report_lines(name: str, run) -> list[str]:
    s = run.stats
    lines = [
        f"instance: {name}",
        f"vertices: {s.vertex_count}",
        f"reflex_vertices: {s.reflex_count}",
        f"reflex_chords: {s.chord_count}",
        f"grid_tracks: {s.grid_size}",
        f"grid_edges: {s.edge_count}",
        f"cover_tracks: {s.cover_size}",
        f"critical_regions: {s.critical_count}",
        f"patch_tracks: {s.patch_size}",
    ]
    lines.extend(
        f"time_{phase}: {seconds:.6f}" for phase, seconds in s.phase_seconds.items()
    )
    return lines


def cmd_solve(args) -> int:
    P = _load(args.file)
    run = run_pipeline(P)
    start = time.perf_counter()
    cameras = checked_cover(run).cameras
    check_seconds = time.perf_counter() - start
    for cam in cameras:
        print(cam)
    if args.report:
        print(f"total_cameras: {len(cameras)}")
        for line in _report_lines(Path(args.file).stem, run):
            print(line)
        print(f"time_check: {check_seconds:.6f}")
    if args.svg:
        Path(args.svg).write_text(render_run(run))
    if args.check:
        print("coverage: ok")
    return OK


def cmd_gen(args) -> int:
    # Only the generator's give-up is bad input; any other RuntimeError is
    # a bug, which main reports as an internal error.
    try:
        P = generate_polygon(args.seed, args.vertices)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT
    sys.stdout.write(format_polygon(P))
    return OK


def cmd_verify(args) -> int:
    P = _load(args.file)
    run = run_pipeline(P)
    found = checked_cover(run)
    guarded = watched_cover(P, found)
    track_cap = args.cap or TRACK_CAP
    node_cap = args.cap or NODE_CAP

    failures = []
    skipped = []

    def optimum(name: str, oracle, *oracle_args):
        """The oracle's value, or None after noting the skip when it is capped."""
        try:
            return oracle(*oracle_args)[0]
        except TooLarge as e:
            skipped.append(f"{name}: skipped ({e})")
            return None

    def bound(name: str, lhs: int, num: int, opt: int | None, den: int) -> None:
        if opt is None:
            return
        # lhs <= floor(num/den * opt), in integers
        ok = den * lhs <= num * opt
        print(f"{name}: {lhs} vs optimum {opt}, ratio {lhs / opt:.3f} "
              f"(allowed {num / den:.1f})")
        if not ok:
            failures.append(name)

    # The oracles are looked up here, at call time, so that a wrapper set on
    # this module's attribute (perfbench/spans.py) sees the call.
    msc_val = optimum("cover_bound", opt_cameras, P, track_cap)
    bound("cover_bound", len(found.cameras), 7, msc_val, 2)
    mgsc_val = optimum("guarded_bound", opt_guarded_cameras, P, track_cap)
    bound("guarded_bound", len(guarded.cameras), 5, mgsc_val, 2)
    mmgg_val = optimum("chain", opt_grid_cover, run.graph, node_cap)
    if run.regions:
        crit_val = optimum("patch_bound", opt_region_cover, P, run.regions, track_cap)
        bound("patch_bound", len(run.patch_segments), 3, crit_val, 2)
    if mmgg_val is not None and mgsc_val is not None:
        print(f"chain: grid {mmgg_val} <= guarded {mgsc_val}", end="")
        if mmgg_val > mgsc_val:
            failures.append("chain_grid_guarded")
        if msc_val is not None:
            print(f" <= 2x cover {msc_val}", end="")
            if mgsc_val > 2 * msc_val:
                failures.append("chain_guarded_cover")
        print()
    for line in skipped:
        print(line)
    if failures:
        print("bound violations: " + ", ".join(failures), file=sys.stderr)
        return BOUND_VIOLATION
    if skipped and args.strict:
        return CAP_EXCEEDED
    print("ok")
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidecam",
        description="Guard simple orthogonal polygons with sliding cameras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a camera set for a polygon file")
    p_solve.add_argument("file")
    p_solve.add_argument("--report", action="store_true", help="print run statistics")
    p_solve.add_argument("--svg", metavar="PATH", help="write a rendering")
    p_solve.add_argument("--check", action="store_true",
                         help="print 'coverage: ok' (the check always runs)")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random polygon file")
    p_gen.add_argument("--seed", type=int, required=True,
                       help="non-negative integer")
    p_gen.add_argument("--vertices", type=int, required=True,
                       help="even vertex count, at least 4; growth is capped "
                       "at 4x this many cells, so large counts can fail: "
                       "2000 with seed 1 gives up after 200 attempts "
                       "(about 5 minutes) and exits 2 (ROADMAP item 3)")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser(
        "verify", help="check the approximation bounds against brute force"
    )
    p_verify.add_argument("file")
    p_verify.add_argument("--strict", action="store_true",
                          help="fail when an oracle cap is exceeded")
    p_verify.add_argument("--cap", type=int, default=0,
                          help="override the oracle size caps (default: "
                          f"{TRACK_CAP} candidate tracks, {NODE_CAP} grid nodes)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


PARSER = _build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    if args.func is cmd_gen and args.seed < 0:
        PARSER.error("--seed must not be negative")
    if args.func is cmd_gen and (args.vertices < 4 or args.vertices % 2):
        PARSER.error("--vertices must be even and at least 4")
    if args.func is cmd_verify and args.cap < 0:
        PARSER.error("--cap must not be negative")
    try:
        return args.func(args)
    except (ParseError, PolygonError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT
    except TooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return CAP_EXCEEDED
    except (SlidecamError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return INTERNAL
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
