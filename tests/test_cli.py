"""Command line behavior: round trips, reports, exit codes, SVG output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import slidecam as sc
from slidecam.cli import main
from conftest import EAR


def write_poly(tmp_path, verts, name="poly.txt"):
    P = sc.validate_polygon(verts)
    path = tmp_path / name
    path.write_text(sc.format_polygon(P))
    return path


def test_gen_solve_round_trip(tmp_path, capsys):
    assert main(["gen", "--seed", "7", "--vertices", "12"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.txt"
    path.write_text(text)
    assert main(["solve", str(path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "coverage: ok" in out
    cams = [ln for ln in out.splitlines() if ln and not ln.startswith("coverage")]
    assert cams == [str(s) for s in sc.camera_cover(sc.parse_polygon(text)).cameras]


def test_solve_report(tmp_path, capsys):
    path = write_poly(tmp_path, EAR)
    assert main(["solve", str(path), "--report"]) == 0
    out = capsys.readouterr().out
    assert "total_cameras: 3" in out
    assert "grid_tracks: 4" in out
    assert "grid_edges: 4" in out
    assert "critical_regions: 1" in out
    assert "patch_tracks: 1" in out
    # the final coverage check is timed after the pipeline's phases
    lines = out.splitlines()
    times = [line.split(":")[0] for line in lines if line.startswith("time_")]
    assert times == ["time_chords", "time_prune", "time_graph", "time_cover",
                     "time_patch", "time_check"]
    assert float(lines[-1].split(": ")[1]) >= 0


def test_solve_svg_deterministic(tmp_path, capsys):
    path = write_poly(tmp_path, EAR)
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    assert main(["solve", str(path), "--svg", str(svg1)]) == 0
    assert main(["solve", str(path), "--svg", str(svg2)]) == 0
    capsys.readouterr()
    data = svg1.read_text()
    assert data == svg2.read_text()
    assert data.startswith("<svg") and data.rstrip().endswith("</svg>")


def test_verify_reports_bounds(tmp_path, capsys):
    path = write_poly(tmp_path, EAR)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cover_bound: 3 vs optimum 2" in out
    assert "guarded_bound:" in out
    assert "patch_bound: 1 vs optimum 1" in out
    assert "chain: grid 2 <= guarded 2 <= 2x cover 2" in out
    assert out.rstrip().endswith("ok")


def test_verify_strict_cap(tmp_path, capsys):
    from conftest import comb_polygon

    P = comb_polygon(22)
    path = tmp_path / "comb.txt"
    path.write_text(sc.format_polygon(P))
    assert main(["verify", str(path)]) == 0
    assert main(["verify", str(path), "--strict"]) == 4
    assert main(["verify", str(path), "--strict", "--cap", "40"]) == 0
    # the parser is shared between calls: the cap must not carry over
    assert main(["verify", str(path), "--strict"]) == 4
    capsys.readouterr()


def test_verify_cap_zero_skips_every_oracle(capsys):
    path = str(Path(__file__).parent / "data" / "nonstaircase_36.poly")
    skips = (
        "cover_bound: skipped (11 candidate tracks exceed the cap of 0)\n"
        "guarded_bound: skipped (11 candidate tracks exceed the cap of 0)\n"
        "chain: skipped (11 nodes exceed the cap of 0)\n"
        "patch_bound: skipped (11 candidate tracks exceed the cap of 0)\n"
    )
    assert main(["verify", "--cap", "0", "--strict", path]) == 4
    assert capsys.readouterr().out == skips
    assert main(["verify", "--cap", "0", path]) == 0
    assert capsys.readouterr().out == skips + "ok\n"


def test_solve_and_verify_where_no_optimum_leaves_only_staircases(capsys):
    # The 36-vertex polygon's only grid optimum leaves a non-staircase
    # piece, and none of the first 5,000 optima of the 3000-vertex one
    # leaves only staircases.
    data = Path(__file__).parent / "data"
    assert main(["verify", "--strict", str(data / "nonstaircase_36.poly")]) == 0
    assert capsys.readouterr().out.endswith("ok\n")
    assert main(["solve", str(data / "generated_1_3000.poly"), "--check"]) == 0
    assert capsys.readouterr().out.endswith("coverage: ok\n")


def test_bad_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4\n0 0\n2 0\n2 2\n1 1\n")
    assert main(["solve", str(path)]) == 2
    assert main(["solve", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_undecodable_files_and_nul_paths_are_bad_input(tmp_path, capsys):
    import pytest

    path = tmp_path / "latin1.poly"
    path.write_bytes(b"4 # carr\xe9\n0 0\n2 0\n2 2\n0 2\n")
    for command in ("solve", "verify"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode")
    good = str(write_poly(tmp_path, EAR))
    for argv in (
        ["solve", good + "\0"],
        ["verify", good + "\0"],
        ["solve", good, "--svg", str(tmp_path / "out\0.svg")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "NUL byte" in capsys.readouterr().err


def test_gen_rejects_odd_vertex_count(capsys):
    import pytest

    with pytest.raises(SystemExit):
        main(["gen", "--seed", "1", "--vertices", "7"])
    capsys.readouterr()


def test_gen_rejects_negative_seed(capsys):
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["gen", "--seed", "-1", "--vertices", "40"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_gen_give_up_exit_code(monkeypatch, capsys):
    def give_up(seed, vertices):
        raise RuntimeError(f"gave up generating a {vertices}-vertex polygon")

    monkeypatch.setattr("slidecam.cli.generate_polygon", give_up)
    assert main(["gen", "--seed", "1", "--vertices", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gave up generating a 2000-vertex polygon\n"


def test_verify_rejects_negative_cap(tmp_path, capsys):
    import pytest

    path = write_poly(tmp_path, EAR)
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), "--cap", "-3"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


def test_each_command_runs_the_pipeline_once(tmp_path, monkeypatch, capsys):
    import slidecam.cli
    import slidecam.pipeline

    calls = []
    real = slidecam.pipeline.run_pipeline

    def counted(P):
        calls.append(P)
        return real(P)

    # the CLI and the pipeline module each look the name up in their own
    # namespace, so count calls made through either
    monkeypatch.setattr(slidecam.cli, "run_pipeline", counted)
    monkeypatch.setattr(slidecam.pipeline, "run_pipeline", counted)
    path = write_poly(tmp_path, EAR)
    for command in ("solve", "verify"):
        calls.clear()
        assert main([command, str(path)]) == 0
        assert len(calls) == 1, command
    capsys.readouterr()


def test_verify_looks_the_oracles_up_when_it_runs(tmp_path, monkeypatch, capsys):
    # the benchmark's tracer wraps the cli module's oracle names after import
    import slidecam.cli

    oracles = ("opt_cameras", "opt_guarded_cameras", "opt_grid_cover", "opt_region_cover")
    calls = []
    for name in oracles:
        real = getattr(slidecam.cli, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(slidecam.cli, name, counted)
    assert main(["verify", str(write_poly(tmp_path, EAR))]) == 0
    assert tuple(calls) == oracles
    capsys.readouterr()


def test_failed_internal_checks_exit_3(tmp_path, monkeypatch, capsys):
    path = write_poly(tmp_path, EAR)
    with monkeypatch.context() as m:
        m.setattr("slidecam.pipeline.covers_polygon", lambda P, cameras: False)
        for command in ("solve", "verify"):
            assert main([command, str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("internal error: ")
    monkeypatch.setattr("slidecam.pipeline.camera_guards_camera", lambda P, g, t: False)
    assert main(["verify", str(path)]) == 3
    assert "internal error: " in capsys.readouterr().err


def test_unexpected_exceptions_exit_3_with_a_traceback(tmp_path, monkeypatch, capsys):
    # Exit 1 means a bound was violated; a bug must not read as one.
    def boom(P):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("slidecam.cli.run_pipeline", boom)
    assert main(["solve", str(write_poly(tmp_path, EAR))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:\n")
    assert "Traceback" in captured.err and "RecursionError" in captured.err


def test_an_internal_value_error_exits_3_with_a_traceback(tmp_path, monkeypatch, capsys):
    # Only the file layer's ValueErrors are bad input; one from the solve is
    # a bug.
    def boom(P):
        raise ValueError("internal bug")

    monkeypatch.setattr("slidecam.cli.run_pipeline", boom)
    for command in ("solve", "verify"):
        assert main([command, str(Path(__file__).parent / "data" / "nonstaircase_36.poly")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:\n")
        assert "Traceback" in captured.err and "ValueError: internal bug" in captured.err


def test_solve_the_thousand_track_serpentine(capsys):
    path = Path(__file__).parent / "data" / "serpentine_4000.poly"
    assert main(["solve", str(path), "--check"]) == 0
    assert capsys.readouterr().out.endswith("coverage: ok\n")


def run_python(args, cwd, **env):
    """Run a fresh interpreter on args with this checkout's src/ first on
    its path and env added to the environment; returns the finished
    process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_the_package_loads_nothing_outside_the_standard_library(tmp_path):
    script = (
        "import importlib, json, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import slidecam\n"
        "for m in pkgutil.iter_modules(slidecam.__path__):\n"
        "    importlib.import_module('slidecam.' + m.name)\n"
        "print(json.dumps(sorted({n.partition('.')[0] for n in set(sys.modules) - before})))\n"
    )
    proc = run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "slidecam" in loaded
    assert {name for name in loaded if name not in sys.stdlib_module_names} == {"slidecam"}


def test_the_module_entry_point_generates_solves_and_verifies(tmp_path):
    gen = run_python(["-m", "slidecam.cli", "gen", "--seed", "3", "--vertices", "20"], tmp_path)
    assert gen.returncode == 0, gen.stderr
    (tmp_path / "g.poly").write_text(gen.stdout)
    solve = run_python(["-m", "slidecam.cli", "solve", "g.poly", "--check"], tmp_path)
    assert solve.returncode == 0, solve.stderr
    assert solve.stdout.splitlines()[-1] == "coverage: ok"
    verify = run_python(["-m", "slidecam.cli", "verify", "g.poly"], tmp_path)
    assert verify.returncode == 0, verify.stderr
    assert verify.stdout.splitlines()[-1] == "ok"


def test_a_utf8_comment_solves_under_the_c_locale(tmp_path, capsys):
    # Polygon files are UTF-8 whatever the locale's codec, and "#" may start
    # any text.
    path = tmp_path / "square.poly"
    path.write_bytes("4 # carré\n0 0\n2 0\n2 2\n0 2\n".encode("utf-8"))
    assert main(["solve", str(path)]) == 0
    want = capsys.readouterr().out
    assert want == "V 0 0 2\n"
    proc = run_python(
        ["-m", "slidecam.cli", "solve", str(path)],
        tmp_path,
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONUTF8="0",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
