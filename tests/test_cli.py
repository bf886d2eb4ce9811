"""Command line behavior: round trips, reports, exit codes, SVG output."""

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
    assert "cover_optima_tried: 1" in out
    assert "critical_regions: 1" in out
    assert "patch_tracks: 1" in out


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
    capsys.readouterr()


def test_bad_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4\n0 0\n2 0\n2 2\n1 1\n")
    assert main(["solve", str(path)]) == 2
    assert main(["solve", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_gen_rejects_odd_vertex_count(capsys):
    import pytest

    with pytest.raises(SystemExit):
        main(["gen", "--seed", "1", "--vertices", "7"])
    capsys.readouterr()


def test_gen_give_up_exit_code(monkeypatch, capsys):
    def give_up(seed, vertices):
        raise RuntimeError(f"gave up generating a {vertices}-vertex polygon")

    monkeypatch.setattr("slidecam.cli.generate_polygon", give_up)
    assert main(["gen", "--seed", "1", "--vertices", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gave up generating a 2000-vertex polygon\n"
