"""The demo scripts still run, and the committed gallery is what the
solver draws today."""

import runpy
from pathlib import Path

import pytest

import slidecam as sc

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["walkthrough.py", "ratio_sweep.py"])
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out


def test_gallery_matches_committed_svgs():
    gallery = runpy.run_path(str(DEMOS / "gallery.py"))
    polys = [(name, sc.validate_polygon(v)) for name, v in gallery["SHAPES"].items()]
    polys += [(name, sc.generate_polygon(seed, n)) for name, seed, n in gallery["GENERATED"]]
    assert len(polys) == len(list((DEMOS / "gallery").glob("*.svg")))
    for name, P in polys:
        want = (DEMOS / "gallery" / f"{name}.svg").read_text()
        assert sc.render_run(sc.run_pipeline(P)) == want, name
