"""Every stage of the solver on the ear polygon, narrated.

This is the shape from the test suite whose smallest grid cover leaves a
dark pocket, so all five stages have something to show. Run it from the
repo root:

    python3 demos/walkthrough.py
"""

import slidecam as sc

EAR = [
    (0, 1), (1, 1), (1, 2), (3, 2), (3, 0), (4, 0),
    (4, 1), (5, 1), (5, 2), (4, 2), (4, 3), (6, 3),
    (6, 4), (3, 4), (3, 5), (2, 5), (2, 3), (0, 3),
]


def main() -> None:
    P = sc.validate_polygon(EAR)
    print(f"polygon: {P.n} vertices, {len(sc.reflex_vertices(P))} reflex")

    chords = sc.reflex_chords(P)
    print(f"\nmaximal chords through reflex vertices ({len(chords)}):")
    for c in chords:
        print(f"  {c}")

    run = sc.run_pipeline(P)
    print(f"\npruned grid ({len(run.grid.segments)} tracks):")
    reflex = sc.reflex_vertices(P)
    for s in run.grid.segments:
        # A reflex vertex on a maximal chord has that chord as its own.
        origins = sorted(v for v in reflex if s.contains(v))
        pts = ", ".join(f"({p.x},{p.y})" for p in origins)
        print(f"  {s}   from reflex {pts}")

    print(f"\ncrossings: {run.graph.edges}")
    print(f"grid cover (smallest guarded set): {run.chosen}")
    for i in run.chosen:
        print(f"  {run.grid.segments[i]}")

    print("\nleft dark by the cover:")
    for r in run.regions:
        print(f"  rectangles {r.rects}  staircase={sc.is_staircase(r)}")
    print(f"patch tracks: {[str(s) for s in run.patch_segments]}")

    cameras, provenance = sc.merged_cameras(run)
    print(f"\nfinal cameras ({len(cameras)}):")
    for cam, src in zip(cameras, provenance):
        print(f"  {cam}   [{src}]")
    print(f"covers the polygon: {sc.covers_polygon(P, cameras)}")

    opt, witness = sc.opt_cameras(P)
    print(f"\nbrute-force optimum: {opt} ({', '.join(map(str, witness))})")
    print(f"ratio: {len(cameras) / opt:.2f} (bound 3.5)")


if __name__ == "__main__":
    main()
