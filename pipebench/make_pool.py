#!/usr/bin/env python3
"""Regenerate pipebench/pool.json: each workload's candidate curves and the
digest of each curve's expected output.

Run from the repository root:

    python3 pipebench/make_pool.py

The benchmark checks every output against the digests stored here, so run
this only to redefine a workload, and only on a commit whose outputs are
trusted.  Candidates come from the benchmark's own rejection sampler with a
fixed seed per surface, so a change to plumbtrace's sampler cannot swap a
workload.  Each candidate is timed the way the benchmark times it, candidates
of one surface are grouped into strata of PICK with similar cost, and a
benchmark run takes one candidate from every stratum.  Candidates and
digests come out the same on every run; the grouping follows the timings.
"""

from __future__ import annotations

import json
import random
import statistics
import sys

import run

PICK = 2  # candidates per stratum
COST_PASSES = 5


# surfaces with their max q, then the twist range, whether curves must be
# connected with 1 <= q_tot <= max_q_tot, and candidates per surface.
# Candidates may repeat, as in the acceptance campaign: the small surfaces
# have fewer distinct connected curves than candidates.
SPECS = {
    "campaign": dict(
        surfaces=(("one_holed_torus", 16), ("four_holed_sphere", 16),
                  ("twice_holed_torus", 8), ("genus_two", 5)),
        max_abs_p=10, connected=True, max_q_tot=16, per_surface=250,
    ),
    "deep": dict(
        surfaces=(("genus_two_one_hole", 8),),
        max_abs_p=8, connected=True, max_q_tot=32, per_surface=200,
    ),
    "layout": dict(
        surfaces=(("genus_two", 256),),
        max_abs_p=256, connected=False, max_q_tot=None, per_surface=600,
    ),
}


def sample(pt, surface, rng, max_q, max_abs_p, connected, max_q_tot):
    """Uniform q and p, kept only when validate and window_twists accept
    them (and, for connected workloads, when the curve is connected)."""
    while True:
        q = tuple(rng.randint(0, max_q) for _ in range(surface.xi))
        p = tuple(rng.randint(-max_abs_p, max_abs_p) for _ in range(surface.xi))
        if connected and not 1 <= sum(q) <= max_q_tot:
            continue
        coords = pt.DTCoords(q, p)
        try:
            pt.validate(surface, coords)
            pt.window_twists(surface, coords)
        except pt.CoordError:
            continue
        if connected and len(pt.extract_components(surface, coords)) != 1:
            continue
        return coords


def make_workload(pt, workload: str, spec: dict) -> list[list]:
    op = run.OPS[workload]
    surfaces = run.load_surfaces(pt, [name for name, _ in spec["surfaces"]])
    curves = []
    for name, max_q in spec["surfaces"]:
        surface = surfaces[name]
        rng = random.Random(f"pipebench-pool:{workload}:{name}")
        for _ in range(spec["per_surface"]):
            coords = sample(pt, surface, rng, max_q, spec["max_abs_p"],
                            spec["connected"], spec["max_q_tot"])
            text, ok = op(pt, surface, coords)
            if not ok:
                raise SystemExit(f"{workload}: {name} {coords} fails on this commit")
            curves.append(run.Curve(name, coords.q, coords.p, run.digest(text)))
    # cost: the benchmark's own scaled time, median over COST_PASSES passes
    times = [run.run_passes(pt, workload, surfaces, curves, 0).per_curve()
             for _ in range(COST_PASSES)]
    cost = [statistics.median(t[k] for t in times) for k in range(len(curves))]
    strata = []
    for name, _ in spec["surfaces"]:
        ranked = sorted((k for k, c in enumerate(curves) if c.surface == name), key=cost.__getitem__)
        for start in range(0, len(ranked), PICK):
            group = ranked[start:start + PICK]
            strata.append((statistics.fmean(cost[k] for k in group), group))
    strata.sort(key=lambda stratum: stratum[0])
    return [
        [[curves[k].surface, list(curves[k].q), list(curves[k].p), curves[k].expected] for k in group]
        for _, group in strata
    ]


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    pt = run.import_fresh()
    pools = {w: make_workload(pt, w, spec) for w, spec in SPECS.items()}
    lines = ['{"workloads": {']
    for w_idx, (workload, strata) in enumerate(pools.items()):
        lines.append(f' "{workload}": [')
        lines.extend(
            "  " + json.dumps(stratum) + ("," if k + 1 < len(strata) else "")
            for k, stratum in enumerate(strata)
        )
        lines.append(" ]" + ("," if w_idx + 1 < len(pools) else ""))
    lines.append("}}")
    run.POOL_FILE.write_text("\n".join(lines) + "\n")
    for workload, strata in pools.items():
        print(f"{workload}: {len(strata)} strata of {PICK}")


if __name__ == "__main__":
    main()
