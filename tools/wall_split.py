#!/usr/bin/env python3
"""Wall-time split of the pipeline: validation, extraction, evaluation, text.

Run from the repository root, against the sources of any checkout:

    python3 tools/wall_split.py --src src --workload deep --seed 1

It draws the benchmark's seeded curve list for the workload (the strata in
``pipebench/pool.json``, drawn as ``pipebench/run.py`` draws them) and
times the layers over the whole list, each the best of ``--repeat``
passes.  Every workload reports ``validate`` of every curve (``verify``
validates each curve twice, once for its word and once for the
same-boundary count) and ``extract_components`` of every curve.  On
``deep`` and ``campaign`` it adds ``word_trace`` of every word and ``str``
of every trace; the benchmark's own spans do not wrap ``word_trace``, so
this split is the attribution of the evaluation time.  On ``campaign`` it
also times ``check_trace_polynomial`` of every trace, the top-term check
of ``verify``.  A packed trace reads its slots on first use and keeps
them, so each pass of ``str`` and of the check runs on fresh
``GaussPoly.from_packed`` copies, made outside the timed region: each of
the two times includes one slot read per trace, which ``verify`` makes
once, in the check.  On ``layout`` it adds ``word_to_text`` of every
word, the last stage of ``plumbtrace word``.  A token keeps its line once
formatted, so each pass of ``word_to_text`` runs on words extracted
afresh, outside the timed region: like ``plumbtrace word``, each pass
formats every token instance once.  Prints one JSON object of wall
seconds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    """pipebench/run.py as a module, for its pool and its seeded draw."""
    spec = importlib.util.spec_from_file_location("pipebench_run", ROOT / "pipebench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def best(repeat: int, fn, fresh=lambda: None) -> float:
    """The least time of `repeat` calls fn(fresh()), fresh() left untimed."""
    times = []
    for _ in range(repeat):
        arg = fresh()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding plumbtrace")
    parser.add_argument("--workload", choices=("deep", "campaign", "layout"), default="deep")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.src).resolve()))
    import plumbtrace as pt
    from plumbtrace.holonomy import word_trace
    from plumbtrace.standardpos import word_to_text
    from plumbtrace.verifier import check_trace_polynomial

    bench = load_bench()
    curves = bench.draw(bench.load_pool(args.workload), args.workload, args.seed)
    surfaces = {c.surface: pt.load_surface(str(bench.surface_path(c.surface))) for c in curves}
    items = [(surfaces[c.surface], pt.DTCoords(c.q, c.p)) for c in curves]

    def extracted():
        return [
            (surface, coords, comp)
            for surface, coords in items
            for comp in pt.extract_components(surface, coords)
            if comp.word is not None
        ]

    comps = extracted()
    words = [comp.word for _, _, comp in comps]
    split = {
        "validate_s": best(args.repeat, lambda _: [pt.validate(s, c) for s, c in items]),
        "extract_s": best(args.repeat, lambda _: [pt.extract_components(s, c) for s, c in items]),
    }
    if args.workload == "layout":
        split["word_text_s"] = best(
            args.repeat,
            lambda ws: [word_to_text(w) for w in ws],
            lambda: [comp.word for _, _, comp in extracted()],
        )
    else:
        traces = [word_trace(w) for w in words]

        def fresh():
            return [pt.GaussPoly.from_packed(t.arity, *t._packed) for t in traces]

        split["word_trace_s"] = best(args.repeat, lambda _: [word_trace(w) for w in words])
        split["render_s"] = best(args.repeat, lambda ts: [str(t) for t in ts], fresh)
    if args.workload == "campaign":
        clauses = [(comp.q, coords.p, pt.scc_count(s, coords)) for s, coords, comp in comps]
        split["check_s"] = best(
            args.repeat,
            lambda ts: [check_trace_polynomial(t, *c) for t, c in zip(ts, clauses)],
            fresh,
        )
    print(json.dumps({"workload": args.workload, "seed": args.seed, "curves": len(items),
                      "words": len(words), **{k: round(v, 4) for k, v in split.items()}}))


if __name__ == "__main__":
    main()
