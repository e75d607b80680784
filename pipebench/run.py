#!/usr/bin/env python3
"""Pipeline benchmark for plumbtrace: end-to-end and per-layer timings.

Run from the repository root:

    python3 pipebench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Each run takes a seeded list of curves for one workload and runs it through
plumbtrace's public entry points in this process, single-threaded, as a
closed loop with one client: the next curve starts when the previous one has
finished.  The list is run in whole passes that fit in ``--seconds`` (at
least one pass).  Every output is hashed and compared with the digest
stored for that curve in ``pool.json``; a curve fails if it raises, if its
verify report does not pass, or if its digest differs.

Workloads, chosen so that each planned optimisation has one workload that
exercises it and one that bypasses it:

  campaign  ``verify`` on the acceptance-campaign mix: 500 connected curves
            with 1 <= q_tot <= 16 on four small surfaces.  Many small
            curves; evaluation dominates, validation, layout, check and
            rendering are the rest.
  deep      ``trace_of_curve`` plus rendering on the genus-two surface with
            one hole (xi = 4), 100 connected curves with q_i <= 8.
            Evaluation is nearly all of the time and traces reach
            thousands of terms.
  layout    what ``plumbtrace word`` does (validate, window twists,
            component extraction, word text) on closed genus two with
            q_i <= 256, multi-component curves included.  No evaluation.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` first runs the list untraced for half the time, then installs
spans around the calls into the layer modules and runs it again for the
other half; it prints the per-layer metrics (self seconds and counts per
pass over the list) and the traced / untraced time ratio.  The spans are
written to ``.pipebench/spans-<workload>.jsonl`` when the run ends.

Every reported time (setup_s, curves_per_s, the latencies and the per-layer
seconds) is normalised to a fixed machine speed, so it is a time in
reference units, not wall time: a reference kernel owned by this file is
timed between curves, and a time is multiplied by REFERENCE_S over the
reference's time around it (see "machine-speed calibration").  The ``meta``
line keeps the unscaled curve rate (``unscaled_curves_per_s``) and the
median factor (``speed_scale_median``): a reported time divided by that
factor, or a reported rate multiplied by it, is about the wall figure.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
starts with ``meta`` and records the kernel, Python version, CPU count,
sample count and the digests of the curve list and of its outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
POOL_FILE = HERE / "pool.json"
# the repository's surfaces, and the ones only this benchmark uses
SURFACE_DIRS = (ROOT / "surfaces", HERE / "surfaces")
SPANS_DIR = ROOT / ".pipebench"

# setup_s is the median of this many fresh imports and surface loads
SETUP_REPEATS = 7
MAX_REPORTED_FAILURES = 5
# Time the reference kernel at least this often while curves run, and scale
# every time so that the reference would have taken REFERENCE_S.
CALIBRATE_EVERY_S = 0.25
REFERENCE_S = 0.006


# -- workload operations ------------------------------------------------------
# Each takes the imported package, a surface and coordinates and returns the
# canonical output text and whether the library reported success.  They
# resolve library functions at call time so that the tracer's wrappers apply.

def op_campaign(pt, surface, coords):
    """One `plumbtrace verify --format jsonl` record."""
    report = pt.verify(surface, coords)
    record = report.to_record()
    record["kind"] = "verify"
    return json.dumps(record, sort_keys=True), report.passed


def op_deep(pt, surface, coords):
    """The text `plumbtrace trace` prints: one line per component."""
    lines = [
        f"component {idx} q={list(comp.q)} trace={trace}"
        for idx, (comp, trace) in enumerate(pt.trace_of_curve(surface, coords))
    ]
    return "\n".join(lines), True


def op_layout(pt, surface, coords):
    """The text `plumbtrace word` prints."""
    pt.validate(surface, coords)
    pt.window_twists(surface, coords)
    lines = []
    for idx, comp in enumerate(pt.extract_components(surface, coords)):
        if comp.word is None:
            lines.append(f"# component {idx}: parallel to curve {comp.parallel_to + 1}")
            continue
        lines.append(f"# component {idx}: q={list(comp.q)} phat={list(comp.phat)}")
        lines.append(pt.standardpos.word_to_text(comp.word))
    return "\n".join(lines), True


OPS = {"campaign": op_campaign, "deep": op_deep, "layout": op_layout}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- inputs -------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    surface: str
    q: tuple[int, ...]
    p: tuple[int, ...]
    expected: str  # digest of the output recorded with the benchmark


def load_pool(workload: str) -> list[list[Curve]]:
    """The workload's strata: groups of candidates of similar cost."""
    strata = json.loads(POOL_FILE.read_text())["workloads"][workload]
    return [
        [Curve(name, tuple(q), tuple(p), out) for name, q, p, out in stratum]
        for stratum in strata
    ]


def draw(strata: list[list[Curve]], workload: str, seed: int) -> list[Curve]:
    """Seeded curve list: one candidate from each stratum, in shuffled order.

    Drawing per stratum keeps the cost mix of every seed close to that of
    every other, so that seeds change the curves but not the figures.
    """
    rng = random.Random(f"{workload}:{seed}")
    curves = [rng.choice(stratum) for stratum in strata]
    rng.shuffle(curves)
    return curves


def warmup_curves(strata: list[list[Curve]]) -> dict[str, Curve]:
    """The cheapest candidate of each surface (strata are sorted by cost)."""
    out: dict[str, Curve] = {}
    for stratum in strata:
        out.setdefault(stratum[0].surface, stratum[0])
    return out


def list_digest(curves: list[Curve]) -> str:
    return digest(json.dumps([[c.surface, c.q, c.p] for c in curves]))


# -- setup --------------------------------------------------------------------

def package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "plumbtrace" or n.startswith("plumbtrace.")}


def import_fresh():
    """Import plumbtrace from the checkout's sources, dropping earlier copies."""
    for name in package_modules():
        del sys.modules[name]
    pt = importlib.import_module("plumbtrace")
    if Path(pt.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"plumbtrace was imported from {pt.__file__}, not from {SRC}")
    return pt


def surface_path(name: str) -> Path:
    for directory in SURFACE_DIRS:
        path = directory / f"{name}.surf"
        if path.exists():
            return path
    raise SystemExit(f"no surface file {name}.surf in {', '.join(map(str, SURFACE_DIRS))}")


def load_surfaces(pt, names) -> dict:
    return {name: pt.load_surface(str(surface_path(name))) for name in names}


def setup(workload: str, warmup: dict[str, Curve]):
    """Import the package, load the surfaces and fill first-call caches."""
    pt = import_fresh()
    surfaces = load_surfaces(pt, warmup)
    for curve in warmup.values():
        OPS[workload](pt, surfaces[curve.surface], pt.DTCoords(curve.q, curve.p))
    return pt, surfaces


# -- machine-speed calibration -------------------------------------------------
# The speed of a shared machine drifts by tens of percent over seconds.  A
# fixed pure-Python kernel of the same kind of work as the library's inner
# loops (dicts keyed by exponent tuples, Gaussian-integer pairs) is timed
# between curves, and each curve's time is scaled by REFERENCE_S over the
# mean of the reference times just before and after it.  The kernel shares
# no code with plumbtrace, so a change to the library cannot move it.

_REFERENCE_POLY = {
    (i % 7, i // 7 % 5, i // 35 % 4, i % 3): (7919 * i, -104729 * i) for i in range(100)
}


def _reference_kernel() -> None:
    """Square a fixed 100-term polynomial in four variables."""
    out: dict = {}
    for ma, (ar, ai) in _REFERENCE_POLY.items():
        for mb, (br, bi) in _REFERENCE_POLY.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2], ma[3] + mb[3])
            r, i = out.get(m, (0, 0))
            out[m] = (r + ar * br - ai * bi, i + ar * bi + ai * br)


def reference_time() -> float:
    """Seconds the reference kernel takes now, with the collector paused so
    that objects the library keeps alive cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


# -- tracing ------------------------------------------------------------------

def _count_components(counts, components):
    counts["standardpos.components"] += len(components)
    for comp in components:
        if comp.word is None:
            continue
        for tok in comp.word.tokens:
            counts["standardpos.tokens"] += 1
            kind = type(tok).__name__
            if kind == "Crossing":
                counts["standardpos.crossings"] += 1
            elif kind == "SccLoop":
                counts["standardpos.scc_loops"] += 1


def _count_matrix(counts, matrix):
    for entry in matrix.entries():
        counts["gausspoly.matrix_terms"] += len(entry.terms)
        for re_, im in entry.terms.values():
            bits = max(abs(re_).bit_length(), abs(im).bit_length())
            if bits > counts["gausspoly.coeff_bits_max"]:
                counts["gausspoly.coeff_bits_max"] = bits


def _count_trace(counts, poly):
    counts["gausspoly.trace_terms"] += len(poly.terms)


def _count_check(counts, report):
    counts["verifier.checks"] += 1
    counts["verifier.passed"] += bool(report.passed)


# span name, module, attribute ("Class.method" for methods), count hook.
# A name the package no longer has is skipped and its metric reads 0.
LAYER_CALLS = (
    ("surface.load", "surface", "load_surface", None),
    ("dtcoords.validate", "dtcoords", "validate", None),
    ("dtcoords.window_twists", "dtcoords", "window_twists", None),
    ("standardpos.layout", "standardpos", "layout_endpoints", None),
    ("standardpos.match", "standardpos", "match_strands", None),
    ("standardpos.extract", "standardpos", "extract_components", _count_components),
    ("standardpos.word_text", "standardpos", "word_to_text", None),
    ("standardpos.scc_count", "standardpos", "scc_count", None),
    ("holonomy.evaluate", "holonomy", "evaluate_word", _count_matrix),
    ("gausspoly.trace", "gausspoly", "Mat2.trace", _count_trace),
    ("gausspoly.sign", "gausspoly", "canonical_sign", None),
    ("gausspoly.render", "gausspoly", "GaussPoly.__str__", None),
    ("verifier.check", "verifier", "check_trace_polynomial", _count_check),
)
ROOT_SPAN = "curve"


class Tracer:
    """Spans around calls into plumbtrace's layer modules, kept in memory.

    A span is (curve id, span id, parent span id, name, start, end).  Every
    call made while one curve runs carries that curve's id; the surface
    loads of the traced setup carry id -1.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.curve = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.curve, sid, parent, name, start, end))
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def install(self, pt) -> None:
        """Replace each layer call in every plumbtrace module that binds it."""
        modules = package_modules().values()
        for name, module, attr, count in LAYER_CALLS:
            owner = getattr(pt, module, None)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = None if cls is None else cls.__dict__.get(method)
                if fn is not None:
                    self._restore.append((cls, method, fn))
                    setattr(cls, method, self.wrap(name, fn, count))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            traced = self.wrap(name, fn, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._restore):
            setattr(target, key, fn)
        self._restore.clear()

    def self_times(self, scale) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans,
        each span multiplied by scale(curve id)."""
        children: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for curve, sid, _, name, start, end in self.spans:
            out[name] += (end - start - children[sid]) * scale(curve)
        return out

    def write(self, path: Path, meta: dict) -> None:
        """One JSON line of metadata, then one line per span:
        [curve, id, parent, name, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- measurement --------------------------------------------------------------

@dataclass
class Passes:
    latencies: list[float]  # seconds per curve, as measured
    scales: list[float]  # REFERENCE_S / reference time around each curve
    passes: int
    failed: int
    output_digest: str  # digest of the first pass's output digests

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list[float]:
        return [lat * scale for lat, scale in zip(self.latencies, self.scales)]

    def per_curve(self) -> list[float]:
        """Each curve's scaled time, median over the passes."""
        scaled = self.scaled()
        size = len(scaled) // self.passes
        return [statistics.median(scaled[i::size]) for i in range(size)]


def run_passes(pt, workload, surfaces, curves, seconds, tracer=None) -> Passes:
    """Run the list in whole passes, at least one, and no further pass once
    another one as long as the last would end after `seconds`."""
    op = OPS[workload]
    if tracer is not None:
        op = tracer.wrap(ROOT_SPAN, op)
    items = [(surfaces[c.surface], pt.DTCoords(c.q, c.p), c) for c in curves]
    latencies: list[float] = []
    ref_before: list[int] = []  # per curve, index of the reference time before it
    refs = [reference_time()]
    last_ref = start = time.perf_counter()
    failed = passes = 0
    first_pass: list[str] = []
    while True:
        pass_start = time.perf_counter()
        for surface, coords, curve in items:
            if time.perf_counter() - last_ref >= CALIBRATE_EVERY_S:
                refs.append(reference_time())
                last_ref = time.perf_counter()
            ref_before.append(len(refs) - 1)
            if tracer is not None:
                tracer.curve = len(latencies)
            error = None
            t0 = time.perf_counter()
            try:
                text, ok = op(pt, surface, coords)
            except Exception:  # a failing curve is counted, not fatal
                text, ok = "", False
                error = traceback.format_exc()
            latencies.append(time.perf_counter() - t0)
            out = digest(text)
            if not passes:
                first_pass.append(out)
            if not ok or out != curve.expected:
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    reason = error or ("report failed" if not ok else f"output digest {out}")
                    print(f"FAILED {workload} {curve.surface} q={list(curve.q)} "
                          f"p={list(curve.p)}: {reason}", file=sys.stderr)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    refs.append(reference_time())
    scales = [2 * REFERENCE_S / (refs[k] + refs[k + 1]) for k in ref_before]
    return Passes(latencies, scales, passes, failed, digest("".join(first_pass)))


def timed_setup(workload, warmup):
    """setup() with its time scaled like a curve's."""
    before = reference_time()
    t0 = time.perf_counter()
    pt, surfaces = setup(workload, warmup)
    elapsed = time.perf_counter() - t0
    return pt, surfaces, elapsed * 2 * REFERENCE_S / (before + reference_time())


def end_to_end_metrics(setup_times, run: Passes) -> dict:
    deciles = statistics.quantiles(run.per_curve(), n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "curves_per_s": (run.attempted / sum(run.scaled()), "1/s"),
        "curve_p50_ms": (deciles[4] * 1e3, "ms"),
        "curve_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def per_layer_metrics(tracer: Tracer, untraced: Passes, traced: Passes) -> dict:
    passes = traced.passes
    # surface loads (curve id -1) ran just before the first traced curve
    self_s = tracer.self_times(lambda curve: traced.scales[max(curve, 0)])
    counts = tracer.counts
    metrics = {"surface.load_s": (self_s["surface.load"], "s")}
    for metric, span in (
        ("dtcoords.validate_s", "dtcoords.validate"),
        ("dtcoords.window_twists_s", "dtcoords.window_twists"),
        ("standardpos.layout_s", "standardpos.layout"),
        ("standardpos.match_s", "standardpos.match"),
        ("standardpos.walk_s", "standardpos.extract"),
        ("standardpos.word_text_s", "standardpos.word_text"),
        ("standardpos.scc_count_s", "standardpos.scc_count"),
        ("holonomy.evaluate_s", "holonomy.evaluate"),
        ("gausspoly.trace_s", "gausspoly.trace"),
        ("gausspoly.sign_s", "gausspoly.sign"),
        ("gausspoly.render_s", "gausspoly.render"),
        ("verifier.check_s", "verifier.check"),
    ):
        metrics[metric] = (self_s[span] / passes, "s")
    # every curve's spans nest in its root span, so the self times of all
    # spans but the surface loads add up to the root spans' durations
    curve_total = sum(self_s.values()) - self_s["surface.load"]
    metrics["holonomy.evaluate_share"] = (self_s["holonomy.evaluate"] / curve_total, "ratio")
    checks = counts["verifier.checks"]
    metrics["verifier.pass_ratio"] = (counts["verifier.passed"] / checks if checks else 0.0, "ratio")
    for name in (
        "standardpos.tokens",
        "standardpos.crossings",
        "standardpos.scc_loops",
        "standardpos.components",
        "gausspoly.trace_terms",
        "gausspoly.matrix_terms",
    ):
        metrics[name] = (counts[name] // passes, "count")
    metrics["gausspoly.coeff_bits_max"] = (counts["gausspoly.coeff_bits_max"], "bits")
    metrics["trace.overhead"] = (
        statistics.fmean(traced.scaled()) / statistics.fmean(untraced.scaled()),
        "ratio",
    )
    return metrics


def run_metadata(pt, args, curves, run: Passes) -> dict:
    kernel = getattr(pt, "kernel_name", None)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    per_curve = run.per_curve()
    p90 = statistics.quantiles(per_curve, n=10, method="inclusive")[8]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel": kernel() if callable(kernel) else "n/a",
        "extensions": sorted(p.name for p in Path(pt.__file__).parent.glob("*.so")),
        "python": platform.python_version(),
        "nproc": nproc,
        "curves": len(curves),
        "passes": run.passes,
        "samples": len(per_curve),
        "samples_above_p90": sum(t > p90 for t in per_curve),
        "unscaled_curves_per_s": run.attempted / sum(run.latencies),
        "speed_scale_median": statistics.median(run.scales),
        "list_digest": list_digest(curves),
        "output_digest": run.output_digest,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    strata = load_pool(args.workload)
    curves = draw(strata, args.workload, args.seed)
    warmup = warmup_curves(strata)

    for _ in range(3):  # let the interpreter specialise the reference kernel
        reference_time()
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        pt, surfaces, elapsed = timed_setup(args.workload, warmup)
        setup_times.append(elapsed)

    if args.trace:
        untraced = run_passes(pt, args.workload, surfaces, curves, args.seconds / 2)
        tracer = Tracer()
        tracer.install(pt)
        try:
            surfaces = load_surfaces(pt, surfaces)
            traced = run_passes(pt, args.workload, surfaces, curves, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer_metrics(tracer, untraced, traced)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        meta = run_metadata(pt, args, curves, traced)
        tracer.write(SPANS_DIR / f"spans-{args.workload}.jsonl", meta)
    else:
        run = run_passes(pt, args.workload, surfaces, curves, args.seconds)
        metrics = end_to_end_metrics(setup_times, run)
        attempted, failed = run.attempted, run.failed
        meta = run_metadata(pt, args, curves, run)

    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
