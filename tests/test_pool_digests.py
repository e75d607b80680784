"""Every output digest stored in the benchmark's pool matches the library.

``pipebench/run.py`` checks only the candidates that one seed draws, one
per stratum; this runs every candidate of every workload through the same
operation (``run.OPS``) with the ``plumbtrace`` the tests import, and
compares the digest of its text (``run.digest``) with the stored one.  The
benchmark module is loaded from its file under its own name; its ``setup``
and ``import_fresh``, which re-import the package, are never called.
"""

import importlib.util
import sys

import pytest

import plumbtrace
from tests_support import ROOT


# the pool's candidates per workload
CANDIDATES = {"campaign": 1000, "deep": 200, "layout": 600}


def load_run():
    path = ROOT / "pipebench" / "run.py"
    spec = importlib.util.spec_from_file_location("pipebench_run_for_pool_digests", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


run = load_run()


@pytest.mark.parametrize("workload", sorted(run.OPS))
def test_every_pool_digest_matches(workload):
    candidates = [curve for stratum in run.load_pool(workload) for curve in stratum]
    assert len(candidates) == CANDIDATES[workload]
    surfaces = run.load_surfaces(plumbtrace, {curve.surface for curve in candidates})
    op = run.OPS[workload]
    for curve in candidates:
        text, ok = op(plumbtrace, surfaces[curve.surface], plumbtrace.DTCoords(curve.q, curve.p))
        assert ok and run.digest(text) == curve.expected, curve
