"""Each entry point validates a curve once and reads every later stage's
arc pattern from that one pass."""

import sys
from pathlib import Path

import pytest

from plumbtrace import cli, dtcoords
from plumbtrace.fuzz import FuzzConfig, random_coords
from plumbtrace.holonomy import trace_of_curve
from plumbtrace.surface import load_surface
from plumbtrace.verifier import verify

SURFACES = sorted(
    str(p) for p in (Path(__file__).resolve().parent.parent / "surfaces").glob("*.surf")
)


@pytest.fixture
def calls(monkeypatch):
    """Count calls of `dtcoords.validate`, under every name a plumbtrace
    module binds it to, and of `dtcoords.arc_counts`."""
    counts = {"validate": 0, "arc_counts": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    validate = dtcoords.validate
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "plumbtrace" and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counted("validate", validate))
    monkeypatch.setattr(dtcoords, "arc_counts", counted("arc_counts", dtcoords.arc_counts))
    return counts


def connected_curve(path):
    surface = load_surface(path)
    cfg = FuzzConfig(surface, seed=4, max_q=4, count=1, connected_only=True)
    return surface, random_coords(cfg)[0]


@pytest.mark.parametrize("path", SURFACES)
def test_trace_of_curve_validates_once(calls, path):
    surface, coords = connected_curve(path)
    calls.update(validate=0, arc_counts=0)
    trace_of_curve(surface, coords)
    assert calls == {"validate": 1, "arc_counts": surface.pants_count}


@pytest.mark.parametrize("path", SURFACES)
def test_word_command_validates_once(calls, capsys, path):
    surface, coords = connected_curve(path)
    calls.update(validate=0, arc_counts=0)
    q = ",".join(map(str, coords.q))
    p = ",".join(map(str, coords.p))
    assert cli.run(["word", "--surface", path, f"--q={q}", f"--p={p}"]) == 0
    assert capsys.readouterr().out.startswith("# component 0")
    assert calls == {"validate": 1, "arc_counts": surface.pants_count}


@pytest.mark.parametrize("path", SURFACES)
def test_verify_validates_twice(calls, path):
    # the second pass is the same-boundary count h, taken from the
    # coordinates rather than from the compiled word it checks
    surface, coords = connected_curve(path)
    calls.update(validate=0, arc_counts=0)
    assert verify(surface, coords).passed
    assert calls == {"validate": 2, "arc_counts": 2 * surface.pants_count}
