"""Each entry point validates a curve once and reads every later stage's
arc pattern from that one pass, and evaluates each word once, through
``holonomy.evaluate_word`` and ``Mat2.trace``: the two calls the
benchmark's tracer wraps to time evaluation and the trace, so an entry
point that went round them would leave those spans empty."""

import sys

import pytest

from plumbtrace import cli, dtcoords, holonomy
from plumbtrace.dtcoords import DTCoords
from plumbtrace.fuzz import random_coords
from plumbtrace.gausspoly import Mat2
from plumbtrace.holonomy import trace_of_curve
from plumbtrace.standardpos import extract_components
from plumbtrace.verifier import verify
from tests_support import STOCK, stock, stock_file

# curves with more than one component: two parallel copies of one word; four
# components, two of them copies; one component parallel to a pants curve
MULTI = [
    ("one_holed_torus", (2,), (0,)),
    ("genus_two", (6, 1, 1), (6, 5, -7)),
    ("four_holed_sphere", (0,), (1,)),
]


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


def connected_curve(name):
    surface = stock(name)
    return surface, random_coords(surface, seed=4, max_q=4, count=1, connected_only=True)[0]


@pytest.mark.parametrize("name", STOCK)
def test_trace_of_curve_validates_once(calls, name):
    surface, coords = connected_curve(name)
    calls.update(validate=0, arc_counts=0)
    trace_of_curve(surface, coords)
    assert calls == {"validate": 1, "arc_counts": surface.pants_count}


@pytest.mark.parametrize("name", STOCK)
def test_word_command_validates_once(calls, capsys, name):
    surface, coords = connected_curve(name)
    calls.update(validate=0, arc_counts=0)
    q = ",".join(map(str, coords.q))
    p = ",".join(map(str, coords.p))
    assert cli.run(["word", "--surface", stock_file(name), f"--q={q}", f"--p={p}"]) == 0
    assert capsys.readouterr().out.startswith("# component 0")
    assert calls == {"validate": 1, "arc_counts": surface.pants_count}


@pytest.mark.parametrize("name", STOCK)
def test_verify_validates_twice(calls, name):
    # the second pass is the same-boundary count h, taken from the
    # coordinates rather than from the compiled word it checks
    surface, coords = connected_curve(name)
    calls.update(validate=0, arc_counts=0)
    assert verify(surface, coords).passed
    assert calls == {"validate": 2, "arc_counts": 2 * surface.pants_count}


@pytest.fixture
def evaluations(monkeypatch):
    """Count calls of `holonomy.evaluate_word`, under every name a
    plumbtrace module binds it to, and of `Mat2.trace`."""
    counts = {"evaluate_word": 0, "trace": 0}
    evaluate_word, trace = holonomy.evaluate_word, Mat2.trace

    def counted_evaluate(word):
        counts["evaluate_word"] += 1
        return evaluate_word(word)

    def counted_trace(matrix):
        counts["trace"] += 1
        return trace(matrix)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "plumbtrace" and getattr(module, "evaluate_word", None) is evaluate_word:
            monkeypatch.setattr(module, "evaluate_word", counted_evaluate)
    monkeypatch.setattr(Mat2, "trace", counted_trace)
    return counts


def curves():
    """(stock surface name, coordinates): each stock surface's connected
    curve, then the MULTI curves."""
    out = [(name, connected_curve(name)[1]) for name in STOCK]
    out += [(name, DTCoords(q, p)) for name, q, p in MULTI]
    return out


def word_count(surface, coords):
    return sum(c.word is not None for c in extract_components(surface, coords))


def test_verify_evaluates_its_word_once(evaluations):
    for name in STOCK:
        surface, coords = connected_curve(name)
        evaluations.update(evaluate_word=0, trace=0)
        assert verify(surface, coords).passed
        assert evaluations == {"evaluate_word": 1, "trace": 1}, name


def test_trace_of_curve_evaluates_each_word_once(evaluations):
    for name, coords in curves():
        surface = stock(name)
        words = word_count(surface, coords)
        evaluations.update(evaluate_word=0, trace=0)
        trace_of_curve(surface, coords)
        assert evaluations == {"evaluate_word": words, "trace": words}, (name, coords)


@pytest.mark.parametrize("matrix", [False, True])
def test_trace_command_evaluates_each_word_once(evaluations, matrix):
    for name, coords in curves():
        words = word_count(stock(name), coords)
        evaluations.update(evaluate_word=0, trace=0)
        q = ",".join(map(str, coords.q))
        p = ",".join(map(str, coords.p))
        argv = ["trace", "--surface", stock_file(name), f"--q={q}", f"--p={p}"]
        assert cli.run(argv + ["--matrix"] * matrix) == 0
        assert evaluations == {"evaluate_word": words, "trace": words}, (name, coords)
