"""Slotted records: no record the pipeline builds for a curve carries an
instance dict, and slotted records copy and pickle whole."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import plumbtrace
from plumbtrace.dtcoords import DTCoords
from plumbtrace.holonomy import evaluate_word, trace_of_curve
from plumbtrace.standardpos import (
    Token,
    extract_components,
    layout_endpoints,
    match_strands,
)
from plumbtrace.verifier import verify
from tests_support import stock

MODULES = [
    importlib.import_module(f"{plumbtrace.__name__}.{info.name}")
    for info in pkgutil.iter_modules(plumbtrace.__path__)
]
# every dataclass a plumbtrace module defines
RECORDS = sorted(
    {
        obj
        for mod in MODULES
        for obj in vars(mod).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == mod.__name__
    },
    key=lambda cls: cls.__qualname__,
)

# a connected curve on closed genus two, with same-boundary arcs, so that
# its word holds crossings, connectors and loops
COORDS = DTCoords((0, 1, 3), (0, 1, -1))


def reachable(*roots):
    """Every dataclass instance, and every other plumbtrace object, reachable
    from the roots through dataclass fields, tuples, lists and dicts."""
    found, stack, seen = [], list(roots), set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if dataclasses.is_dataclass(obj):
            found.append(obj)
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif type(obj).__module__.startswith(f"{plumbtrace.__name__}."):
            found.append(obj)
    return found


def word_records(surface):
    """What ``plumbtrace word`` builds: the coordinates, the layout, the
    matching and the components with their words.  A layout holds no
    coordinates, so they are a root of their own."""
    layout = layout_endpoints(surface, COORDS)
    return COORDS, layout, match_strands(layout, COORDS), extract_components(surface, COORDS)


def trace_records(surface):
    """What ``plumbtrace trace --matrix`` builds: each component with its
    trace, and its word's matrix."""
    pairs = trace_of_curve(surface, COORDS)
    return pairs, [evaluate_word(comp.word) for comp, _ in pairs]


def verify_records(surface):
    return verify(surface, COORDS)


BUILDS = {"word": word_records, "trace": trace_records, "verify": verify_records}


def test_records_are_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Crossing", "GaussPoly", "Layout", "Mat2", "PantsDecomposition", "TopTermReport"} <= names


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_defines_slots(record):
    assert "__slots__" in vars(record)
    assert "__dict__" not in dir(record)


@pytest.mark.parametrize("command", BUILDS)
def test_records_of_one_curve_have_no_dict(command):
    found = reachable(BUILDS[command](stock("genus_two")))
    assert found and [type(obj).__name__ for obj in found if hasattr(obj, "__dict__")] == []


def test_the_three_commands_reach_every_record():
    # the guard above sees an instance of every record class
    surface = stock("genus_two")
    roots = [build(surface) for build in BUILDS.values()]
    assert {type(obj) for obj in reachable(*roots)} >= set(RECORDS)


def tokens(obj):
    return [tok for tok in reachable(obj) if isinstance(tok, Token)]


def layout():
    return layout_endpoints(stock("genus_two"), COORDS)


def component():
    return extract_components(stock("genus_two"), COORDS)[0]


def word():
    return component().word


def matrix():
    return evaluate_word(word())


def trace():
    return matrix().trace()


def report():
    return verify(stock("genus_two"), COORDS)


COPIES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize(
    "build", [layout, word, component, matrix, trace, report], ids=lambda f: f.__name__
)
def test_round_trip(build, how):
    obj = build()
    back = COPIES[how](obj)
    assert back == obj and back is not obj
    assert not hasattr(back, "__dict__")
    # ``text`` takes no part in equality: compare it on its own
    assert [tok.text for tok in tokens(back)] == [tok.text for tok in tokens(obj)]
    # the packed rows and the trace's slots copy whole, and print alike
    if build in (matrix, trace):
        assert str(back) == str(obj)
    if build is report:
        assert str(back.trace) == str(obj.trace) and back.passed


def test_round_trip_keeps_text_of_an_edited_token():
    # the copy carries the stored line, it does not format it again
    tok = dataclasses.replace(word().tokens[0])
    object.__setattr__(tok, "text", "edited")
    for how in COPIES.values():
        assert how(tok).text == "edited"
