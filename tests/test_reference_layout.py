"""The flat strand index against the dict-based reference reconstruction.

``reference_layout`` keeps the tuple-keyed layout, matching and walk that
share no code with ``standardpos``'s flat index; both must give the same
components, token for token, and the same errors.  Under a layout fault,
the package's arc-by-arc same-slot check must reject exactly the curves
whose words the reference's scan rejects.
"""

import random

import pytest

from plumbtrace import standardpos
from plumbtrace.dtcoords import DTCoords
from plumbtrace.fuzz import random_coords
from plumbtrace.standardpos import (
    Conn,
    Crossing,
    SccLoop,
    Word,
    extract_components,
    word_to_text,
)
from reference_layout import check_scc_patterns, reference_components, reference_text
from tests_support import STOCK, clear_shared_tables, n1_surface, n2_surface, stock

SURFACES = {name: stock(name) for name in STOCK + ("genus_two_one_hole",)}
SURFACES.update(n1=n1_surface(), n2=n2_surface())


def outcome(fn, surface, coords):
    """The components, or the type and message of the error raised."""
    try:
        return fn(surface, coords)
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


def assert_same(surface, coords):
    got = extract_components(surface, coords)
    assert got == reference_components(surface, coords), coords
    for comp in got:
        if comp.word is not None:
            assert word_to_text(comp.word) == reference_text(comp.word)
    return got


# every surface up to max q 64, and closed genus two at the scale of the
# benchmark's layout workload, where most layouts exceed LAYOUT_NODES
SCALES = [(name, max_q) for name in sorted(SURFACES) for max_q in (3, 12, 64)]
SCALES.append(("genus_two", 256))


@pytest.mark.parametrize("name, max_q", SCALES)
def test_components_match_reference(name, max_q):
    surface = SURFACES[name]
    multi = parallel = 0
    for coords in random_coords(surface, seed=max_q, max_q=max_q, max_abs_p=3 * max_q, count=30):
        comps = assert_same(surface, coords)
        multi += sum(c.word is not None for c in comps) > 1
        parallel += any(c.word is None for c in comps)
    # the sample reaches multi-component curves or parallel copies
    assert multi + parallel


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_parallel_copies_and_multicurves(name):
    surface = SURFACES[name]
    xi = surface.xi
    comps = assert_same(surface, DTCoords((0,) * xi, (3,) * xi))
    assert len(comps) == 3 * xi and all(c.word is None for c in comps)
    # n parallel copies of a connected curve have n times its coordinates
    for coords in random_coords(surface, seed=1, max_q=6, count=5, connected_only=True):
        for n in (2, 3):
            copies = DTCoords(tuple(n * v for v in coords.q), tuple(n * v for v in coords.p))
            assert len(assert_same(surface, copies)) == n


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_errors_match_reference(name):
    surface = SURFACES[name]
    rng = random.Random(name)
    errors = 0
    for _ in range(150):
        q = tuple(rng.randint(0, 5) for _ in range(surface.xi))
        p = tuple(rng.randint(-7, 7) for _ in range(surface.xi))
        coords = DTCoords(q, p)
        want = outcome(reference_components, surface, coords)
        assert outcome(extract_components, surface, coords) == want, coords
        errors += isinstance(want, tuple)
    assert errors
    wrong_length = DTCoords((2,) * (surface.xi + 1), (0,) * (surface.xi + 1))
    assert outcome(extract_components, surface, wrong_length) == outcome(
        reference_components, surface, wrong_length
    )


def test_equal_tokens_are_one_instance():
    surface = SURFACES["genus_two"]
    comps = extract_components(surface, DTCoords((64, 40, 30), (16, -50, 10)))
    tokens = [tok for comp in comps for tok in comp.word.tokens]
    assert len({id(tok) for tok in tokens}) == len(set(tokens)) < len(tokens)
    assert all(type(tok) is Crossing for tok in tokens[::2])


# layout faults: the token builder in ``standardpos`` to break, the token
# type it builds, and the fault applied to one such token
FAULTS = {
    "_scc_loop": (SccLoop, lambda t: SccLoop(t.pants, t.slot, -t.sign)),
    "_conn": (Conn, lambda t: Conn(t.pants, t.out_slot, t.in_slot)),
}


def reference_rejects(surface, coords, kind, fault):
    """Whether the word scan finds a forbidden pattern in the reference
    words, their tokens of type ``kind`` built with ``fault``."""
    try:
        for comp in reference_components(surface, coords):
            if comp.word is not None:
                check_scc_patterns(Word(comp.word.arity, tuple(
                    fault(t) if isinstance(t, kind) else t for t in comp.word.tokens
                )))
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("builder", sorted(FAULTS))
def test_layout_faults_rejected_where_the_word_scan_rejects(monkeypatch, request, builder):
    # the layout checks each same-boundary arc once; with every loop sign
    # negated, or every connector reversed, it must reject exactly the
    # curves whose words, built the same way, show a forbidden pattern
    kind, fault = FAULTS[builder]
    monkeypatch.setattr(standardpos, builder, lambda *args: fault(kind(*args)))
    # layouts are shared across calls: build them with the faulty tokens,
    # and drop those when the test ends
    clear_shared_tables()
    request.addfinalizer(clear_shared_tables)
    rejected = 0
    for name in STOCK:
        surface = SURFACES[name]
        for coords in random_coords(surface, seed=12, max_q=12, max_abs_p=36, count=60):
            want = reference_rejects(surface, coords, kind, fault)
            try:
                extract_components(surface, coords)
            except AssertionError as exc:
                assert want, coords
                assert "non-embeddable same-slot return pattern" in str(exc)
                rejected += 1
            else:
                assert not want, coords
    # seed 12 reaches untwisted returns: either fault rejects 2 curves on
    # genus_two and 1 on twice_holed_torus
    assert rejected >= 1
