"""Tables shared across curves with the same q: the endpoint layout of a
(surface, q) and the renderer's tables of a box.  Warm caches must give
what a cold start gives, a table past the size rule must take the same
builder uncached, and a shared table must not be changeable by a caller."""

import dataclasses
import itertools
import random

import pytest

from oracle import lift
from plumbtrace import gausspoly, standardpos
from plumbtrace.dtcoords import CoordError, DTCoords, window_twists
from plumbtrace.fuzz import random_coords
from plumbtrace.gausspoly import GaussPoly
from plumbtrace.holonomy import trace_of_curve
from plumbtrace.standardpos import extract_components, layout_endpoints, word_to_text
from plumbtrace.surface import (
    four_holed_sphere,
    genus_two,
    genus_two_one_hole,
    one_holed_torus,
    twice_holed_torus,
)
from plumbtrace.verifier import verify
from reference_layout import reference_components, reference_text
from tests_support import clear_shared_tables, twist_curve

SURFACES = {
    s.__name__: s()
    for s in (one_holed_torus, four_holed_sphere, twice_holed_torus, genus_two, genus_two_one_hole)
}


def samples(surface, seed, connected_only):
    """Fuzzed curves, each followed by one twisted about a crossed curve,
    so that the list holds pairs with the same q and different p."""
    out = []
    sample = random_coords(surface, seed=seed, max_q=4, count=15, connected_only=connected_only)
    for coords in sample:
        out.append(coords)
        crossed = [i for i, q in enumerate(coords.q) if q]
        if crossed:
            out.append(twist_curve(coords, crossed[-1], 1))
    return out


def outputs(surface, coords, connected):
    """Every output the shared tables feed: the components with their
    words, and, for a connected curve, the verify record and the traces."""
    out = [extract_components(surface, coords)]
    if connected:
        out.append(verify(surface, coords).to_record())
        out.append([str(trace) for _, trace in trace_of_curve(surface, coords)])
    return out


def realizable(surface, q):
    """Coordinates with intersection numbers q and the first twists in
    {0, 1}^xi that name a curve, or None if no such twists do."""
    for p in itertools.product((0, 1), repeat=len(q)):
        try:
            window_twists(surface, DTCoords(q, p))
        except CoordError:
            continue
        return DTCoords(q, p)
    return None


@pytest.mark.parametrize("connected", [False, True], ids=["any", "connected"])
@pytest.mark.parametrize("name", sorted(SURFACES))
def test_warm_tables_give_what_cold_ones_give(name, connected):
    surface = SURFACES[name]
    curves = samples(surface, seed=len(name), connected_only=connected)
    assert any(a.q == b.q and a.p != b.p for a, b in zip(curves, curves[1:]))
    clear_shared_tables()
    warm = [outputs(surface, coords, connected) for coords in curves]
    # the warm pass reused layouts, and render tables where it rendered
    assert standardpos._shared_layout.cache_info().hits
    assert not connected or gausspoly._shared_render_tables.cache_info().hits
    cold = []
    for coords in curves:
        clear_shared_tables()
        cold.append(outputs(surface, coords, connected))
    assert warm == cold


def test_curves_with_one_q_share_one_layout():
    surface = genus_two()
    a = DTCoords((1, 2, 3), (1, 0, -1))
    b = twist_curve(a, 2, 2)
    assert layout_endpoints(surface, a) is layout_endpoints(surface, b)
    assert extract_components(surface, a) != extract_components(surface, b)


@pytest.mark.parametrize(
    "name, q",
    [
        ("one_holed_torus", (128,)),  # 256 nodes: shared
        ("one_holed_torus", (129,)),  # 258 nodes: built on each call
        ("genus_two", (42, 43, 43)),  # 256 nodes: shared
        ("genus_two", (43, 43, 44)),  # 260 nodes: built on each call
    ],
)
def test_layout_size_rule(name, q):
    surface = SURFACES[name]
    coords = realizable(surface, q)
    assert coords is not None, q
    clear_shared_tables()
    first = layout_endpoints(surface, coords)
    shared = 2 * sum(q) <= standardpos.LAYOUT_NODES
    assert (layout_endpoints(surface, coords) is first) == shared
    assert standardpos._shared_layout.cache_info().currsize == shared
    assert isinstance(first.arc_mate, tuple if shared else list)
    # either way, the words are the reference reconstruction's
    got = extract_components(surface, coords)
    assert got == reference_components(surface, coords)
    for comp in got:
        assert word_to_text(comp.word) == reference_text(comp.word)


@pytest.mark.parametrize("counts", [(255,), (15, 15), (256,)])
def test_render_size_rule(counts):
    # boxes of 256, 256 and 257 slots: the first two keep their tables
    size = 1
    for n in counts:
        size *= n + 1
    rng = random.Random(size)
    for imag in (False, True):
        slots = tuple(rng.choice((0, 1, -1, 7, -12)) for _ in range(size))
        poly = GaussPoly(slots, counts, imag)
        clear_shared_tables()
        text = str(poly)
        assert text == str(poly) == str(lift(poly))
        shared = size <= gausspoly.RENDER_SLOTS
        assert gausspoly._shared_render_tables.cache_info().currsize == shared


def test_shared_tables_cannot_be_changed():
    # a curve with same-boundary arcs, so that every sequence has an entry
    layout = layout_endpoints(genus_two(), DTCoords((0, 1, 3), (0, 1, -1)))
    for name in ("base", "arc_mate", "traversal", "scc_out"):
        seq = getattr(layout, name)
        assert isinstance(seq, tuple), name
        with pytest.raises(TypeError):
            seq[0] = seq[-1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layout, name, list(seq))
    for table in gausspoly._shared_render_tables((1, 2)):
        assert isinstance(table, tuple)


def test_caches_are_bounded():
    assert standardpos._shared_layout.cache_info().maxsize == standardpos.LAYOUT_CACHE == 256
    assert gausspoly._shared_render_tables.cache_info().maxsize == gausspoly.BOX_CACHE == 256
    assert gausspoly._box.cache_info().maxsize == gausspoly.BOX_CACHE
    assert standardpos.LAYOUT_NODES == gausspoly.RENDER_SLOTS == 256


def test_distinct_q_past_the_old_bound_stay_resident():
    # 256 intersection vectors, as many as the caches keep: in the first
    # round each cache meets more keys than the 64 it once kept (256
    # layouts, 114 boxes), and in the second every one must still be there
    surface = genus_two()
    vectors = sorted(itertools.product(range(9), repeat=3), key=lambda q: (sum(q), q))
    curves = [c for c in (realizable(surface, q) for q in vectors if any(q)) if c is not None][:256]
    assert len(curves) == 256
    caches = (standardpos._shared_layout, gausspoly._shared_render_tables, gausspoly._box)

    def misses():
        before = [cache.cache_info().misses for cache in caches]
        for coords in curves:
            layout_endpoints(surface, coords)
            for _, trace in trace_of_curve(surface, coords):
                str(trace)
        return [cache.cache_info().misses - b for cache, b in zip(caches, before)]

    clear_shared_tables()
    assert min(misses()) > 64
    assert misses() == [0, 0, 0]
