"""Random coordinate streams and the independent embedding oracle."""

import copy

import pytest

from plumbtrace.dtcoords import DTCoords, window_twists, validate
from plumbtrace.fuzz import (
    FuzzConfig,
    injectivity_scan,
    oracle_check,
    random_coords,
)
from plumbtrace.standardpos import (
    Matching,
    SccLoop,
    extract_components,
    layout_endpoints,
    match_strands,
)
from plumbtrace.surface import (
    SLOT_INF,
    four_holed_sphere,
    genus_two,
    one_holed_torus,
    twice_holed_torus,
)

SURFACES = [one_holed_torus(), four_holed_sphere(), twice_holed_torus(), genus_two()]


class TestSampler:
    def test_deterministic_per_seed(self):
        cfg = FuzzConfig(genus_two(), seed=7, count=25)
        assert list(random_coords(cfg)) == list(random_coords(cfg))

    def test_distinct_seeds_differ(self):
        a = list(random_coords(FuzzConfig(genus_two(), seed=1, count=25)))
        b = list(random_coords(FuzzConfig(genus_two(), seed=2, count=25)))
        assert a != b

    def test_four_holed_sphere_parity(self):
        cfg = FuzzConfig(four_holed_sphere(), seed=3, max_q=2, count=50)
        for coords in random_coords(cfg):
            assert coords.q[0] % 2 == 0

    def test_samples_are_admissible_and_realizable(self):
        for surface in SURFACES:
            cfg = FuzzConfig(surface, seed=11, count=30)
            for coords in random_coords(cfg):
                validate(surface, coords)
                window_twists(surface, coords)  # must not raise

    def test_connected_only_filter(self):
        cfg = FuzzConfig(one_holed_torus(), seed=5, count=40, connected_only=True)
        for coords in random_coords(cfg):
            assert len(extract_components(one_holed_torus(), coords)) == 1
            # the doubled dual pattern (2, 0) is multicomponent: never emitted
            assert coords != DTCoords((2,), (0,))


class TestOracle:
    def test_four_holed_dual(self):
        report = oracle_check(four_holed_sphere(), DTCoords((2,), (0,)))
        assert report.simple
        assert report.components == 1

    def test_doubled_dual(self):
        report = oracle_check(one_holed_torus(), DTCoords((2,), (0,)))
        assert report.simple
        assert report.components == 2

    def test_parallel_components_counted(self):
        report = oracle_check(four_holed_sphere(), DTCoords((0,), (3,)))
        assert report.components == 3

    def test_swapped_endpoints_detected(self):
        # corrupt the layout by swapping the two window positions of one
        # same-boundary pair against a straight matching with a shift
        surface = four_holed_sphere()
        coords = DTCoords((2,), (2,))
        layout = layout_endpoints(surface, coords)
        matching = match_strands(layout)
        assert oracle_check(surface, coords, layout, matching).simple
        bad = copy.deepcopy(layout)
        ids = list(bad.windows[(0, SLOT_INF)])
        assert bad.arc_mate[ids[0]] == ids[1]
        ids[0], ids[1] = ids[1], ids[0]
        bad.windows[(0, SLOT_INF)] = ids
        report = oracle_check(surface, coords, bad, matching)
        assert not report.simple

    def test_layout_disagreeing_with_arc_counts_raises(self):
        # drop the same-boundary arcs: their ends are left without a mate
        surface = four_holed_sphere()
        coords = DTCoords((2,), (0,))
        bad = copy.deepcopy(layout_endpoints(surface, coords))
        dropped = [node for node, tok in enumerate(bad.traversal) if isinstance(tok, SccLoop)]
        assert dropped
        for node in dropped:
            bad.arc_mate[node] = -1
        with pytest.raises(RuntimeError, match="same-boundary arcs"):
            oracle_check(surface, coords, bad, match_strands(layout_endpoints(surface, coords)))

    def test_corrupted_matching_detected(self):
        # a non-constant shift makes strands cross in the annulus
        surface = four_holed_sphere()
        coords = DTCoords((4,), (0,))
        layout = layout_endpoints(surface, coords)
        matching = match_strands(layout)
        mate, crossing = list(matching.mate), list(matching.crossing)
        a0, a1 = layout.node(0, 0, 0), layout.node(0, 0, 1)
        p0, p1 = mate[a0], mate[a1]
        # a0 and a1 trade partners, each taking the other's strand wraps
        mate[a0], mate[a1], mate[p1], mate[p0] = p1, p0, a0, a1
        crossing[a0], crossing[a1] = crossing[a1], crossing[a0]
        bad = Matching(matching.shifts, mate, crossing)
        report = oracle_check(surface, coords, None, bad)
        assert not report.simple


def test_oracle_agrees_with_extraction_on_fuzz():
    for surface in SURFACES:
        cfg = FuzzConfig(surface, seed=23, max_q=3, max_abs_p=4, count=40)
        for coords in random_coords(cfg):
            if sum(coords.q) > 8:
                continue
            report = oracle_check(surface, coords)
            assert report.simple, (surface, coords, report.crossing_pairs)
            assert report.components == len(extract_components(surface, coords))


def test_injectivity_scan_on_connected_fuzz():
    # review trigger, not an invariant: distinct coordinates are expected to
    # give distinct trace signatures, but a collision only warrants a look.
    # (Multicurves made of parallel pants-curve copies trade under constant
    # trace 2 and would collide trivially, hence connected samples.)
    surface = twice_holed_torus()
    samples = list(
        random_coords(
            FuzzConfig(surface, seed=9, max_q=3, max_abs_p=3, count=40, connected_only=True)
        )
    )
    collisions = injectivity_scan(surface, samples)
    if collisions:  # pragma: no cover
        import warnings

        warnings.warn(f"trace-signature collisions to review: {collisions}")
