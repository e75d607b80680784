"""Verification on random pants decompositions.

The stock surfaces reach at most four pants curves.  Here the slots of the
pants are paired at random (``tests_support.random_surface``), for surfaces
with up to nine pants curves, and seeded connected curves on each are
verified and their traces checked against the point oracle, which
multiplies the word's generator factors out at one random point.
"""

import random

import pytest

import oracle
from plumbtrace.fuzz import random_coords
from plumbtrace.holonomy import word_trace
from plumbtrace.standardpos import extract_components
from plumbtrace.verifier import verify
from tests_support import free_slots, random_surface

# (genus, holes): xi = 3g - 3 + b pants curves, from 3 to 9
TYPES = [(3, 0), (2, 2), (0, 6), (3, 1), (4, 0), (1, 5)]


@pytest.mark.parametrize("genus,boundary", TYPES)
def test_random_gluing_verifies(genus, boundary):
    rng = random.Random(f"gluing:{genus}:{boundary}")
    surface = random_surface(genus, boundary, rng)
    assert (surface.genus, surface.boundary) == (genus, boundary)
    assert surface.xi == 3 * genus - 3 + boundary
    assert free_slots(surface) == surface.boundary
    seed = rng.randrange(1 << 30)
    crossed = 0
    sample = random_coords(surface, seed=seed, max_q=3, max_abs_p=4, count=10, connected_only=True)
    for coords in sample:
        report = verify(surface, coords)
        assert report.passed, (coords, report.failures())
        (comp,) = extract_components(surface, coords)
        if comp.word is None:
            continue
        point = [(rng.randrange(oracle.P61), rng.randrange(oracle.P61)) for _ in range(surface.xi)]
        re, im = oracle.point_trace(comp.word, point)
        value = oracle.point_value(word_trace(comp.word), point)
        assert value in ((re, im), (-re % oracle.P61, -im % oracle.P61)), coords
        crossed += 1
    assert crossed >= 8
