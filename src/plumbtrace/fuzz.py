"""Seeded sampling of random admissible coordinates.

The sampler draws intersection vectors uniformly, rejecting until every
pants has an even total, then draws twists and repairs each one into the
realizable parity class (for fixed q the realizable twists about a curve
fill one class mod 2, read off the arc pattern).  Samples are deterministic
per seed and drawn whole before they are returned.
"""

from __future__ import annotations

import random

from .dtcoords import ArcCounts, CoordError, DTCoords, ParityViolation, twist_correction, validate
from .standardpos import extract_components
from .surface import PantsDecomposition


def _sample_q(
    rng: random.Random, surface: PantsDecomposition, max_q: int
) -> tuple[tuple[int, ...], tuple[ArcCounts, ...]]:
    """An intersection vector even at every pants, and its arc pattern."""
    zeros = (0,) * surface.xi
    for _ in range(100_000):
        q = tuple(rng.randint(0, max_q) for _ in range(surface.xi))
        try:
            return q, validate(surface, DTCoords(q, zeros))
        except ParityViolation:
            pass
    raise CoordError("could not sample an even intersection vector")


def _repair_p(
    surface: PantsDecomposition, q: tuple[int, ...], pattern: tuple[ArcCounts, ...], p: list[int]
) -> tuple[int, ...]:
    out = list(p)
    for i in range(surface.xi):
        if q[i] == 0:
            out[i] = abs(out[i])
        else:
            num = out[i] - q[i] + twist_correction(surface, pattern, i)
            if num % 2:
                out[i] += 1
    return tuple(out)


def random_coords(
    surface: PantsDecomposition, *, seed: int = 0, max_q: int = 6, max_abs_p: int = 8,
    count: int = 100, connected_only: bool = False,
) -> list[DTCoords]:
    """Deterministic sample of `count` admissible, realizable coordinate
    vectors with q_i <= `max_q` and |p_i| <= `max_abs_p` before the parity
    repair; only connected curves if `connected_only`.

    The whole sample is drawn before it is returned, so a stalled sampler
    raises before a caller has used any of it.
    """
    rng = random.Random(seed)
    sample: list[DTCoords] = []
    attempts = 0
    while len(sample) < count:
        attempts += 1
        if attempts > 1000 * max(count, 1):
            raise CoordError("rejection sampling stalled; relax the config")
        q, pattern = _sample_q(rng, surface, max_q)
        p = [rng.randint(-max_abs_p, max_abs_p) for _ in range(surface.xi)]
        coords = DTCoords(q, _repair_p(surface, q, pattern, p))
        if connected_only and len(extract_components(surface, coords)) != 1:
            continue
        sample.append(coords)
    return sample

