"""Dehn-twist equivariance, checked at points.

In Kra's plumbing a full right Dehn twist T_i about pants curve i acts on
traces as t_i -> t_i + 2, so the trace of T_i^n(gamma) at a point s is, up
to sign, the trace of gamma at s + 2n e_i.  Both words come from the layout,
the matching and the walk, and ``oracle.point_trace`` multiplies them out
mod P61 with no kernel code, so this checks the topology at intersection
numbers where no full trace polynomial is built.
"""

import random

import oracle
from plumbtrace.fuzz import random_coords
from plumbtrace.standardpos import extract_components
from tests_support import STOCK, stock, twist_curve

SURFACES = STOCK + ("genus_two_one_hole",)


def word(surface, coords):
    (component,) = extract_components(surface, coords)
    return component.word


def up_to_sign(value):
    re, im = value
    return {value, (-re % oracle.P61, -im % oracle.P61)}


def shifted(point, shifts):
    """`point` with t_{i+1} moved by shifts[i] for each curve i named."""
    return [((re + shifts.get(i, 0)) % oracle.P61, im) for i, (re, im) in enumerate(point)]


def samples(seed):
    """(surface, curve, point) per seeded connected curve with q_i <= 64 on
    each surface, each with a random point mod P61."""
    rng = random.Random(seed)
    for name in SURFACES:
        surface = stock(name)
        for coords in random_coords(surface, seed=seed, max_q=64, count=5, connected_only=True):
            point = [(rng.randrange(oracle.P61), rng.randrange(oracle.P61)) for _ in coords.q]
            yield surface, coords, point


def test_twist_is_a_shift_by_two_at_points():
    checks = wrong_shift = 0
    for surface, coords, point in samples(3):
        base = word(surface, coords)
        for i in (i for i, qi in enumerate(coords.q) if qi):
            for n in (1, -3, 3):
                got = oracle.point_trace(word(surface, twist_curve(coords, i, n)), point)
                want = oracle.point_trace(base, shifted(point, {i: 2 * n}))
                assert got in up_to_sign(want), (coords, i, n)
                if n == 1:
                    # the negative control: a shift by -2 is the inverse twist
                    wrong = oracle.point_trace(base, shifted(point, {i: -2}))
                    wrong_shift += got in up_to_sign(wrong)
            checks += 1
    assert checks >= 50
    assert wrong_shift == 0


def test_twists_about_two_curves_commute_at_points():
    checks = 0
    for surface, coords, point in samples(3):
        crossed = [i for i, qi in enumerate(coords.q) if qi]
        for i, j in zip(crossed, crossed[1:]):
            # T_i T_j and T_j T_i are one curve, whose trace is gamma's
            # shifted along both curves
            twisted = twist_curve(twist_curve(coords, i, 1), j, 1)
            assert twisted == twist_curve(twist_curve(coords, j, 1), i, 1)
            want = oracle.point_trace(word(surface, coords), shifted(point, {i: 2, j: 2}))
            assert oracle.point_trace(word(surface, twisted), point) in up_to_sign(want), (coords, i, j)
            checks += 1
    assert checks >= 20
