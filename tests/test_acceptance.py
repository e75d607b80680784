"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines inline).  Everything here is exact arithmetic; the stated
time budgets are asserted where given.
"""

import random
import time
from pathlib import Path

import pytest

from embedding_oracle import oracle_check
from oracle import (
    BOUNDARY_LOOP,
    SLOT_TO_TOP,
    Mat,
    Poly,
    adjugate,
    canonical_sign,
    det,
    identity,
    lift,
    matmul,
    mul,
    neg,
    of_ints,
    shift_var,
)
from plumbtrace import cli
from plumbtrace.dtcoords import DTCoords, window_twists
from plumbtrace.fuzz import random_coords
from plumbtrace.holonomy import component_trace, evaluate_word, trace_of_curve
from plumbtrace.standardpos import extract_components
from plumbtrace.verifier import verify
from tests_support import (
    coords_from_triple,
    n1_surface,
    n2_surface,
    stock,
    triple_from_coords,
    twist_curve,
)

SURFACES = Path(__file__).resolve().parent.parent / "surfaces"

CAMPAIGN = [
    (stock("one_holed_torus"), 16),
    (stock("four_holed_sphere"), 16),
    (stock("twice_holed_torus"), 8),
    (stock("genus_two"), 5),
]


def _report(num: int, label: str) -> None:
    print(f"CRITERION {num:02d} ({label}): PASS")


def _connected_samples(surface, max_q, seed, count):
    """Connected curves with at least one crossing and total q <= 16."""
    out = []
    sample = random_coords(
        surface, seed=seed, max_q=max_q, max_abs_p=10, count=4 * count, connected_only=True,
    )
    for coords in sample:
        if 1 <= sum(coords.q) <= 16:
            out.append(coords)
            if len(out) == count:
                break
    assert len(out) == count, "sampler under-delivered"
    return out


def test_criterion_01_four_holed_golden_trace(capsys):
    start = time.monotonic()
    code = cli.run(
        ["trace", "--surface", str(SURFACES / "four_holed_sphere.surf"),
         "--q", "2", "--p", "0"]
    )
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    # canonical representative of -(4 t^2 - 8 t + 6), bit-exact
    assert out.strip() == "component 0 q=[2] trace=4*t1^2 - 8*t1 + 6"
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "four-holed-sphere golden trace")


def test_criterion_02_one_holed_golden_matrix(capsys):
    t = Poly.var(1, 0)
    one = Poly.const(1, 1)
    target = Mat(*(e.scale(0, -1) for e in (t - one, one, one, Poly(1))))

    # the doubled dual: both components carry the same single-crossing word
    comps = extract_components(stock("one_holed_torus"), DTCoords((2,), (0,)))
    assert len(comps) == 2
    for comp in comps:
        m = lift(evaluate_word(comp.word))
        assert m in (target, neg(target))
    # the connected single copy evaluates on the nose
    single = extract_components(stock("one_holed_torus"), DTCoords((1,), (0,)))[0]
    assert lift(evaluate_word(single.word)) == target
    with capsys.disabled():
        _report(2, "one-holed-torus golden matrix")


def test_criterion_03_generator_identities(capsys):
    ident = identity(1)
    assert matmul(*(of_ints(1, BOUNDARY_LOOP[s]) for s in (0, 2, 1))) == ident
    w0, w1 = of_ints(1, SLOT_TO_TOP[0]), of_ints(1, SLOT_TO_TOP[1])
    assert matmul(w0, w1) == neg(ident)
    assert matmul(w0, w0) == w1
    with capsys.disabled():
        _report(3, "generator identities")


def test_criterion_04_top_term_campaign(capsys):
    start = time.monotonic()
    checked = 0
    for surface, max_q in CAMPAIGN:
        for coords in _connected_samples(surface, max_q, seed=404, count=125):
            report = verify(surface, coords)
            assert report.passed, (surface.genus, surface.boundary, coords,
                                   report.failures())
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 500
    assert elapsed < 60.0
    with capsys.disabled():
        _report(4, f"top-term campaign, {checked} curves in {elapsed:.1f}s")


def test_criterion_05_pants_curves_parabolic(capsys):
    two = None
    for surface, _ in CAMPAIGN:
        for i in range(surface.xi):
            coords = DTCoords(
                (0,) * surface.xi, tuple(1 if j == i else 0 for j in range(surface.xi))
            )
            results = trace_of_curve(surface, coords)
            assert len(results) == 1
            two = Poly.const(surface.xi, 2)
            assert lift(results[0][1]) == two
    with capsys.disabled():
        _report(5, "pants-curve components trace to 2")


def test_criterion_06_twist_conversion_goldens(capsys):
    # once-crossing configuration: p = -1 with one predecessor-slot arc on
    # each side converts to window twist 0
    assert window_twists(n1_surface(), DTCoords((1, 1), (-1, -1)))[0] == 0
    # twice-crossing configuration: p = +1, same-boundary arc on one side
    # and a single predecessor-slot arc on the other, also converts to 0
    assert window_twists(n2_surface(), DTCoords((2, 1, 1), (1, 1, 1)))[0] == 0
    with capsys.disabled():
        _report(6, "twist conversion goldens")


def test_criterion_07_oracle_agreement(capsys):
    agreed = 0
    for surface, _ in CAMPAIGN:
        for coords in random_coords(surface, seed=707, max_q=3, max_abs_p=6, count=120):
            if sum(coords.q) > 8:
                continue
            report = oracle_check(surface, coords)
            assert report.simple, (coords, report.crossing_pairs)
            assert report.components == len(extract_components(surface, coords))
            agreed += 1
    assert agreed >= 300
    with capsys.disabled():
        _report(7, f"oracle agreement on {agreed} curves")


def _equivariance_sign() -> int:
    """The global substitution sign, pinned on the one-holed torus."""
    s11 = stock("one_holed_torus")
    base = DTCoords((1,), (0,))
    t0 = lift(component_trace(extract_components(s11, base)[0]))
    t1 = lift(component_trace(extract_components(s11, twist_curve(base, 0, 1))[0]))
    for sign in (2, -2):
        if canonical_sign(shift_var(t0, 0, sign)) == t1:
            return sign
    raise AssertionError("no substitution sign works on the one-holed torus")


def test_criterion_08_twist_equivariance(capsys):
    sign = _equivariance_sign()
    cases = 0
    for surface, max_q in CAMPAIGN:
        for coords in _connected_samples(surface, min(max_q, 6), seed=808, count=15):
            base = lift(component_trace(extract_components(surface, coords)[0]))
            for i in range(surface.xi):
                if coords.q[i] == 0:
                    continue
                twisted = twist_curve(coords, i, 1)
                got = lift(component_trace(extract_components(surface, twisted)[0]))
                assert got == canonical_sign(shift_var(base, i, sign))
                cases += 1
    assert cases >= 100
    with capsys.disabled():
        _report(8, f"twist equivariance with sign {sign:+d} on {cases} cases")


def test_criterion_09_triple_round_trip(capsys):
    for q in range(21):
        for p in range(-40, 41, 2):
            if q == 0 and p < 0:
                continue
            assert coords_from_triple(*triple_from_coords(q, p)) == (q, p)
    with capsys.disabled():
        _report(9, "triple parametrization round trip")


def test_criterion_10_trace_identity(capsys):
    rng = random.Random(1010)
    one = Poly.const(2, 1)
    zero = Poly(2)

    def shear():
        entry = Poly(
            2,
            {(rng.randint(0, 2), rng.randint(0, 2)): (rng.randint(-3, 3),
                                                       rng.randint(-3, 3))},
        )
        return Mat(one, entry, zero, one) if rng.random() < 0.5 else Mat(
            one, zero, entry, one
        )

    def unimodular():
        m = identity(2)
        for _ in range(3):
            m = matmul(m, shear())
        return m

    for _ in range(1000):
        a, b = unimodular(), unimodular()
        assert det(a) == det(b) == one
        lhs = matmul(a, b).trace()
        rhs = mul(a.trace(), b.trace()) - matmul(a, adjugate(b)).trace()
        assert lhs == rhs
    with capsys.disabled():
        _report(10, "trace identity on 1000 unimodular matrices")
