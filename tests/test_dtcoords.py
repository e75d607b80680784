"""Coordinate admissibility, arc counts, and twist conversions."""

import dataclasses
from itertools import product

import pytest

from plumbtrace import dtcoords
from plumbtrace.dtcoords import (
    CoordError,
    DTCoords,
    NegativeTwistOnZeroLength,
    ParityViolation,
    arc_counts,
    pattern_twists,
    window_twists,
    validate,
)
from plumbtrace.fuzz import random_coords
from plumbtrace.surface import pred
from tests_support import (
    STOCK,
    coords_from_triple,
    n1_surface,
    n2_surface,
    stock,
    triple_from_coords,
    twist_curve,
)


class TestValidate:
    def test_dual_curve_admissible(self):
        validate(stock("four_holed_sphere"), DTCoords((2,), (0,)))

    def test_odd_pants_total_rejected(self):
        with pytest.raises(ParityViolation) as exc:
            validate(stock("four_holed_sphere"), DTCoords((1,), (0,)))
        assert exc.value.pants in (0, 1)

    def test_negative_twist_on_zero_length(self):
        with pytest.raises(NegativeTwistOnZeroLength) as exc:
            validate(stock("four_holed_sphere"), DTCoords((0,), (-1,)))
        assert exc.value.curve == 0

    def test_length_mismatch(self):
        with pytest.raises(CoordError, match="length"):
            validate(stock("genus_two"), DTCoords((2,), (0,)))

    def test_negative_intersection_number_rejected(self):
        with pytest.raises(CoordError) as exc:
            DTCoords((-1,), (0,))
        assert str(exc.value) == "negative intersection number"


class TestArcCounts:
    def test_all_equal(self):
        c = arc_counts(2, 2, 2)
        assert all(v == 1 for v in c.dcc)
        assert c.scc == (0, 0, 0)

    def test_single_same_boundary_arc(self):
        c = arc_counts(2, 0, 0)
        assert c.scc == (1, 0, 0)
        assert all(v == 0 for v in c.dcc)

    def test_four_two_two(self):
        c = arc_counts(4, 2, 2)
        assert c.dcc_between(0, 1) == 2
        assert c.dcc_between(0, 2) == 2
        assert c.dcc_between(1, 2) == 0
        assert c.scc == (0, 0, 0)

    def test_parity_rejected(self):
        with pytest.raises(ParityViolation):
            arc_counts(1, 0, 0)

    def test_negative_total_rejected(self):
        with pytest.raises(CoordError) as exc:
            arc_counts(-1, 1, 0)
        assert str(exc.value) == "negative intersection number"

    @staticmethod
    def slot_budgets(c):
        """Per slot a: 2*scc[a] plus the arcs from a to the other two slots."""
        return tuple(
            2 * c.scc[a] + sum(c.dcc_between(a, b) for b in (0, 1, 2) if b != a)
            for a in (0, 1, 2)
        )

    @pytest.mark.parametrize("x", range(41))
    def test_slot_budget_identity(self, x):
        # every even-sum triple up to 40, more than eight times the cache
        # bound, so values come from evicted and refilled entries alike:
        # arcs at a slot add up to its total
        for y in range(41):
            for z in range((x + y) % 2, 41, 2):
                assert self.slot_budgets(arc_counts(x, y, z)) == (x, y, z)

    def test_interned_across_calls(self):
        triples = [v for v in product(range(13), repeat=3) if sum(v) % 2 == 0]
        assert len(triples) < dtcoords.ARC_COUNTS_CACHE
        first = [arc_counts(*v) for v in triples]
        for v, c in zip(triples, first):
            assert arc_counts(*v) is c
            assert c.x == v and self.slot_budgets(c) == v
            with pytest.raises(dataclasses.FrozenInstanceError):
                c.scc = (0, 0, 0)
        assert arc_counts.cache_info().maxsize == dtcoords.ARC_COUNTS_CACHE

    @pytest.mark.parametrize("x", range(41))
    def test_same_boundary_arcs_pinned(self, x):
        # with the slot budgets this fixes the whole pattern: (2, 2, 2) must
        # not come out as one same-boundary arc plus two arcs between 1 and 2
        for y in range(41):
            for z in range((x + y) % 2, 41, 2):
                v = (x, y, z)
                c = arc_counts(*v)
                assert sum(c.scc) == max(0, 2 * max(v) - sum(v)) // 2
                assert sum(1 for n in c.scc if n) <= 1


class TestWindowTwist:
    def test_once_crossing_golden(self):
        # q=1, p=-1 with one predecessor-slot arc in each pants: phat = 0
        phat = window_twists(n1_surface(), DTCoords((1, 1), (-1, -1)))
        assert phat[0] == 0

    def test_twice_crossing_golden(self):
        # q=2, p=1, same-boundary arc on one side, one predecessor arc on
        # the other: phat = 0
        phat = window_twists(n2_surface(), DTCoords((2, 1, 1), (1, 1, 1)))
        assert phat[0] == 0

    def test_four_holed_dual(self):
        # both sides are same-boundary arcs, no correction: phat = -1
        assert window_twists(stock("four_holed_sphere"), DTCoords((2,), (0,))) == (-1,)

    def test_one_holed_torus_single_and_doubled(self):
        s = stock("one_holed_torus")
        assert window_twists(s, DTCoords((1,), (0,))) == (0,)
        assert window_twists(s, DTCoords((2,), (0,))) == (0,)

    def test_zero_length_passthrough(self):
        assert window_twists(stock("four_holed_sphere"), DTCoords((0,), (5,))) == (5,)

    def test_unrealizable_twist_surfaced(self):
        # q=2 dual-type curve on the four-holed sphere needs even p
        with pytest.raises(CoordError, match="not realizable"):
            window_twists(stock("four_holed_sphere"), DTCoords((2,), (1,)))

    def test_equivariant_under_twisting(self):
        s = stock("genus_two")
        coords = DTCoords((1, 1, 2), (1, 1, 0))
        base = window_twists(s, coords)
        for i in range(3):
            twisted = window_twists(s, twist_curve(coords, i, 1))
            expected = tuple(
                base[j] + (coords.q[j] if j == i else 0) for j in range(3)
            )
            assert twisted == expected


def generator_pattern_twists(surface, coords, pattern):
    """``pattern_twists`` in its generator form: the correction is a sum
    over both gluing ends of ``dcc_between(slot, pred(slot))``, and
    curves are indexed by ``range(xi)``."""
    phat = []
    for i in range(surface.xi):
        if coords.q[i] == 0:
            phat.append(coords.p[i])
            continue
        g = surface.gluings[i]
        correction = sum(
            pattern[pants].dcc_between(slot, pred(slot)) for pants, slot in (g.end_a, g.end_b)
        )
        num = coords.p[i] - coords.q[i] + correction
        if num % 2:
            raise CoordError(
                f"curve {i}: twist {coords.p[i]} is not realizable with these "
                f"intersection numbers (window twist would be {num}/2)"
            )
        phat.append(num // 2)
    return tuple(phat)


def outcome(convert, surface, coords, pattern):
    """The window twists, or the refusal's type and text."""
    try:
        return convert(surface, coords, pattern)
    except CoordError as exc:
        return type(exc), str(exc)


class TestTwistCorrection:
    @pytest.mark.parametrize("slot", (0, 1, 2))
    def test_predecessor_arcs_are_the_successor_count(self, slot):
        # the arcs between s and pred(s) are counted by the third slot, succ(s)
        for v in product(range(9), repeat=3):
            if sum(v) % 2 == 0:
                c = arc_counts(*v)
                assert c.dcc[(slot + 1) % 3] == c.dcc_between(slot, pred(slot))

    @pytest.mark.parametrize("name", STOCK + ("genus_two_one_hole",))
    def test_matches_the_generator_form(self, name):
        # each sampled curve, and each curve one twist off it about one
        # crossed curve (not realisable) or about an uncrossed one (passed
        # through), converts, or is refused with the same text, both ways
        surface = stock(name)
        refused = 0
        for coords in random_coords(surface, seed=33, max_q=6, count=40):
            pattern = validate(surface, coords)
            variants = [coords]
            for i in range(surface.xi):
                for d in (-1, 1):
                    p = coords.p[:i] + (coords.p[i] + d,) + coords.p[i + 1:]
                    variants.append(DTCoords(coords.q, p))
            for v in variants:
                got = outcome(pattern_twists, surface, v, pattern)
                assert got == outcome(generator_pattern_twists, surface, v, pattern)
                refused += got[0] is CoordError
        assert refused > 0


class TestTwistCurve:
    def test_single_right_twist(self):
        assert twist_curve(DTCoords((2,), (0,)), 0, 1) == DTCoords((2,), (4,))

    def test_identity(self):
        c = DTCoords((3, 1), (-2, 5))
        assert twist_curve(c, 0, 0) == c

    def test_double_left_twist(self):
        assert twist_curve(DTCoords((3,), (-2,)), 0, -2) == DTCoords((3,), (-14,))

    def test_inverse(self):
        c = DTCoords((3, 2), (1, -4))
        assert twist_curve(twist_curve(c, 1, 5), 1, -5) == c


class TestTripleConversion:
    @pytest.mark.parametrize(
        "qp,mst",
        [((2, 0), (2, 0, 2)), ((2, 4), (2, 2, 0)), ((0, 0), (0, 0, 0))],
    )
    def test_forward(self, qp, mst):
        assert triple_from_coords(*qp) == mst

    def test_inverse_examples(self):
        assert coords_from_triple(2, 0, 2) == (2, 0)
        assert coords_from_triple(2, 2, 0) == (2, 4)
        # only the middle relation holds: positive twist
        assert coords_from_triple(1, 2, 1) == (1, 4)

    def test_odd_twist_rejected(self):
        with pytest.raises(CoordError, match="odd"):
            triple_from_coords(2, 1)

    def test_no_relation_rejected(self):
        with pytest.raises(CoordError, match="relation"):
            coords_from_triple(5, 1, 1)

    def test_round_trip_exhaustive_triples(self):
        for m in range(21):
            for s in range(21):
                for t in range(21):
                    if m == s + t or s == m + t or t == m + s:
                        q, p = coords_from_triple(m, s, t)
                        if q == 0 and p < 0:
                            continue  # not an admissible coordinate pair
                        assert triple_from_coords(q, p) == (m, s, t)
