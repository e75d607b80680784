"""Top-term prediction and verification."""

import pytest

from plumbtrace import verifier
from plumbtrace.dtcoords import (
    CoordError,
    DTCoords,
    NegativeTwistOnZeroLength,
    twist_curve,
    window_twists,
)
from plumbtrace.gausspoly import GaussPoly
from plumbtrace.holonomy import WordError
from plumbtrace.standardpos import Word, extract_components
from plumbtrace.surface import four_holed_sphere, genus_two, one_holed_torus
from plumbtrace.verifier import (
    check_trace_polynomial,
    p_star_check,
    predict_top_terms,
    verify,
)


class TestPredict:
    def test_four_holed_dual(self):
        # q=2, p=0, h=2: -4 t^2 + 8 t
        assert predict_top_terms(1, (2,), (0,), 2) == GaussPoly.from_terms(
            1, {(2,): -4, (1,): 8}
        )

    def test_single_crossing_family(self):
        # q=1, p=0, h=0: i*(t - 1)
        assert predict_top_terms(1, (1,), (0,), 0) == GaussPoly.from_terms(
            1, {(1,): (0, 1), (0,): (0, -1)}
        )

    def test_two_variable(self):
        # q=(1,1), p=(0,0), h=0: -(t1 t2 - t2 - t1)
        assert predict_top_terms(2, (1, 1), (0, 0), 0) == GaussPoly.from_terms(
            2, {(1, 1): -1, (0, 1): 1, (1, 0): 1}
        )

    def test_zero_crossing_rejected(self):
        with pytest.raises(CoordError):
            predict_top_terms(2, (0, 0), (1, 0), 0)


class TestVerify:
    def test_four_holed_dual_passes(self):
        report = verify(four_holed_sphere(), DTCoords((2,), (0,)))
        assert report.passed
        assert report.h == 2
        assert str(report.trace) == "4*t1^2 - 8*t1 + 6"
        # remainder is the constant 6: degree 0 <= q - 2
        assert report.remainder_degree_ok

    def test_one_holed_single_dual_passes(self):
        report = verify(one_holed_torus(), DTCoords((1,), (0,)))
        assert report.passed
        assert str(report.trace) == "i*t1 - i"

    def test_pants_curve_component(self):
        report = verify(four_holed_sphere(), DTCoords((0,), (1,)))
        assert report.passed
        assert str(report.trace) == "2"

    def test_multicomponent_refused(self):
        with pytest.raises(CoordError, match="connected"):
            verify(one_holed_torus(), DTCoords((2,), (0,)))

    def test_parallel_copies_refused_before_layout(self, monkeypatch):
        # p copies of a pants curve are p components, counted from (q, p)
        def refuse(*args):
            raise AssertionError("curve laid out")

        monkeypatch.setattr(verifier, "extract_components", refuse)
        with pytest.raises(CoordError, match="connected curve; got 1000000000000 components"):
            verify(one_holed_torus(), DTCoords((0,), (10**12,)))
        with pytest.raises(CoordError, match="connected curve; got at least 6 components"):
            verify(genus_two(), DTCoords((1, 1, 0), (1, 1, 5)))
        # malformed coordinates still report their own error
        with pytest.raises(NegativeTwistOnZeroLength):
            verify(genus_two(), DTCoords((0, 0, 0), (2, 0, -1)))

    def test_corrupted_subleading_fails_with_curve_index(self):
        s = genus_two()
        coords = DTCoords((1, 1, 2), (1, 1, 0))
        comp = extract_components(s, coords)[0]
        from plumbtrace.holonomy import component_trace
        from plumbtrace.standardpos import scc_count

        trace = component_trace(comp)
        # flip the subleading coefficient of curve 3
        bad_mono = (1, 1, 1)
        bad = trace.terms.copy()
        r, i = bad[bad_mono]
        bad[bad_mono] = (-r, -i)
        corrupted = GaussPoly(3, bad)
        report = check_trace_polynomial(
            corrupted, comp.q, coords.p, scc_count(s, coords)
        )
        assert not report.passed
        failing = [c.curve for c in report.subleading if not c.ok]
        assert failing == [2]

    def test_corrupted_leading_unit_fails(self):
        report = verify(four_holed_sphere(), DTCoords((2,), (0,)))
        scaled = report.trace.scale(0, 1)  # multiply by i: wrong unit class
        bad = check_trace_polynomial(scaled, (2,), (0,), 2)
        assert not bad.leading_ok

    def test_term_above_degree_bounds_fails(self):
        report = verify(four_holed_sphere(), DTCoords((2,), (0,)))
        assert report.passed
        cubed = report.trace + GaussPoly(1, {(3,): (1, 0)})
        bad = check_trace_polynomial(cubed, (2,), (0,), report.h)
        assert bad.leading_ok and all(c.ok for c in bad.subleading)
        assert not bad.remainder_degree_ok
        assert not bad.per_variable_degree_ok
        assert bad.failures() == [
            "remainder exceeds total degree bound",
            "a variable exceeds its degree bound",
        ]

    def test_subleading_linear_in_twist(self):
        # slope of the subleading coefficient in p equals the leading one
        lead = predict_top_terms(1, (3,), (1,), 0).coefficient((3,))
        for p in (1, 3, 5):
            poly = predict_top_terms(1, (3,), (p,), 0)
            assert poly.coefficient((2,)).re == lead.re * (p - 3)
            assert poly.coefficient((2,)).im == lead.im * (p - 3)


def test_campaign_on_four_curve_surface():
    # the largest stock surface (four pants curves): every connected fuzz
    # sample has the predicted top-term shape
    from plumbtrace.fuzz import FuzzConfig, random_coords
    from plumbtrace.surface import genus_two_one_hole

    surface = genus_two_one_hole()
    cfg = FuzzConfig(surface, seed=44, max_q=4, max_abs_p=6, count=60, connected_only=True)
    for coords in random_coords(cfg):
        if sum(coords.q) == 0:
            continue
        assert verify(surface, coords).passed


class TestStarTwist:
    def test_one_holed_dual(self):
        s = one_holed_torus()
        coords = DTCoords((1,), (0,))
        comp = extract_components(s, coords)[0]
        out = p_star_check(comp.word, coords.p, window_twists(s, coords))
        assert out == {0: (1, 1)}

    def test_once_crossing_configuration(self):
        from tests_support import n1_surface

        s = n1_surface()
        coords = DTCoords((1, 1), (-1, -1))
        comp = extract_components(s, coords)[0]
        out = p_star_check(comp.word, coords.p, window_twists(s, coords))
        assert all(lhs == rhs for lhs, rhs in out.values())

    def test_shift_consistency_under_twisting(self):
        s = genus_two()
        base = DTCoords((1, 1, 2), (1, 1, 0))
        for n in (0, 1, 3, -2):
            coords = twist_curve(base, 2, n)
            comp = extract_components(s, coords)[0]
            out = p_star_check(comp.word, coords.p, window_twists(s, coords))
            assert all(lhs == rhs for lhs, rhs in out.values())

    def test_rejects_crossing_without_flanking_traversals(self):
        s = one_holed_torus()
        coords = DTCoords((1,), (0,))
        word = extract_components(s, coords)[0].word
        crossing = word.crossings()[0]
        bad = Word(word.arity, (crossing, crossing))
        with pytest.raises(WordError, match="not flanked by traversals"):
            p_star_check(bad, coords.p, window_twists(s, coords))

    def test_rejects_words_with_same_slot_returns(self):
        s = four_holed_sphere()
        comp = extract_components(s, DTCoords((2,), (0,)))[0]
        with pytest.raises(CoordError, match="same-slot"):
            p_star_check(comp.word, (0,), (-1,))
