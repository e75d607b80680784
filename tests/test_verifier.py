"""Top-term prediction and verification."""

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from embedding_oracle import p_star_check
from oracle import Poly, lift, predict_top_terms
from plumbtrace import gausspoly, verifier
from plumbtrace.dtcoords import (
    CoordError,
    DTCoords,
    NegativeTwistOnZeroLength,
    ParityViolation,
    twist_correction,
    validate,
    window_twists,
)
from plumbtrace.gausspoly import GaussPoly, _box
from plumbtrace.holonomy import WordError
from plumbtrace.standardpos import Word, extract_components
from plumbtrace.fuzz import FuzzConfig, random_coords
from plumbtrace.surface import (
    four_holed_sphere,
    genus_two,
    genus_two_one_hole,
    load_surface,
    one_holed_torus,
    twice_holed_torus,
)
from tests_support import crossings, pack, packed_form, twist_curve
from plumbtrace.verifier import check_trace_polynomial, verify

ROOT = Path(__file__).resolve().parent.parent
SURFACE_FILES = sorted((ROOT / "surfaces").glob("*.surf"))


class TestPredict:
    def test_four_holed_dual(self):
        # q=2, p=0, h=2: -4 t^2 + 8 t
        assert predict_top_terms(1, (2,), (0,), 2) == Poly(1, {(2,): -4, (1,): 8})

    def test_single_crossing_family(self):
        # q=1, p=0, h=0: i*(t - 1)
        assert predict_top_terms(1, (1,), (0,), 0) == Poly(1, {(1,): (0, 1), (0,): (0, -1)})

    def test_two_variable(self):
        # q=(1,1), p=(0,0), h=0: -(t1 t2 - t2 - t1)
        assert predict_top_terms(2, (1, 1), (0, 0), 0) == Poly(
            2, {(1, 1): -1, (0, 1): 1, (1, 0): 1}
        )

    def test_zero_crossing_rejected(self):
        with pytest.raises(ValueError):
            predict_top_terms(2, (0, 0), (1, 0), 0)

    def test_top_terms_of_verified_traces(self):
        # the oracle's prediction, read off the trace's terms with no help
        # from the check, on seeded curves of every stock surface
        checked = 0
        for path in SURFACE_FILES:
            surface = load_surface(str(path))
            cfg = FuzzConfig(surface, seed=9, max_q=4, max_abs_p=6, count=8, connected_only=True)
            for coords in random_coords(cfg):
                report = verify(surface, coords)
                if not sum(report.q):
                    continue
                predicted = predict_top_terms(surface.xi, report.q, report.p, report.h)
                top = [report.q] + [
                    tuple(e - (j == k) for j, e in enumerate(report.q))
                    for k in range(surface.xi)
                    if report.q[k]
                ]
                trace = lift(report.trace)
                got = Poly(surface.xi, {m: trace.coefficient(m) for m in top})
                assert got in (predicted, -predicted), coords
                checked += 1
        assert checked >= 25


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
        # one subleading slot of the trace off by one, either way: exactly
        # that curve's check fails
        report = verify(genus_two(), DTCoords((1, 1, 2), (1, 1, 0)))
        trace = report.trace
        strides, _ = _box(trace.counts)
        for curve in range(3):
            mono = tuple(e - (k == curve) for k, e in enumerate(report.q))
            j = sum(e * s for e, s in zip(mono, strides))
            for delta in (1, -1):
                slots = list(trace.slots)
                slots[j] += delta
                corrupted = dataclasses.replace(trace, slots=tuple(slots))
                bad = check_trace_polynomial(corrupted, report.q, report.p, report.h)
                assert [c.curve for c in bad.subleading if not c.ok] == [curve]
                assert bad.leading_ok and bad.remainder_degree_ok and bad.per_variable_degree_ok
        # on the imaginary axis: i*t1 - i with its constant slot zeroed
        report = verify(one_holed_torus(), DTCoords((1,), (0,)))
        corrupted = dataclasses.replace(report.trace, slots=(0, 1))
        bad = check_trace_polynomial(corrupted, report.q, report.p, report.h)
        assert bad.failures() == ["curve 0: subleading 0 != -i"]

    def test_corrupted_leading_unit_fails(self):
        # the imag flag flipped: every coefficient times a unit +-i, so the
        # leading one leaves the class +-i^q 2^h and the subleading stay
        # consistent with it; real and imaginary traces alike
        for surface, q, p, failure in [
            (four_holed_sphere(), (2,), (0,), "leading coefficient 4i is not a unit * 2^2"),
            (one_holed_torus(), (1,), (0,), "leading coefficient 1 is not a unit * 2^0"),
            (genus_two(), (1, 1, 2), (1, 1, 0), "leading coefficient i is not a unit * 2^0"),
        ]:
            report = verify(surface, DTCoords(q, p))
            flipped = dataclasses.replace(report.trace, imag=not report.trace.imag)
            bad = check_trace_polynomial(flipped, report.q, report.p, report.h)
            assert not bad.leading_ok and all(c.ok for c in bad.subleading), q
            assert bad.failures() == [failure]

    def test_term_above_degree_bounds_fails(self):
        # the box widened by one on t1, with a nonzero outer slot t1^3
        report = verify(four_holed_sphere(), DTCoords((2,), (0,)))
        assert report.passed
        cubed = repacked(report, (3,), [((3,), 1)])
        bad = check_trace_polynomial(cubed, (2,), (0,), report.h)
        assert bad.leading_ok and all(c.ok for c in bad.subleading)
        assert not bad.remainder_degree_ok
        assert not bad.per_variable_degree_ok
        assert bad.failures() == [
            "remainder exceeds total degree bound",
            "a variable exceeds its degree bound",
        ]

    def test_parallel_component_reads_its_one_slot(self, monkeypatch):
        # q_tot = 0: the constant 2 in one slot passes; in a larger box it
        # passes while every outer slot is zero, and fails otherwise
        surface, coords = four_holed_sphere(), DTCoords((0,), (1,))
        assert verify(surface, coords).passed
        for packed, counts, passed in [
            (2, (1,), True),
            ((1 << 32) + 2, (1,), False),
            (3, (0,), False),
            (-2, (0,), False),
        ]:
            trace = packed_form(packed, counts, 32)
            monkeypatch.setattr(verifier, "component_trace", lambda comp: trace)
            assert verify(surface, coords).passed == passed, (packed, counts)

    def test_subleading_linear_in_twist(self):
        # slope of the subleading coefficient in p equals the leading one
        lead_re, lead_im = predict_top_terms(1, (3,), (1,), 0).coefficient((3,))
        for p in (1, 3, 5):
            poly = predict_top_terms(1, (3,), (p,), 0)
            assert poly.coefficient((2,)) == (lead_re * (p - 3), lead_im * (p - 3))


def campaign_pool():
    """Every distinct curve of the benchmark's campaign pool (read only)."""
    strata = json.loads((ROOT / "pipebench" / "pool.json").read_text())["workloads"]["campaign"]
    return sorted({(name, tuple(q), tuple(p)) for stratum in strata for name, q, p, _ in stratum})


def repacked(report, counts, extra=()):
    """report.trace packed into the box prod_k [0, counts[k]], 64-bit slots,
    with the terms `extra` ((monomial, coefficient) pairs) added."""
    terms = report.trace.terms
    imag = any(i for _, i in terms.values())
    ints = {m: i if imag else r for m, (r, i) in terms.items()}
    for mono, c in extra:
        ints[mono] = ints.get(mono, 0) + c
    return packed_form(pack(ints, counts, 64), counts, 64, imag)


class TestPackedCheck:
    def test_packed_is_the_dict_check_on_the_campaign_pool(self):
        # the box read against the term scan: the same trace in a box one
        # larger on every variable, whose outer slots are all zero, takes
        # the scan of its terms and must give the same report
        surfaces = {}
        pool = campaign_pool()
        assert len(pool) > 600
        for name, q, p in pool:
            if name not in surfaces:
                surfaces[name] = load_surface(str(ROOT / "surfaces" / f"{name}.surf"))
            report = verify(surfaces[name], DTCoords(q, p))
            assert report.passed, (name, q, p)
            wider = repacked(report, tuple(n + 1 for n in report.q))
            again = check_trace_polynomial(wider, report.q, report.p, report.h)
            assert report.to_record() == again.to_record(), (name, q, p)

    # genus two, q = (1, 1, 2): a real trace with the box (1, 1, 2)
    @pytest.mark.parametrize(
        "extra,remainder_ok",
        [
            (((0, 0, 3), 1), False),  # t3^3: degree 3 > q_tot - 2
            (((2, 0, 0), -5), True),  # t1^2: degree 2 = q_tot - 2
            (((2, 1, 2), 7), False),  # the corner of the larger box
            (((0, 2, 0), 1), True),
        ],
    )
    def test_nonzero_slot_beyond_q_fails_as_the_dict_copy(self, extra, remainder_ok):
        # the scan finds the one outer term in every box that holds it, and
        # reports what the oracle's terms say of the degrees
        report = verify(genus_two(), DTCoords((1, 1, 2), (1, 1, 0)))
        boxes = 0
        for counts in ((2, 2, 3), (2, 2, 2), (3, 1, 4)):
            if any(e > n for e, n in zip(extra[0], counts)):
                continue
            packed = repacked(report, counts, [extra])
            bad = check_trace_polynomial(packed, report.q, report.p, report.h)
            assert not bad.per_variable_degree_ok
            assert bad.remainder_degree_ok == remainder_ok
            assert bad.leading_ok and all(c.ok for c in bad.subleading)
            terms = lift(packed).terms
            assert extra[0] in terms and len(terms) == len(report.trace.terms) + 1
            boxes += 1
        assert boxes >= 2

    @pytest.mark.parametrize(
        "surface,q,p",
        [
            (genus_two(), (1, 1, 2), (1, 1, 0)),  # real coefficients
            (one_holed_torus(), (1,), (0,)),  # imaginary coefficients
            (four_holed_sphere(), (2,), (0,)),
        ],
    )
    def test_zero_slots_beyond_q_pass(self, surface, q, p):
        # a box larger than q, on one variable or on all, with every outer
        # slot zero: the scan is exact, so the check still passes
        report = verify(surface, DTCoords(q, p))
        assert report.passed
        boxes = [tuple(n + grow for n in report.q) for grow in (1, 2)]
        boxes += [tuple(n + (j == k) for j, n in enumerate(report.q)) for k in range(surface.xi)]
        for counts in boxes:
            packed = repacked(report, counts)
            again = check_trace_polynomial(packed, report.q, report.p, report.h)
            assert again.to_record() == report.to_record(), counts

    def test_scan_of_a_wider_box_builds_no_term_dict(self, monkeypatch):
        # the scan lists the monomials of the nonzero slots, not ``terms``
        report = verify(genus_two(), DTCoords((1, 1, 2), (1, 1, 0)))
        packed = repacked(report, (2, 2, 3), [((0, 0, 3), 1)])

        def refuse(*args):
            raise AssertionError("term dict built")

        monkeypatch.setattr(GaussPoly, "terms", property(refuse))
        bad = check_trace_polynomial(packed, report.q, report.p, report.h)
        assert not bad.remainder_degree_ok and not bad.per_variable_degree_ok

    def test_no_crossing_keeps_the_scan(self):
        # with q_tot = 0 the box rule does not apply: the scan reads the
        # empty remainder as degree -1 > q_tot - 2
        two = GaussPoly((2,), (0,), False)
        report = check_trace_polynomial(two, (0,), (1,), 1)
        assert report.leading_ok and report.per_variable_degree_ok
        assert not report.remainder_degree_ok

    def test_verify_reads_the_slots_once(self, monkeypatch):
        # the trace's slots are read once per curve, when ``Mat2.trace``
        # builds it, and every ``coefficient`` indexes them; the parallel
        # constant 2 is built without a read
        calls = []

        def counted(*args):
            calls.append(args)
            return read(*args)

        read = gausspoly._slots
        monkeypatch.setattr(gausspoly, "_slots", counted)
        surface = genus_two_one_hole()
        cfg = FuzzConfig(surface, seed=5, max_q=5, max_abs_p=6, count=20, connected_only=True)
        for coords in random_coords(cfg):
            calls.clear()
            report = verify(surface, coords)
            assert report.passed
            assert len(calls) == (1 if any(coords.q) else 0), coords
            box = itertools.product(*(range(n + 1) for n in report.trace.counts))
            for mono in box:
                report.trace.coefficient(mono)
            assert len(calls) == (1 if any(coords.q) else 0), coords

    def test_verify_builds_no_term_dict(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("term dict built")

        monkeypatch.setattr(GaussPoly, "terms", property(refuse))
        checked = 0
        for path in SURFACE_FILES:
            surface = load_surface(str(path))
            cfg = FuzzConfig(surface, seed=5, max_q=5, max_abs_p=6, count=10, connected_only=True)
            for coords in random_coords(cfg):
                report = verify(surface, coords)
                assert report.passed
                report.to_record()
                checked += 1
        assert checked == 10 * len(SURFACE_FILES)


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


def realizable_twists(surface, q, max_abs_p):
    """Per curve, the twists |p_i| <= max_abs_p that name a curve with these
    intersection numbers: p_i >= 0 where q_i = 0, else the one parity class
    that makes the window twist (p_i - q_i + correction) / 2 an integer."""
    pattern = validate(surface, DTCoords(q, (0,) * surface.xi))
    out = []
    for i, qi in enumerate(q):
        if qi == 0:
            out.append(range(max_abs_p + 1))
        else:
            first = -max_abs_p + (-max_abs_p - qi + twist_correction(surface, pattern, i)) % 2
            out.append(range(first, max_abs_p + 1, 2))
    return out


@pytest.mark.parametrize(
    "make_surface,max_q,max_abs_p,every_p,pinned",
    [
        pytest.param(twice_holed_torus, 4, 5, True, (400, 166, 166), id="twice_holed_torus"),
        pytest.param(genus_two, 3, 4, True, (2920, 591, 591), id="genus_two"),
        # 7^4 twists per q in the full box, too slow to try them all
        pytest.param(genus_two_one_hole, 2, 3, False, (4890, 519, 519), id="genus_two_one_hole"),
    ],
)
def test_exhaustive_box(make_surface, max_q, max_abs_p, every_p, pinned):
    # every admissible (q, p) with q_i <= max_q and |p_i| <= max_abs_p, so
    # zero entries of q and twists at the parity edge are all reached, which
    # sampling can miss; a q odd at some pants is refused whatever p is, so
    # it is skipped.  With every_p, every p in the box is tried and exactly
    # the realizable twists must be accepted; otherwise only the realizable
    # twists are drawn, and each must be accepted
    surface = make_surface()
    admissible = connected = passed = 0
    for q in itertools.product(range(max_q + 1), repeat=surface.xi):
        try:
            twists = realizable_twists(surface, q, max_abs_p)
        except ParityViolation:
            continue
        if every_p:
            box = itertools.product(range(-max_abs_p, max_abs_p + 1), repeat=surface.xi)
        else:
            box = itertools.product(*twists)
        for p in box:
            coords = DTCoords(q, p)
            realizable = all(map(range.__contains__, twists, p))
            try:
                components = extract_components(surface, coords)
            except CoordError:
                assert not realizable, coords
                continue
            assert realizable, coords
            admissible += 1
            if len(components) == 1:
                connected += 1
                passed += verify(surface, coords).passed
    assert (admissible, connected, passed) == pinned


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
        crossing = crossings(word)[0]
        bad = Word(word.arity, (crossing, crossing))
        with pytest.raises(WordError, match="not flanked by traversals"):
            p_star_check(bad, coords.p, window_twists(s, coords))

    def test_rejects_words_with_same_slot_returns(self):
        s = four_holed_sphere()
        comp = extract_components(s, DTCoords((2,), (0,)))[0]
        with pytest.raises(CoordError, match="same-slot"):
            p_star_check(comp.word, (0,), (-1,))
