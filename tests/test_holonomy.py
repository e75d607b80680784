"""Generator matrices, word evaluation, trace polynomials."""

import cmath
import dataclasses
import functools
import itertools
import json
import random

import pytest

import oracle
from oracle import (
    BOUNDARY_LOOP,
    CUSP_PATH,
    FLIP,
    SLOT_TO_TOP,
    Mat,
    Poly,
    adjugate,
    canonical_sign,
    crossing_factor,
    crossing_matrix,
    det,
    generator_product,
    grlex_key,
    identity,
    inverse_word_holonomy,
    lift,
    loop_factor,
    matmul,
    neg,
    of_ints,
    translation,
)
from plumbtrace.dtcoords import CoordError, DTCoords
from plumbtrace import gausspoly
from plumbtrace.fuzz import random_coords
from plumbtrace.gausspoly import GaussPoly, _box, _lead_sign
from plumbtrace.holonomy import (
    WordError,
    _column,
    _multiply,
    annulus_from_gluing_parameter,
    evaluate_word,
    gluing_parameter_from_annulus,
    joint_matrix,
    trace_of_curve,
    word_trace,
)
from plumbtrace.standardpos import (
    Conn,
    Crossing,
    SccLoop,
    Word,
    extract_components,
)
from plumbtrace.surface import SLOT_0, SLOT_1, SLOT_INF
from tests_support import (
    BOXES,
    ROOT,
    STOCK,
    crossings,
    degree_in,
    pack,
    packed_form,
    random_terms,
    stock,
    total_degree,
)
from word_text import word_from_text


def C(arity, re, im=0):
    return Poly.const(arity, re, im)


def sample_words():
    """Words of seeded connected curves on every stock surface."""
    words = []
    for name in STOCK:
        surface = stock(name)
        sample = random_coords(
            surface, seed=13, max_q=3, max_abs_p=4, count=12, connected_only=True,
        )
        for coords in sample:
            words.extend(c.word for c in extract_components(surface, coords) if c.word)
    return words


def trace_sample_words():
    """sample_words() plus seeded connected words at arity 4."""
    surface = stock("genus_two_one_hole")
    sample = random_coords(surface, seed=5, max_q=2, max_abs_p=4, count=12, connected_only=True)
    words = [c.word for co in sample for c in extract_components(surface, co)]
    return sample_words() + [w for w in words if w]


def check_word_trace(word):
    """word_trace against the canonical trace of the generator product,
    which shares no code with the packed kernel."""
    trace = generator_product(word).trace()
    if trace.is_zero():  # canonical_sign refuses it, and so must word_trace
        with pytest.raises(ValueError, match="zero"):
            word_trace(word)
    else:
        assert lift(word_trace(word)) == canonical_sign(trace), word


class TestGenerators:
    def test_constants(self):
        assert of_ints(1, FLIP) == Mat(C(1, 0, -1), C(1, 0), C(1, 0), C(1, 0, 1))
        assert SLOT_TO_TOP[SLOT_0] == ((1, -1), (1, 0))
        assert SLOT_TO_TOP[SLOT_1] == ((0, -1), (1, -1))
        assert of_ints(1, SLOT_TO_TOP[SLOT_INF]) == identity(1)
        assert BOUNDARY_LOOP[SLOT_0] == ((1, 0), (2, 1))
        assert BOUNDARY_LOOP[SLOT_1] == ((-3, 2), (-2, 1))
        assert BOUNDARY_LOOP[SLOT_INF] == ((1, -2), (0, 1))
        assert CUSP_PATH[SLOT_0] == ((1, 2), (0, 1))
        assert of_ints(1, CUSP_PATH[SLOT_1]) == identity(1)

    def test_boundary_loops_from_cusp_paths(self):
        path = [of_ints(1, rows) for rows in CUSP_PATH]
        for cusp, (a, b) in zip((SLOT_0, SLOT_1, SLOT_INF), ((2, 1), (0, 2), (1, 0))):
            assert of_ints(1, BOUNDARY_LOOP[cusp]) == matmul(path[a], adjugate(path[b]))

    def test_determinants(self):
        one = C(1, 1)
        tables = (SLOT_TO_TOP, BOUNDARY_LOOP, CUSP_PATH)
        for m in [of_ints(1, FLIP), translation(1, 0)] + [
            of_ints(1, table[s]) for s in (0, 1, 2) for table in tables
        ]:
            assert det(m) == one

    def test_rotation_relations(self):
        w0, w1 = of_ints(1, SLOT_TO_TOP[SLOT_0]), of_ints(1, SLOT_TO_TOP[SLOT_1])
        assert matmul(w0, w1) == neg(identity(1))
        assert matmul(w0, w0) == w1

    def test_boundary_loop_product_is_identity(self):
        loops = (of_ints(1, BOUNDARY_LOOP[s]) for s in (SLOT_0, SLOT_INF, SLOT_1))
        assert matmul(*loops) == identity(1)

    def test_boundary_loops_parabolic(self):
        two = C(1, 2)
        for s in (0, 1, 2):
            m = of_ints(1, BOUNDARY_LOOP[s])
            assert canonical_sign(m.trace()) == two
            assert m != identity(1) and m != neg(identity(1))

    def test_translation_is_parabolic(self):
        assert translation(3, 1).trace() == C(3, 2)


class TestCrossingMatrix:
    def test_zero_twist(self):
        m = crossing_matrix(1, 0, 0)
        i = C(1, 0, 1)
        t = Poly.var(1, 0)
        assert m == Mat(i, (-t).scale(0, 1), Poly(1), C(1, 0, -1))

    def test_matches_generator_product(self):
        # one positive wrap before the crossing
        arity, curve = 2, 1
        expect = matmul(
            adjugate(of_ints(arity, BOUNDARY_LOOP[SLOT_INF])),
            adjugate(of_ints(arity, FLIP)),
            adjugate(translation(arity, curve)),
        )
        assert crossing_matrix(arity, curve, 1) == expect

    def test_twist_placement_irrelevant(self):
        # a wrap emitted before the crossing (inverted loop) equals the same
        # wrap emitted after it (plain loop): the matrix is identical
        arity = 1
        loop = of_ints(arity, BOUNDARY_LOOP[SLOT_INF])
        core = matmul(adjugate(of_ints(arity, FLIP)), adjugate(translation(arity, 0)))
        pre = matmul(adjugate(loop), core)
        post = matmul(core, loop)
        assert pre == post == crossing_matrix(arity, 0, 1)

    def test_determinant_one(self):
        for t in (-3, 0, 5):
            assert det(crossing_matrix(2, 0, t)) == C(2, 1)


class TestConnectorTable:
    def test_all_six_reduce(self):
        w = [of_ints(1, SLOT_TO_TOP[s]) for s in (SLOT_0, SLOT_1)]
        for entry in (0, 1, 2):
            for exit_ in (0, 1, 2):
                if entry == exit_:
                    continue
                k = of_ints(1, joint_matrix(entry, (), exit_))
                # exit at predecessor -> +-W0, at successor -> +-W1
                cls = 0 if exit_ == (entry + 2) % 3 else 1
                assert k in (w[cls], neg(w[cls])), (entry, exit_)


# loop runs between two crossings: none, one return either way at any slot,
# and two returns in a row (which the compiler never emits)
LOOP_RUNS = [()] + [((s, e),) for s in (0, 1, 2) for e in (1, -1)] + [
    ((0, 1), (0, 1)),
    ((2, -1), (1, 1)),
    ((1, 1), (1, -1)),
]


class TestFactorTable:
    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_crossing_entries_match_generator_product(self, arity):
        # the ends of the joints on either side of a crossing, around the
        # slot-free core, give back the crossing's own generator product
        one = C(arity, 1)
        for curve in range(arity):
            for out_slot in (0, 1, 2):
                for in_slot in (0, 1, 2):
                    for twist in range(-4, 5):
                        tok = Crossing(curve, 0, out_slot, 0, in_slot, twist)
                        m = matmul(
                            of_ints(arity, joint_matrix(SLOT_INF, (), out_slot)),
                            crossing_matrix(arity, curve, twist),
                            of_ints(arity, joint_matrix(in_slot, (), SLOT_INF)),
                        )
                        assert m == crossing_factor(arity, tok)
                        assert det(m) == one

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_loop_entries_match_generator_product(self, arity):
        # K = W_in . L . W_out^-1 for every (in slot, loop run, out slot)
        for in_slot in (0, 1, 2):
            for out_slot in (0, 1, 2):
                for run in LOOP_RUNS:
                    expect = of_ints(arity, SLOT_TO_TOP[in_slot])
                    for slot, sign in run:
                        expect = matmul(expect, loop_factor(arity, SccLoop(0, slot, sign)))
                    expect = matmul(expect, adjugate(of_ints(arity, SLOT_TO_TOP[out_slot])))
                    k = of_ints(arity, joint_matrix(in_slot, run, out_slot))
                    assert k == expect, (in_slot, run, out_slot)
                    assert det(k) == C(arity, 1)


class TestEvaluatorAgainstGeneratorProduct:
    def test_sample_covers_every_surface(self):
        # the differential tests below would pass vacuously on an empty sample
        assert {w.arity for w in sample_words()} == {1, 2, 3}

    def test_matches_oracle_on_sample(self):
        for word in sample_words():
            assert lift(evaluate_word(word)) == generator_product(word), word

    def test_inverse_is_adjugate_on_sample(self):
        for word in sample_words():
            assert inverse_word_holonomy(word) == adjugate(lift(evaluate_word(word)))

    def test_no_generic_products(self, monkeypatch):
        # neither fast path reaches the reference's products
        words = sample_words()

        def refuse(*args):
            raise AssertionError("generic product called")

        for name in ("pmul", "mat_mul", "_mul_into"):
            monkeypatch.setattr(oracle, name, refuse)
        for word in words:
            evaluate_word(word)
            word_trace(word)


# hand-written words of shapes the compiler never emits, in the text form
UNUSUAL_WORDS = {
    "single crossing": "cross c=1 out=(0,1) in=(1,0) t=3",
    "leading loop": """
        loop p=0 slot=inf s=+1
        cross c=1 out=(0,inf) in=(1,0) t=-1
        conn p=1 in=0 out=inf
        cross c=2 out=(1,inf) in=(0,1) t=2
    """,
    "crossings in a row": """
        cross c=1 out=(0,0) in=(1,1) t=1
        cross c=2 out=(1,1) in=(0,inf) t=0
        cross c=1 out=(0,inf) in=(1,0) t=-2
    """,
    "loops in a row": """
        cross c=2 out=(0,1) in=(1,inf) t=1
        loop p=1 slot=inf s=-1
        loop p=1 slot=inf s=-1
        loop p=1 slot=0 s=+1
        cross c=1 out=(1,0) in=(0,0) t=0
    """,
    "trailing loop": """
        cross c=1 out=(0,inf) in=(1,1) t=0
        conn p=1 in=1 out=0
        cross c=2 out=(1,0) in=(0,1) t=-1
        loop p=0 slot=1 s=+1
    """,
}


def chain(q):
    """q crossings alternating between two curves, joined in turn by a
    traversal (to the successor or the predecessor slot) and by a same-slot
    return (of either sign), with twists -1, 0, 1."""
    names = ("0", "1", "inf")
    lines, out = [], 0
    for j in range(q):
        in_ = (out + j) % 3
        lines.append(f"cross c={j % 2 + 1} out=(0,{names[out]}) in=(1,{names[in_]}) t={j % 3 - 1}")
        if j % 2:
            lines.append(f"loop p=1 slot={names[in_]} s={(-1) ** (j // 2):+d}")
            out = in_
        else:
            out = (in_ + 1 + j // 2 % 2) % 3
            lines.append(f"conn p=1 in={names[in_]} out={names[out]}")
    return "\n".join(lines)


class TestUnusualWords:
    @pytest.mark.parametrize("name", sorted(UNUSUAL_WORDS))
    def test_matches_generator_product(self, name):
        word = word_from_text(2, UNUSUAL_WORDS[name])
        assert lift(evaluate_word(word)) == generator_product(word)
        check_word_trace(word)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_phase_in_every_residue(self, q):
        # the crossings' units i are applied once as i^q: cover q mod 4
        word = word_from_text(2, chain(q))
        assert len(crossings(word)) == q
        m = lift(evaluate_word(word))
        assert m == generator_product(word)
        assert det(m) == C(2, 1)
        check_word_trace(word)

    @pytest.mark.parametrize("curve", [0, 3])
    def test_curve_outside_arity_rejected(self, curve):
        # the exponent box has no axis for such a curve: refuse, do not drop it
        word = word_from_text(2, f"cross c={curve} out=(0,1) in=(1,0) t=0")
        with pytest.raises(WordError, match="arity 2"):
            evaluate_word(word)
        with pytest.raises(WordError, match="arity 2"):
            word_trace(word)

    def test_second_crossing_outside_arity_rejected(self):
        # the refusal names the crossing that lies outside, not the first one
        word = word_from_text(2, """
            cross c=1 out=(0,inf) in=(1,0) t=0
            conn p=1 in=0 out=inf
            cross c=3 out=(1,inf) in=(0,1) t=1
        """)
        for evaluate in (evaluate_word, word_trace):
            with pytest.raises(WordError, match="^crossing of curve 3 in a word of arity 2$"):
                evaluate(word)


class TestWordTrace:
    def test_sample_covers_every_arity_and_residue(self):
        words = trace_sample_words()
        assert {w.arity for w in words} == {1, 2, 3, 4}
        assert {len(crossings(w)) % 4 for w in words} == {0, 1, 2, 3}

    def test_matches_full_matrix_on_sample(self):
        for word in trace_sample_words():
            check_word_trace(word)
            assert str(evaluate_word(word).trace()) == str(word_trace(word)), word

    def test_no_matrix_sum_or_negation(self, monkeypatch):
        # GaussPoly has no sum or negation to call; the trace is summed and
        # signed as one packed int, and the matrix entries are never built
        words = trace_sample_words()
        calls = []

        def counted(poly, *args):
            calls.append(args)
            init(poly, *args)

        assert not any(hasattr(GaussPoly, name) for name in ("__neg__", "__add__", "__sub__"))
        init = GaussPoly.__init__
        monkeypatch.setattr(GaussPoly, "__init__", counted)
        for word in words:
            word_trace(word)
        assert len(calls) == len(words)


def lead_signed(packed, counts, width):
    """The packed polynomial negated when its graded-lex leading coefficient
    is negative, as word_trace signs the trace."""
    return -packed if _lead_sign(packed, counts, width) < 0 else packed


class TestDenseLayout:
    @pytest.mark.parametrize("counts", BOXES)
    def test_index_is_a_bijection_in_product_order(self, counts):
        strides, size = _box(counts)
        box = itertools.product(*(range(c + 1) for c in counts))
        assert [sum(e * s for e, s in zip(m, strides)) for m in box] == list(range(size))
        assert size == len(list(itertools.product(*(range(c + 1) for c in counts))))

    @pytest.mark.parametrize("width", [32, 64, 72, 136])
    @pytest.mark.parametrize("counts", BOXES)
    def test_unpack_lists_terms_in_product_order(self, counts, width):
        rng = random.Random(f"{list(counts)}:{width}")
        for corner in (True, False):
            terms = random_terms(rng, counts, width, corner)
            order = [m for m in itertools.product(*(range(c + 1) for c in counts)) if m in terms]
            for imag in (False, True):
                got = packed_form(pack(terms, counts, width), counts, width, imag).terms
                assert list(got) == order
                assert got == {m: (0, c) if imag else (c, 0) for m, c in terms.items()}

    @pytest.mark.parametrize("width", [32, 64, 72, 136])
    @pytest.mark.parametrize("counts", BOXES)
    def test_slot_render_is_the_dict_render(self, counts, width):
        # every box, zero crossing counts included, at every kind of slot:
        # read as 32- or 64-bit words or sliced out of the bytes
        rng = random.Random(f"render:{list(counts)}:{width}")
        for corner in (True, False):
            terms = random_terms(rng, counts, width, corner)
            packed = pack(terms, counts, width)
            for imag in (False, True):
                poly = packed_form(packed, counts, width, imag)
                lifted = {m: (0, c) if imag else (c, 0) for m, c in terms.items()}
                assert str(poly) == str(Poly(len(counts), lifted))

    @pytest.mark.parametrize("width", [32, 64, 72])
    def test_zero_counts_keep_the_variable_numbers(self, width):
        # t1 and t4 have no axis in the box [0, 0] x [0, 2] x [0, 1] x [0, 0]
        counts = (0, 2, 1, 0)
        terms = {(0, 2, 1, 0): 1, (0, 0, 1, 0): -3, (0, 1, 0, 0): 1, (0, 0, 0, 0): 1}
        packed = pack(terms, counts, width)
        real = packed_form(packed, counts, width, False)
        imag = packed_form(packed, counts, width, True)
        assert str(real) == "t2^2*t3 - 3*t3 + t2 + 1"
        assert str(imag) == "i*t2^2*t3 - 3i*t3 + i*t2 + i"

    @pytest.mark.parametrize("width", [32, 64, 72])
    @pytest.mark.parametrize("counts", BOXES)
    def test_lead_is_the_grlex_greatest_term(self, counts, width):
        # with and without a zero corner, for every phase i^q: the sign
        # comes from max(terms, key=grlex_key), as canonical_sign takes it
        rng = random.Random(f"lead:{list(counts)}:{width}")
        for corner in (True, False):
            for _ in range(5):
                terms = random_terms(rng, counts, width, corner)
                if not terms:
                    continue
                lead = max(terms, key=grlex_key)
                assert (lead == tuple(counts)) == corner
                for ur, ui in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                    poly = Poly(len(counts), {m: (ur * c, ui * c) for m, c in terms.items()})
                    got = lead_signed((ur + ui) * pack(terms, counts, width), counts, width)
                    signed = packed_form(got, counts, width, bool(ui))
                    assert signed.terms == canonical_sign(poly).terms

    def test_lead_sign_is_not_the_packed_sign(self):
        # t2 - t1 + 1: the highest slot holds t1, the graded-lex lead is t2
        terms = {(0, 1): 1, (1, 0): -1, (0, 0): 1}
        packed = pack(terms, (1, 1), 32)
        assert packed < 0
        got = packed_form(lead_signed(packed, (1, 1), 32), (1, 1), 32).terms
        assert got == {(0, 1): (1, 0), (1, 0): (-1, 0), (0, 0): (1, 0)}


@functools.cache
def deep_words():
    """Words of seeded connected curves with q_i <= 8 on genus two with one
    hole, the size of the benchmark's deep workload."""
    surface = stock("genus_two_one_hole")
    sample = random_coords(surface, seed=3, max_q=8, max_abs_p=8, count=25, connected_only=True)
    return tuple(extract_components(surface, c)[0].word for c in sample)


def render_sample_words():
    """Words of seeded connected curves on the stock surfaces and on genus
    two with one hole."""
    return tuple(sample_words()) + deep_words()


class TestSlotRenderer:
    def test_sample_covers_every_residue_and_slot_kind(self):
        words = render_sample_words()
        assert {len(crossings(w)) % 4 for w in words} == {0, 1, 2, 3}
        assert {evaluate_word(w).width for w in words} >= {32, 64}

    def test_trace_matches_dict_renderer(self):
        for word in render_sample_words():
            p = word_trace(word)
            assert str(p) == str(lift(p)), word

    def test_matrix_entries_match_dict_renderer(self):
        for word in render_sample_words():
            m = evaluate_word(word)
            assert [str(e) for e in m.entries()] == list(map(str, lift(m))), word

    def test_zero_matrix_entry_renders_as_0(self):
        comps = extract_components(stock("one_holed_torus"), DTCoords((1,), (0,)))
        m = evaluate_word(comps[0].word)
        d = m.entries()[3]
        assert not d.terms and str(d) == "0"
        assert str(m) == "[[-i*t1 + i, -i], [-i, 0]]"

    def test_rendering_builds_no_term_dict(self, monkeypatch):
        words = render_sample_words()[::7]

        def refuse(*args):
            raise AssertionError("term dict built")

        monkeypatch.setattr(GaussPoly, "terms", property(refuse))
        for word in words:
            str(word_trace(word))
            str(evaluate_word(word))


# -- point-evaluation oracle -------------------------------------------------

# connected curves with a q_i of 32 on genus two with one hole: 7,113 terms
# in 80-bit slots and 10,020 terms in 144-bit slots
MAX_Q_32 = [((32, 8, 4, 4), (-18, 8, -18, 26)), ((1, 32, 30, 4), (-18, -26, 7, -17))]


def random_point(rng, arity):
    return [(rng.randrange(oracle.P61), rng.randrange(oracle.P61)) for _ in range(arity)]


def agrees_up_to_sign(poly, word, point):
    """Whether poly at point is +- the trace of word's holonomy there."""
    re, im = oracle.point_trace(word, point)
    return oracle.point_value(poly, point) in ((re, im), (-re % oracle.P61, -im % oracle.P61))


def flip_twist(word):
    """The word with the first nonzero twist negated, or None."""
    return _mutate_first(
        word, Crossing, lambda t: t.twist, lambda t: dataclasses.replace(t, twist=-t.twist)
    )


def swap_slots(word):
    """The word with the first crossing between distinct slots reversed, or None."""
    return _mutate_first(
        word,
        Crossing,
        lambda t: t.out_slot != t.in_slot,
        lambda t: dataclasses.replace(t, out_slot=t.in_slot, in_slot=t.out_slot),
    )


def drop_loop(word):
    """The word without its first same-slot return, or None."""
    return _mutate_first(word, SccLoop, lambda t: True, None)


def _mutate_first(word, kind, applies, change):
    tokens = list(word.tokens)
    for j, tok in enumerate(tokens):
        if isinstance(tok, kind) and applies(tok):
            tokens[j : j + 1] = [] if change is None else [change(tok)]
            return Word(word.arity, tuple(tokens))
    return None


@functools.cache
def pool_words(workload):
    """The word of every distinct curve in one workload of the benchmark's
    pool (read only); every such curve is connected."""
    strata = json.loads((ROOT / "pipebench" / "pool.json").read_text())["workloads"][workload]
    curves = sorted({(name, tuple(q), tuple(p)) for s in strata for name, q, p, _ in s})
    return tuple(extract_components(stock(name), DTCoords(q, p))[0].word for name, q, p in curves)


class TestPointOracle:
    @pytest.mark.parametrize("workload,distinct", [("campaign", 651), ("deep", 200)])
    def test_trace_matches_on_the_benchmark_pool(self, workload, distinct):
        words = pool_words(workload)
        assert len(words) == distinct and None not in words
        rng = random.Random(workload)
        for word in words:
            assert agrees_up_to_sign(word_trace(word), word, random_point(rng, word.arity)), word

    def test_matrix_entries_match_on_the_campaign_pool(self):
        rng = random.Random("campaign matrices")
        for word in pool_words("campaign"):
            point = random_point(rng, word.arity)
            (a, b), (c, d) = oracle.point_product(word, point)
            got = [oracle.point_value(e, point) for e in evaluate_word(word).entries()]
            assert got == [a, b, c, d], word

    def test_trace_matches_on_deep_sample(self):
        rng = random.Random("deep")
        for word in deep_words():
            assert agrees_up_to_sign(word_trace(word), word, random_point(rng, word.arity))

    def test_matrix_entries_match_on_deep_sample(self):
        rng = random.Random("matrix")
        for word in deep_words()[:8]:
            point = random_point(rng, word.arity)
            (a, b), (c, d) = oracle.point_product(word, point)
            got = [oracle.point_value(e, point) for e in evaluate_word(word).entries()]
            assert got == [a, b, c, d]

    @pytest.mark.parametrize("q,p", MAX_Q_32)
    def test_trace_matches_at_max_q_32(self, q, p):
        surface = stock("genus_two_one_hole")
        (comp,) = extract_components(surface, DTCoords(q, p))
        point = random_point(random.Random(f"{q}"), 4)
        assert agrees_up_to_sign(word_trace(comp.word), comp.word, point)

    @pytest.mark.parametrize("mutate", [flip_twist, drop_loop, swap_slots])
    def test_mutation_is_caught(self, mutate):
        # a kernel that misread these tokens would evaluate the mutated word
        rng = random.Random(mutate.__name__)
        pairs = [(w, mutate(w)) for w in deep_words()]
        pairs = [(w, m) for w, m in pairs if m is not None]
        assert len(pairs) >= 10
        for word, mutated in pairs:
            assert not agrees_up_to_sign(word_trace(mutated), word, random_point(rng, word.arity))


# -- sympy oracle --------------------------------------------------------------

# W0, W1, Winf: the rotations carrying cusp 0, 1, inf to inf, written out here
# so that this oracle shares no constant with the package or tests/oracle.py
SYMPY_ROTATIONS = (((1, -1), (1, 0)), ((0, -1), (1, -1)), ((1, 0), (0, 1)))


def sympy_words():
    """Words of connected curves with 1 <= q_tot <= 6 on the stock surfaces."""
    words = []
    for name in STOCK:
        surface = stock(name)
        sample = random_coords(surface, seed=0, max_q=3, max_abs_p=6, count=10, connected_only=True)
        for coords in sample:
            if 1 <= sum(coords.q) <= 6:
                words.append(extract_components(surface, coords)[0].word)
    return words


def sympy_holonomy(sympy, word):
    """The word's holonomy as a sympy matrix, factor by factor: a crossing is
    W_out^-1 . i(1 X; 0 -1) . W_in with X = -t_k - 2*twist, a same-slot
    return W_s^-1 . (1 0; 2s 1) . W_s; and the variables t1 .. tn."""
    ts = sympy.symbols(f"t1:{word.arity + 1}")
    rotation = [sympy.Matrix(w) for w in SYMPY_ROTATIONS]
    m = sympy.eye(2)
    for tok in word.tokens:
        if isinstance(tok, Crossing):
            x = -ts[tok.curve] - 2 * tok.twist
            core = sympy.I * sympy.Matrix([[1, x], [0, -1]])
            m = m * rotation[tok.out_slot].inv() * core * rotation[tok.in_slot]
        elif isinstance(tok, SccLoop):
            w = rotation[tok.slot]
            m = m * w.inv() * sympy.Matrix([[1, 0], [2 * tok.sign, 1]]) * w
    return m, ts


def sympy_terms(sympy, expr, ts):
    """expr as an exact {exponents: (re, im)} dict of its nonzero terms."""
    poly = sympy.Poly(sympy.expand(expr), *ts, domain="ZZ_I")
    return {m: (int(sympy.re(c)), int(sympy.im(c))) for m, c in poly.terms() if c}


class TestSympyOracle:
    def test_traces_and_matrices_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        words = sympy_words()
        assert len(words) == 36
        for word in words:
            m, ts = sympy_holonomy(sympy, word)
            got = [e.terms for e in evaluate_word(word).entries()]
            assert got == [sympy_terms(sympy, e, ts) for e in m], word
            trace = sympy_terms(sympy, m.trace(), ts)
            negated = {mono: (-re, -im) for mono, (re, im) in trace.items()}
            assert trace and word_trace(word).terms in (trace, negated), word


def with_twists(word, twists):
    """The word with its crossings' twists replaced, in order."""
    twists = iter(twists)
    return Word(
        word.arity,
        tuple(
            dataclasses.replace(tok, twist=next(twists)) if isinstance(tok, Crossing) else tok
            for tok in word.tokens
        ),
    )


def max_coefficient(poly):
    return max(max(abs(r), abs(i)) for r, i in poly.terms.values())


# one crossing and a same-slot return: the trace is 2i*t1 + 4*twist*i, whose
# constant is the sum of two diagonal constants of about 2*twist each
SUM_OF_DIAGONALS = "cross c=1 out=(0,1) in=(1,1) t={}\nloop p=0 slot=1 s=-1"
# one crossing between the cusps at infinity: the L1 bounds of the entries
# are (1, 2*|twist| + 1, 0, 1), so the (0, 1) entry, whose constant is
# 2*twist, outgrows the diagonal sum; the trace is zero
OFF_DIAGONAL = "cross c=1 out=(0,inf) in=(1,inf) t={}"
# (word, twist = +-(2^(bits - shift) - {1, 0}), the polynomial at the edge)
EDGE_WORDS = [(SUM_OF_DIAGONALS, 2, Mat.trace), (OFF_DIAGONAL, 1, lambda m: m.b)]


class TestKernelEdges:
    @pytest.mark.parametrize("bits", [31, 63])
    @pytest.mark.parametrize("twist_sign", [1, -1])
    @pytest.mark.parametrize("above", [False, True])
    def test_coefficients_either_side_of_a_machine_word(self, bits, twist_sign, above):
        for text, shift, edge in EDGE_WORDS:
            twist = twist_sign * ((1 << (bits - shift)) - (0 if above else 1))
            word = word_from_text(1, text.format(twist))
            m = generator_product(word)
            assert (max_coefficient(edge(m)) >= 1 << bits) == above, text
            assert lift(evaluate_word(word)) == m, text
            check_word_trace(word)

    @pytest.mark.parametrize("q", [2, 5, 8])
    def test_twists_near_2_to_100(self, q):
        # each slot spans several machine words
        rng = random.Random(q)
        word = with_twists(
            word_from_text(2, chain(q)),
            [rng.choice([1, -1]) * ((1 << 100) + rng.randint(-9, 9)) for _ in range(q)],
        )
        m = generator_product(word)
        assert max_coefficient(m.trace()) > 1 << 128
        assert lift(evaluate_word(word)) == m
        check_word_trace(word)

    def test_zero_corner_takes_the_lead_from_the_terms(self):
        # the joint between the two crossings has a zero (2, 1) entry, so the
        # trace has no t1*t2 term; its lead t2 sits below t1 in the packing
        word = word_from_text(
            2, "cross c=1 out=(0,0) in=(1,0) t=1\ncross c=2 out=(0,0) in=(1,1) t=2"
        )
        trace = generator_product(word).trace()
        assert not trace.is_zero() and trace.coefficient((1, 1)) == (0, 0)
        assert trace.leading_monomial() == (0, 1)
        check_word_trace(word)

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_every_arity(self, arity):
        # every curve crossed, and every curve but the first left uncrossed
        names = ("0", "1", "inf")
        lines = [
            f"cross c={c} out=(0,{names[s % 3]}) in=(1,{names[(s + 1) % 3]}) t={s - 2}"
            for s, c in enumerate(list(range(1, arity + 1)) * 2)
        ]
        for text in ("\n".join(lines), lines[0]):
            word = word_from_text(arity, text)
            assert lift(evaluate_word(word)) == generator_product(word)
            check_word_trace(word)


# one multiplier of each class the kernel tells apart: 0, 1, -1 and any other
MULTIPLIER_CLASSES = (
    lambda rng: 0,
    lambda rng: 1,
    lambda rng: -1,
    lambda rng: rng.choice([2, -2, 3, -5]) * rng.choice([1, rng.getrandbits(70) + 1]),
)


def big_int(rng):
    """A random signed int of 0 to about 4,000 bits, or 0 or +-1."""
    n = rng.choice([0, 1, -1, rng.getrandbits(rng.randint(1, 4000))])
    return -n if rng.random() < 0.5 else n


def plain_multiply(k0, steps, shifts):
    """The crossing steps of ``_multiply`` with every multiply written out."""
    (x0, y0), (x1, y1) = k0
    for curve, a0, k10, a1, k11 in steps:
        t0, t1 = (x0 << shifts[curve]) + y0, (x1 << shifts[curve]) + y1
        x0, y0 = a0 * x0 - k10 * t0, a1 * x0 - k11 * t0
        x1, y1 = a0 * x1 - k10 * t1, a1 * x1 - k11 * t1
    return (x0, y0), (x1, y1)


class TestSkipRule:
    """The kernel multiplies by no 0 or +-1, and must give the ints of the
    plain a*x - k*t loop."""

    @pytest.mark.parametrize("a_class", range(4))
    @pytest.mark.parametrize("k_class", range(4))
    def test_column_is_a_x_minus_k_t(self, a_class, k_class):
        rng = random.Random(f"column:{a_class}:{k_class}")
        for _ in range(50):
            a, k = MULTIPLIER_CLASSES[a_class](rng), MULTIPLIER_CLASSES[k_class](rng)
            x, t = big_int(rng), big_int(rng)
            assert _column(a, x, k, t) == a * x - k * t

    @pytest.mark.parametrize("seed", range(20))
    def test_multiply_is_the_plain_loop(self, seed):
        rng = random.Random(f"multiply:{seed}")
        arity = rng.randint(1, 3)
        shifts = [rng.choice([32, 64, 72]) * rng.randint(1, 9) for _ in range(arity)]

        def multiplier():
            return rng.choice(MULTIPLIER_CLASSES)(rng)

        k0 = ((multiplier(), multiplier()), (multiplier(), big_int(rng)))
        steps = [
            (rng.randrange(arity), multiplier(), multiplier(), multiplier(), multiplier())
            for _ in range(rng.randint(1, 12))
        ]
        assert _multiply(k0, steps, shifts) == plain_multiply(k0, steps, shifts)


class TestGoldenEvaluations:
    def test_one_holed_torus_dual_matrix(self):
        comps = extract_components(stock("one_holed_torus"), DTCoords((1,), (0,)))
        m = lift(evaluate_word(comps[0].word))
        t = Poly.var(1, 0)
        one = C(1, 1)
        target = Mat(*(e.scale(0, -1) for e in (t - one, one, one, Poly(1))))
        assert m in (target, neg(target))
        assert m == target  # this word comes out on the nose

    def test_four_holed_dual_worked_product(self):
        # hand-ordered word reproducing the worked four-holed-sphere product
        word = Word(
            1,
            (
                Crossing(0, 0, SLOT_INF, 1, SLOT_INF, 0),
                SccLoop(1, SLOT_INF, +1),
                Crossing(0, 1, SLOT_INF, 0, SLOT_INF, -1),
                SccLoop(0, SLOT_INF, -1),
            ),
        )
        m = lift(evaluate_word(word))
        target = Mat(
            Poly(1, {(2,): -4, (1,): 6, (0,): -3}),
            Poly(1, {(2,): 2, (1,): -4, (0,): 2}),
            Poly(1, {(1,): -4, (0,): 4}),
            Poly(1, {(1,): 2, (0,): -3}),
        )
        # the evaluator lifts every crossing with the same direction-reversal
        # matrix; the worked product flips the lift on the return crossing,
        # so the two differ by the overall projective sign
        assert m == neg(target)
        assert canonical_sign(m.trace()) == Poly(1, {(2,): 4, (1,): -8, (0,): 6})

    def test_four_holed_dual_compiled_trace(self):
        comps = extract_components(stock("four_holed_sphere"), DTCoords((2,), (0,)))
        trace = canonical_sign(lift(evaluate_word(comps[0].word)).trace())
        assert trace == Poly(1, {(2,): 4, (1,): -8, (0,): 6})

    def test_compiled_matrix_has_unit_determinant(self):
        comps = extract_components(stock("four_holed_sphere"), DTCoords((2,), (4,)))
        assert det(lift(evaluate_word(comps[0].word))) == C(1, 1)

    def test_empty_word_rejected(self):
        loops = word_from_text(1, "loop p=0 slot=inf s=+1\nloop p=0 slot=1 s=-1")
        for evaluate in (evaluate_word, word_trace):
            with pytest.raises(WordError, match="^empty word$"):
                evaluate(Word(1, ()))
            with pytest.raises(WordError, match="^word contains no crossing$"):
                evaluate(Word(1, (Conn(0, SLOT_0, SLOT_INF),)))
            with pytest.raises(WordError, match="^word contains no crossing$"):
                evaluate(loops)


class TestTraceOfCurve:
    def test_four_holed_dual_canonical(self):
        results = trace_of_curve(stock("four_holed_sphere"), DTCoords((2,), (0,)))
        assert len(results) == 1
        assert lift(results[0][1]) == Poly(1, {(2,): 4, (1,): -8, (0,): 6})

    def test_one_holed_dual_components(self):
        results = trace_of_curve(stock("one_holed_torus"), DTCoords((2,), (0,)))
        expected = Poly(1, {(1,): (0, 1), (0,): (0, -1)})  # i*(t-1)
        assert len(results) == 2
        assert all(lift(trace) == expected for _, trace in results)

    def test_pants_curve_is_parabolic(self):
        results = trace_of_curve(stock("four_holed_sphere"), DTCoords((0,), (1,)))
        assert len(results) == 1
        assert lift(results[0][1]) == C(1, 2)

    def test_connected_twisted_square(self):
        # one-holed torus, q=2 with one full twist: trace t^2 + 1
        results = trace_of_curve(stock("one_holed_torus"), DTCoords((2,), (2,)))
        assert len(results) == 1
        assert lift(results[0][1]) == Poly(1, {(2,): 1, (0,): 1})

    def test_farey_recursion_on_one_holed_torus(self):
        # Keen-Series: for neighbours, |q1 p2 - q2 p1| = 2 (p counts half
        # twists), tr(sum) and tr(difference), each up to sign, add up to
        # tr1 * tr2; at other determinants the relation never holds
        surface = stock("one_holed_torus")
        traces = {}

        def trace(q, p):
            """The trace of the curve (q, p), alias (-q, -p), or None
            unless it is one connected curve."""
            if q < 0:
                q, p = -q, -p
            if (q, p) not in traces:
                try:
                    results = trace_of_curve(surface, DTCoords((q,), (p,)))
                except CoordError:
                    results = []
                traces[q, p] = lift(results[0][1]) if len(results) == 1 else None
            return traces[q, p]

        curves = [(q, p) for q in range(1, 6) for p in range(-7, 8) if trace(q, p) is not None]
        assert len(curves) == 25
        held = {True: 0, False: 0}
        pairs = {True: 0, False: 0}
        for (q1, p1), (q2, p2) in itertools.combinations(curves, 2):
            total, diff = trace(q1 + q2, p1 + p2), trace(q1 - q2, p1 - p2)
            if total is None or diff is None:
                continue
            product = oracle.mul(trace(q1, p1), trace(q2, p2))
            neighbours = abs(q1 * p2 - q2 * p1) == 2
            pairs[neighbours] += 1
            held[neighbours] += any(
                a + b == product for a in (total, -total) for b in (diff, -diff)
            )
        assert pairs == {True: 36, False: 92}
        assert held == {True: 36, False: 0}

    def test_farey_recursion_along_a_stern_brocot_path(self):
        # the same relation on full traces up to q = 1117: from the
        # neighbours (1, 0) and (2, 2), each step replaces one of the pair
        # r, s, picked by a seeded coin, with their sum, so the pair stays
        # neighbours and the new pair's difference is the curve it dropped
        surface = stock("one_holed_torus")

        def trace(q, p):
            [(_, poly)] = trace_of_curve(surface, DTCoords((q,), (p,)))  # connected
            return lift(poly)

        r, s = (1, 0), (2, 2)
        traces = {r: trace(*r), s: trace(*s), (1, 2): trace(1, 2)}  # (1, 2) = s - r
        diff, rng, steps = (1, 2), random.Random(0), 0
        while max(r[0], s[0]) < 1024:
            total = (r[0] + s[0], r[1] + s[1])
            traces[total] = trace(*total)
            assert max(traces[total].terms) == (total[0],)  # degree q
            product = oracle.mul(traces[r], traces[s])
            t, d = traces[total], traces[diff]
            assert any(a + b == product for a in (t, -t) for b in (d, -d)), total
            if rng.random() < 0.5:
                r, diff = total, r
            else:
                s, diff = total, s
            steps += 1
        assert (total, steps) == ((1117, 510), 15)


class TestInverseWord:
    def test_inverse_is_matrix_inverse(self):
        comps = extract_components(stock("four_holed_sphere"), DTCoords((2,), (2,)))
        word = comps[0].word
        m = lift(evaluate_word(word))
        assert inverse_word_holonomy(word) == adjugate(m)
        assert adjugate(m).trace() == m.trace()  # det 1

    def test_single_crossing_self_inverse_up_to_sign(self):
        # the slot-free crossing core A satisfies A^-1 = -A
        m = crossing_matrix(1, 0, 2)
        assert adjugate(m) == neg(m)

    def test_reversed_word_same_canonical_trace(self):
        comps = extract_components(stock("four_holed_sphere"), DTCoords((2,), (0,)))
        word = comps[0].word
        fwd = canonical_sign(lift(evaluate_word(word)).trace())
        rev = canonical_sign(inverse_word_holonomy(word).trace())
        assert fwd == rev


def test_cyclic_invariance():
    comps = extract_components(stock("four_holed_sphere"), DTCoords((2,), (4,)))
    word = comps[0].word
    base = canonical_sign(lift(evaluate_word(word)).trace())
    toks = word.tokens
    for r in range(2, len(toks), 2):  # rotate in crossing/traversal pairs
        rotated = Word(word.arity, toks[r:] + toks[:r])
        assert canonical_sign(lift(evaluate_word(rotated)).trace()) == base


def test_degree_bounds():
    s = stock("genus_two")
    for q, p in [((1, 1, 0), (1, 1, 0)), ((2, 2, 2), (0, 0, 0)), ((1, 1, 2), (1, 1, 0))]:
        coords = DTCoords(q, p)
        for comp, trace in trace_of_curve(s, coords):
            assert total_degree(trace) <= sum(comp.q)
            for i in range(3):
                assert degree_in(trace, i) <= comp.q[i]


class TestAnnulusParameter:
    def test_round_trip_base_value(self):
        tau = 1 + 4j
        t_k = annulus_from_gluing_parameter(tau)
        back = gluing_parameter_from_annulus(t_k)
        assert abs(back - tau) < 1e-12

    def test_log_relation_mod_period(self):
        t_k = 0.3 + 0.4j
        tau = gluing_parameter_from_annulus(t_k)
        assert abs(cmath.exp(1j * cmath.pi * tau) - t_k) < 1e-12

    def test_unit_annulus_parameter(self):
        assert gluing_parameter_from_annulus(1) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gluing_parameter_from_annulus(0)
