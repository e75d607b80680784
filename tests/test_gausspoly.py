"""The packed polynomial, and the oracle's term-dict polynomial and matrix
arithmetic that the tests compare it against."""

import array
import itertools
import random
import types

import pytest
from hypothesis import given, strategies as st

from oracle import (
    Mat,
    Poly,
    adjugate,
    canonical_sign,
    det,
    grlex_key,
    identity,
    lift,
    matmul,
    mul,
    pmul,
    shift_var,
)
from plumbtrace import gausspoly
from plumbtrace.gausspoly import GaussPoly, coefficient_text
from tests_support import BOXES, pack, packed_form, packed_poly, random_terms, total_degree

P = Poly
T1 = Poly.var(1, 0)
ONE = Poly.const(1, 1)
I = Poly.const(1, 0, 1)


class TestAdd:
    def test_additive_inverse(self):
        assert (T1 + (-T1)).is_zero()

    def test_like_terms_merge(self):
        t1t2 = P(2, {(1, 1): 2})
        assert t1t2 + P(2, {(1, 1): 3}) == P(2, {(1, 1): 5})

    def test_gaussian_components_combine(self):
        # (i*t1 + 1) + (t1 - 1) = (1+i)*t1
        left = P(1, {(1,): (0, 1), (0,): 1})
        right = P(1, {(1,): 1, (0,): -1})
        assert left + right == P(1, {(1,): (1, 1)})

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            T1 + Poly.var(2, 0)


class TestMul:
    def test_difference_of_squares(self):
        assert mul(T1 + ONE, T1 - ONE) == P(1, {(2,): 1, (0,): -1})

    def test_imaginary_unit_squares_to_minus_one(self):
        assert mul(I, I) == Poly.const(1, -1)

    def test_scaled_square(self):
        four = Poly.const(1, 4)
        assert mul(mul(four, T1 - ONE), T1 - ONE) == P(1, {(2,): 4, (1,): -8, (0,): 4})

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            mul(T1, Poly.var(3, 1))


class TestCoefficient:
    poly = packed_poly(1, {(2,): -4, (1,): 8, (0,): -6})

    def test_reads_stored(self):
        assert self.poly.coefficient((2,)) == -4

    def test_absent_monomial_is_zero(self):
        assert self.poly.coefficient((3,)) == 0

    def test_single_term(self):
        # the slot int; the polynomial's imag flag puts it on the i axis
        poly = packed_poly(2, {(1, 1): 1}, imag=True)
        assert poly.coefficient((1, 1)) == 1 and poly.imag


class TestPackedCoefficient:
    @pytest.mark.parametrize("width", [32, 64, 72])
    @pytest.mark.parametrize("counts", BOXES)
    def test_one_slot_is_the_dict_coefficient(self, monkeypatch, counts, width):
        # every monomial of the box, the corner included, one step past it
        # on each axis and one step below it, read without a term dict
        def refuse(*args):
            raise AssertionError("term dict built")

        monkeypatch.setattr(GaussPoly, "terms", property(refuse))
        rng = random.Random(f"coefficient:{list(counts)}:{width}")
        probes = list(itertools.product(*(range(-1, n + 2) for n in counts)))
        for corner in (True, False):
            terms = random_terms(rng, counts, width, corner)
            packed = pack(terms, counts, width)
            for imag in (False, True):
                poly = packed_form(packed, counts, width, imag)
                lifted = P(len(counts), {m: (0, c) if imag else (c, 0) for m, c in terms.items()})
                for mono in probes:
                    got = poly.coefficient(mono)
                    assert lifted.coefficient(mono) == ((0, got) if imag else (got, 0)), mono
                assert poly.coefficient(tuple(counts)) == terms.get(tuple(counts), 0)

    def test_wrong_length_is_refused(self):
        poly = packed_form((2 << 32) - 3, (0, 1), 32)  # 2*t2 - 3
        for mono in ((1,), (0, 1, 0)):
            with pytest.raises(ValueError, match="arity"):
                poly.coefficient(mono)

    def test_degree_bounds(self):
        # the box ``counts``, which a zero outer slot may exceed, bounds the
        # degrees; it is not the exact maxima
        poly = packed_form((2 << 32) - 3, (0, 2, 1), 32)  # 2*t3 - 3
        assert poly.counts == (0, 2, 1)
        assert set(poly.terms) == {(0, 0, 1), (0, 0, 0)}
        assert GaussPoly((0, 0), (1, 0), False).counts == (1, 0)


class TestCanonicalSign:
    def test_flips_negative_leading(self):
        poly = P(1, {(2,): -4, (1,): 8, (0,): -6})
        assert canonical_sign(poly) == P(1, {(2,): 4, (1,): -8, (0,): 6})

    def test_positive_constant_fixed(self):
        two = Poly.const(1, 2)
        assert canonical_sign(two) == two

    def test_negative_imaginary_flips(self):
        assert canonical_sign(P(1, {(1,): (0, -1)})) == P(1, {(1,): (0, 1)})

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonical_sign(Poly(1))


def test_kernel_exact_at_big_coefficients():
    big = 10**40
    p = {(1, 0, 0): (big, -big)}
    q = {(0, 1, 0): (big, big)}
    assert pmul(p, q) == {(1, 1, 0): (2 * big * big, 0)}


# read as 32- or 64-bit words, spread into 64-bit words, or slot by slot
SLOT_WIDTHS = [32, 40, 48, 56, 64, 72]


def assert_packed_renders_alike(poly):
    """The slot renderer prints `poly` as the oracle does, at every kind of
    slot width, whenever its coefficients are all real or all imaginary, as
    a packed one's are."""
    for imag in (False, True):
        if all(c[not imag] == 0 for c in poly.terms.values()):
            ints = {m: c[imag] for m, c in poly.terms.items()}
            for width in SLOT_WIDTHS:
                packed = packed_poly(poly.arity, ints, width=width, imag=imag)
                assert str(packed) == str(poly)


def limit_terms(counts, width, corner):
    """Every slot of the box at a slot limit, +-(2^(width - 1) - 1), +-1 or
    0, in turn; the corner prod_k t_k^counts[k] is zero unless `corner`."""
    top = (1 << (width - 1)) - 1
    limits = itertools.cycle([top, -1, 0, -top, 1])
    box = itertools.product(*(range(c + 1) for c in counts))
    terms = {m: c for m, c in zip(box, limits) if c}
    terms.pop(tuple(counts), None)
    if corner:
        terms[tuple(counts)] = -top
    return terms


@pytest.mark.parametrize("width", SLOT_WIDTHS)
@pytest.mark.parametrize("counts", BOXES)
def test_slot_reads_match_the_oracle(counts, width):
    # the signed slot list behind str, _lead_sign and terms, against the
    # oracle's term dict, at the slot limits and at random, with a zero and
    # a nonzero corner, real and imaginary
    rng = random.Random(f"slot reads:{list(counts)}:{width}")
    for corner in (True, False):
        for terms in (limit_terms(counts, width, corner), random_terms(rng, counts, width, corner)):
            packed = pack(terms, counts, width)
            for imag in (False, True):
                poly = Poly(len(counts), {m: (0, c) if imag else (c, 0) for m, c in terms.items()})
                read = packed_form(packed, counts, width, imag)
                box = itertools.product(*(range(c + 1) for c in counts))
                assert read.slots == tuple(poly.coefficient(m)[imag] for m in box)
                assert read.terms == poly.terms
                assert str(read) == str(poly)
                if terms:
                    sign = gausspoly._lead_sign(packed, counts, width)
                    assert canonical_sign(poly) == (poly if sign > 0 else -poly)


@pytest.mark.parametrize("width", SLOT_WIDTHS)
def test_slot_read_on_a_big_endian_machine(monkeypatch, width):
    # the packed int's bytes are little-endian on every machine; a
    # big-endian one reads the words through an array, emulated here by an
    # array that reads each word with its bytes swapped, as that one does
    def big_endian_array(code, raw):
        words = array.array(code, raw)
        words.byteswap()
        return words

    counts = (4, 3)
    size = gausspoly._box(counts)[1]
    rng = random.Random(f"big endian:{width}")
    packed = pack(random_terms(rng, counts, width, True), counts, width)
    little = gausspoly._slots(packed, size, width)
    monkeypatch.setattr(gausspoly, "sys", types.SimpleNamespace(byteorder="big"))
    monkeypatch.setattr(gausspoly, "array", big_endian_array)
    assert gausspoly._slots(packed, size, width) == little


def test_grlex_rendering_order():
    poly = P(2, {(0, 0): -6, (2, 0): -4, (1, 0): 8, (0, 1): (0, 1), (1, 1): (1, 1)})
    # degree 2 block first (t1*t2 beats t1^2 since t2 is more significant)
    assert str(poly) == "(1+i)*t1*t2 - 4*t1^2 + i*t2 + 8*t1 - 6"


@pytest.mark.parametrize(
    "terms,expected",
    [
        ({}, "0"),
        ({(0,): 2}, "2"),
        ({(1,): (0, 1), (0,): (0, -1)}, "i*t1 - i"),
        ({(2,): 4, (1,): -8, (0,): 6}, "4*t1^2 - 8*t1 + 6"),
        ({(3,): -1}, "-t1^3"),
        ({(1,): (3, -2)}, "(3-2i)*t1"),
        ({(0,): (-3, 1)}, "(-3+i)"),
    ],
)
def test_rendering_grammar(terms, expected):
    arity = len(next(iter(terms), (0,)))
    poly = Poly(arity, terms)
    assert str(poly) == expected
    assert_packed_renders_alike(poly)


@pytest.mark.parametrize(
    "terms,expected",
    [
        (
            {
                (0, 0, 0, 12): 1,
                (10, 0, 0, 1): (0, -1),
                (1, 2, 0, 0): (2, -3),
                (0, 0, 0, 0): (0, 5),
            },
            "t4^12 - i*t1^10*t4 + (2-3i)*t1*t2^2 + 5i",
        ),
        ({(0, 1, 0, 0): -1, (1, 0, 0, 0): -7, (0, 0, 0, 0): -1}, "-t2 - 7*t1 - 1"),
        (
            {(11, 0, 0, 0): (0, 1), (0, 0, 10, 1): (0, -10), (0, 0, 0, 0): 1},
            "-10i*t3^10*t4 + i*t1^11 + 1",
        ),
        ({(2, 0, 0, 0): (-1, -1), (0, 0, 1, 0): (0, 1)}, "(-1-i)*t1^2 + i*t3"),
        ({(0, 0, 0, 0): (0, -1)}, "-i"),
        ({(0, 0, 0, 1): (0, -1), (0, 0, 1, 0): (0, -1)}, "-i*t4 - i*t3"),
    ],
)
def test_rendering_arity_four(terms, expected):
    poly = Poly(4, terms)
    assert str(poly) == expected
    assert_packed_renders_alike(poly)


# one variable, counts (1,): the constant sits in slot 0 and t1 in slot 1,
# so packed = c1 * 2^32 + c0
@pytest.mark.parametrize(
    "packed,imag,expected",
    [
        (1, True, "i"),
        (-1, True, "-i"),
        (1, False, "1"),
        (-1, False, "-1"),
        ((1 << 32) + 1, True, "i*t1 + i"),
        ((1 << 32) - 1, True, "i*t1 - i"),
        (-(1 << 32) - 1, True, "-i*t1 - i"),
        (-(1 << 32) + 1, False, "-t1 + 1"),
        ((3 << 32) - 7, True, "3i*t1 - 7i"),
        (-5 << 32, False, "-5*t1"),
        (0, True, "0"),
    ],
)
def test_packed_rendering(packed, imag, expected):
    poly = packed_form(packed, (1,), 32, imag)
    assert str(poly) == expected
    assert str(lift(poly)) == expected  # the oracle's renderer agrees
    assert (not poly.terms) == (expected == "0")


def test_packed_terms_compare_with_dict_built():
    poly = packed_form((2 << 32) - 3, (0, 1), 32)  # 2*t2 - 3
    assert poly.terms == {(0, 1): (2, 0), (0, 0): (-3, 0)}
    assert lift(poly) == P(2, {(0, 1): 2, (0, 0): -3})
    assert poly.coefficient((0, 1)) == 2
    assert canonical_sign(-lift(poly)) == lift(poly)
    # equality compares the records; the same terms in another box, at
    # another slot width, are the same polynomial only through lift()
    assert poly == packed_form((2 << 32) - 3, (0, 1), 32)
    wider = packed_form((2 << 64) - 3, (1, 1), 64)
    assert lift(poly) == lift(wider) and poly != wider
    assert poly != packed_form((2 << 32) - 3, (0, 1), 32, imag=True)
    assert poly != packed_form((2 << 32) - 3, (0, 1, 0), 32)
    assert GaussPoly((0,), (0,), False) != GaussPoly((0,), (0, 0), False)


def _reference_str(poly):
    """Oracle: the grammar rendered term by term, monomial by monomial."""
    chunks = []
    for mono in sorted(poly.terms, key=grlex_key, reverse=True):
        r, i = poly.terms[mono]
        if r and i:
            im = "i" if i == 1 else "-i" if i == -1 else f"{i}i"
            neg, body = False, f"({r}{im})" if im[0] == "-" else f"({r}+{im})"
        elif i:
            neg, body = i < 0, "i" if abs(i) == 1 else f"{abs(i)}i"
        else:
            neg, body = r < 0, str(abs(r))
        ms = "*".join(
            f"t{k + 1}" if e == 1 else f"t{k + 1}^{e}" for k, e in enumerate(mono) if e
        )
        if ms:
            body = ms if body == "1" else f"{body}*{ms}"
        sep = ("-" if neg else "") if not chunks else (" - " if neg else " + ")
        chunks.append(sep + body)
    return "".join(chunks) or "0"


def test_shift_var_binomial():
    # (t1 + 1)^2 via shifting t1^2 by +1
    assert shift_var(P(1, {(2,): 1}), 0, 1) == P(1, {(2,): 1, (1,): 2, (0,): 1})
    p = P(2, {(2, 1): (1, 1), (0, 1): 3})
    assert shift_var(shift_var(p, 0, -2), 0, 2) == p


# -- hypothesis: ring axioms on random small polynomials ---------------------

coeffs = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, coeffs, max_size=5).map(lambda d: Poly(2, d))


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)


@given(polys, polys)
def test_product_total_degree(a, b):
    if not a.is_zero() and not b.is_zero():
        assert total_degree(mul(a, b)) == total_degree(a) + total_degree(b)


wide_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 12)] * 4),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
    max_size=8,
).map(lambda d: Poly(4, d))


@given(wide_polys)
def test_rendering_matches_reference(p):
    assert str(p) == _reference_str(p)
    assert_packed_renders_alike(p)


@given(polys)
def test_canonical_sign_idempotent(p):
    if p.is_zero():
        return
    c = canonical_sign(p)
    assert c in (p, -p)
    assert canonical_sign(c) == c


def _random_unimodular(rng, arity=2, steps=3):
    """Random det-1 matrix: product of elementary shears with poly entries."""
    m = identity(arity)
    for _ in range(steps):
        entry = Poly(
            arity,
            {
                (rng.randint(0, 2), rng.randint(0, 2)): (
                    rng.randint(-2, 2),
                    rng.randint(-2, 2),
                )
            },
        )
        one = Poly.const(arity, 1)
        zero = Poly(arity)
        if rng.random() < 0.5:
            m = matmul(m, Mat(one, entry, zero, one))
        else:
            m = matmul(m, Mat(one, zero, entry, one))
    return m


def test_det_multiplicative_and_trace_identity():
    import random

    rng = random.Random(42)
    one = Poly.const(2, 1)
    for _ in range(60):
        a = _random_unimodular(rng)
        b = _random_unimodular(rng)
        assert det(matmul(a, b)) == mul(det(a), det(b)) == one
        # Tr(AB) = Tr(A)Tr(B) - Tr(AB^-1); B^-1 is the adjugate since det B = 1
        lhs = matmul(a, b).trace()
        rhs = mul(a.trace(), b.trace()) - matmul(a, adjugate(b)).trace()
        assert lhs == rhs


def test_matmul_identity_and_arity_guard():
    m = _random_unimodular(__import__("random").Random(7))
    assert matmul(m, identity(2)) == m
    assert identity(2).trace() == Poly.const(2, 2)
    with pytest.raises(ValueError):
        matmul(m, identity(3))


@pytest.mark.parametrize(
    "c,imag,expected",
    [
        (0, False, "0"),
        (0, True, "0"),
        (1, False, "1"),
        (1, True, "i"),
        (-1, False, "-1"),
        (-1, True, "-i"),
        (2, False, "2"),
        (2, True, "2i"),
        (-2, False, "-2"),
        (-2, True, "-2i"),
        (1180591620717411303423, False, "1180591620717411303423"),  # 2^70 - 1
        (1180591620717411303423, True, "1180591620717411303423i"),
        (-1180591620717411303423, False, "-1180591620717411303423"),
        (-1180591620717411303423, True, "-1180591620717411303423i"),
    ],
)
def test_coefficient_text(c, imag, expected):
    assert coefficient_text(c, imag) == expected
