"""Reference holonomy: a word multiplied out generator by generator.

This is the independent path that ``plumbtrace.holonomy``'s packed
evaluator is tested against.  It shares no code with that evaluator: it
builds every crossing and every same-slot return from the generator
matrices below and multiplies sparse term dicts pairwise, where
``evaluate_word``, the one evaluation that ``word_trace`` also reads,
folds every constant into integer joints and runs packed big-int rows.
Only the word tokens come from the package.  Its values are its own:
``Poly``, a polynomial held as the term dict of its nonzero terms, with
its own arithmetic, sign rule (``canonical_sign``) and renderer, and
``Mat``, a 2x2 matrix of them.  ``lift`` reads a library polynomial or
matrix into this form through its ``terms``, which is how the tests
compare the two.  For words too large for term dicts, ``point_product``
and ``point_trace`` multiply the same factors out as numbers at one point
modulo a prime (a Schwartz-Zippel check), and ``point_value`` evaluates a
polynomial's terms there.

All matrices act on the upper half plane chart of the triply punctured
sphere whose cusps sit at 0, 1, inf.  The constants:

  FLIP          J  = (-i 0; 0 i)        reverses direction in a strip
  translation   T  = (1 t; 0 1)         the gluing parameter of one curve
  SLOT_TO_TOP   W0 = (1 -1; 1 0), W1 = (0 -1; 1 -1), Winf = Id
                the rotation of the white triangle carrying a cusp to inf
  CUSP_PATH     (1 2; 0 1), Id, (1 0; 2 1)
                paths from the white to the black basepoint across one seam
  BOUNDARY_LOOP loops around the three cusps, built from cusp paths

A crossing of pants curve i, leaving through slot e and entering through
slot e', wrapping the annulus t times, contributes

    W_e^-1 . eta_inf^-t . J^-1 . T_i^-1 . W_e'
           = W_e^-1 . (i A_X) . W_e',     A_X = (1 X; 0 -1), X = -t_i - 2t

and a same-slot return at slot e contributes W_e^-1 . eta_0^s . W_e, the
loop around the chart cusp at 0 with sign s.  Traversals between distinct
slots contribute nothing of their own: the two flanking rotations already
encode them, reducing modulo sign to W0 or W1 by the relations
W0.W1 = -Id, W0^2 = W1.  Every generator has determinant 1, so the
adjugate is the inverse.
"""

import math
from operator import add, itemgetter
from typing import NamedTuple

from plumbtrace.standardpos import Crossing, SccLoop

# integer rows ((a, b), (c, d)); an entry (re, im) is a Gaussian integer
FLIP = (((0, -1), 0), (0, (0, 1)))
SLOT_TO_TOP = (((1, -1), (1, 0)), ((0, -1), (1, -1)), ((1, 0), (0, 1)))
CUSP_PATH = (((1, 2), (0, 1)), ((1, 0), (0, 1)), ((1, 0), (2, 1)))
# around cusp 0, 1, inf: CUSP_PATH[2] . CUSP_PATH[1]^-1, [0] . [2]^-1, [1] . [0]^-1
BOUNDARY_LOOP = (((1, 0), (2, 1)), ((-3, 2), (-2, 1)), ((1, -2), (0, 1)))


# -- term-dict and matrix arithmetic -----------------------------------------

def _mul_into(out, p, q):
    """Add the product of the term dicts p and q into out; return out."""
    for m1, (r1, i1) in p.items():
        for m2, (r2, i2) in q.items():
            m = tuple(map(add, m1, m2))
            r, i = out.get(m, (0, 0))
            r += r1 * r2 - i1 * i2
            i += r1 * i2 + i1 * r2
            if r or i:
                out[m] = (r, i)
            else:
                out.pop(m, None)
    return out


def pmul(p, q):
    """Product of two term dicts (exponents add slotwise)."""
    return _mul_into({}, p, q)


def mat_mul(A, B):
    """Product of two 2x2 matrices given as row-major 4-tuples of term dicts."""
    a, b, c, d = A
    e, f, g, h = B
    return (
        _mul_into(pmul(a, e), b, g),
        _mul_into(pmul(a, f), b, h),
        _mul_into(pmul(c, e), d, g),
        _mul_into(pmul(c, f), d, h),
    )


def grlex_key(mono: tuple[int, ...]) -> tuple:
    """Sort key realizing the graded-lex order with t1 < t2 < ...."""
    return (sum(mono), tuple(reversed(mono)))


class Poly:
    """A polynomial in Z[i][t1, ..., tn], held as the term dict of its
    nonzero terms, {exponent tuple: (re, im)}.

    Built from any {exponent tuple: int or (re, im)} dict, zeros dropped.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=()):
        self.arity = arity
        self.terms = {}
        for mono, c in dict(terms).items():
            r, i = (c, 0) if isinstance(c, int) else c
            if len(mono) != arity:
                raise ValueError("monomial length does not match arity")
            if r or i:
                self.terms[tuple(mono)] = (r, i)

    @classmethod
    def const(cls, arity: int, re: int, im: int = 0) -> "Poly":
        return cls(arity, {(0,) * arity: (re, im)})

    @classmethod
    def var(cls, arity: int, index: int) -> "Poly":
        """The variable t_{index+1} (index is 0-based)."""
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        return cls(arity, {tuple(int(k == index) for k in range(arity)): 1})

    def __add__(self, other: "Poly") -> "Poly":
        _check(self, other)
        out = dict(self.terms)
        for m, (r, i) in other.terms.items():
            pr, pi = out.get(m, (0, 0))
            out[m] = (pr + r, pi + i)
        return Poly(self.arity, out)

    def __neg__(self) -> "Poly":
        return Poly(self.arity, {m: (-r, -i) for m, (r, i) in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def scale(self, re: int, im: int = 0) -> "Poly":
        """The product with the one Gaussian integer re + im*i."""
        return Poly(
            self.arity,
            {m: (r * re - i * im, r * im + i * re) for m, (r, i) in self.terms.items()},
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and (self.arity, self.terms) == (other.arity, other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono) -> tuple[int, int]:
        return self.terms.get(tuple(mono), (0, 0))

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def __str__(self) -> str:
        """The text grammar of ``plumbtrace.gausspoly``, term by term in
        descending graded-lex order, mixed coefficients included."""
        terms = self.terms
        if not terms:
            return "0"
        # descending grlex_key order from two stable sorts: reversed
        # exponent tuple first, then total degree
        order = sorted(terms, key=itemgetter(slice(None, None, -1)), reverse=True)
        order.sort(key=sum, reverse=True)
        chunks: list[str] = []
        for mono in order:
            r, i = terms[mono]
            if not i:
                neg, body = r < 0, str(abs(r))
            elif not r:
                neg, body = i < 0, "i" if abs(i) == 1 else f"{abs(i)}i"
            else:  # mixed: parenthesised, the sign kept inside
                im = "+i" if i == 1 else ("-i" if i == -1 else f"{i:+d}i")
                neg, body = False, f"({r}{im})"
            ms = "*".join(
                f"t{k}" if e == 1 else f"t{k}^{e}" for k, e in enumerate(mono, 1) if e
            )
            if ms:
                body = ms if body == "1" else f"{body}*{ms}"
            if chunks:
                chunks.append(f" - {body}" if neg else f" + {body}")
            else:
                chunks.append(f"-{body}" if neg else body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self})"


def canonical_sign(p: Poly) -> Poly:
    """p or -p, whichever makes the coefficient of the graded-lex greatest
    monomial have re > 0, or re == 0 and im > 0."""
    if p.is_zero():
        raise ValueError("canonical_sign of the zero polynomial")
    r, i = p.terms[p.leading_monomial()]
    return -p if r < 0 or (r == 0 and i < 0) else p


class Mat(NamedTuple):
    """2x2 matrix of ``Poly``, row-major entries (a b; c d)."""

    a: Poly
    b: Poly
    c: Poly
    d: Poly

    @property
    def arity(self) -> int:
        return self.a.arity

    def trace(self) -> Poly:
        return self.a + self.d


def lift(value):
    """The oracle form of a library ``GaussPoly`` or ``Mat2``, read through
    the ``terms`` of each polynomial."""
    if hasattr(value, "entries"):
        return Mat(*map(lift, value.entries()))
    return Poly(len(value.counts), value.terms)


def _check(*values):
    if len({v.arity for v in values}) > 1:
        raise ValueError(f"arity mismatch: {[v.arity for v in values]}")


def mul(x: Poly, y: Poly) -> Poly:
    _check(x, y)
    return Poly(x.arity, pmul(x.terms, y.terms))


def matmul(*factors: Mat) -> Mat:
    """The left-to-right product of one or more matrices."""
    _check(*factors)
    out = factors[0]
    for m in factors[1:]:
        entries = mat_mul([e.terms for e in out], [e.terms for e in m])
        out = Mat(*(Poly(out.arity, t) for t in entries))
    return out


def neg(m: Mat) -> Mat:
    return Mat(*(-e for e in m))


def det(m: Mat) -> Poly:
    return mul(m.a, m.d) - mul(m.b, m.c)


def adjugate(m: Mat) -> Mat:
    """(d -b; -c a); equals the inverse when det == 1."""
    return Mat(m.d, -m.b, -m.c, m.a)


def shift_var(p: Poly, index: int, c: int) -> Poly:
    """Exact substitution t_{index+1} -> t_{index+1} + c (binomial expansion)."""
    out: dict = {}
    for mono, (r, i) in p.terms.items():
        n = mono[index]
        for j in range(n + 1):
            coeff = math.comb(n, j) * c ** (n - j)
            m = mono[:index] + (j,) + mono[index + 1 :]
            ar, ai = out.get(m, (0, 0))
            out[m] = (ar + r * coeff, ai + i * coeff)
    return Poly(p.arity, out)


def predict_top_terms(arity: int, q, p, h: int) -> Poly:
    """The two top graded orders the paper predicts for the trace of a
    connected curve with intersection numbers q, twists p and h
    same-boundary arcs, up to the overall sign:

        i^q_tot * 2^h * (t^q + sum_i (p_i - q_i) * t^(q - e_i)).
    """
    q_tot = sum(q)
    if q_tot < 1:
        raise ValueError("top-term prediction needs at least one crossing")
    r, i = ((1, 0), (0, 1), (-1, 0), (0, -1))[q_tot % 4]  # i^q_tot
    lead = (r * 2**h, i * 2**h)
    terms = {tuple(q): lead}
    for k in range(arity):
        if q[k]:
            mono = tuple(e - (j == k) for j, e in enumerate(q))
            terms[mono] = (lead[0] * (p[k] - q[k]), lead[1] * (p[k] - q[k]))
    return Poly(arity, terms)


# -- generator matrices and word factors -------------------------------------

def of_ints(arity: int, rows) -> Mat:
    """Constant matrix from ((a, b), (c, d)); entries are ints or (re, im)."""
    (a, b), (c, d) = rows
    return Mat(*(Poly(arity, {(0,) * arity: v}) for v in (a, b, c, d)))


def identity(arity: int) -> Mat:
    return of_ints(arity, ((1, 0), (0, 1)))


def translation(arity: int, curve: int) -> Mat:
    """(1 t_{curve+1}; 0 1)."""
    one = Poly.const(arity, 1)
    return Mat(one, Poly.var(arity, curve), Poly(arity), one)


def crossing_matrix(arity: int, curve: int, twist: int) -> Mat:
    """The slot-free core of one crossing: i * (1 X; 0 -1), X = -t_i - 2*twist.

    Equals the generator product BOUNDARY_LOOP[inf]^-twist . FLIP^-1 .
    translation^-1, which crossing_factor multiplies out.
    """
    x = Poly.var(arity, curve).scale(-1) + Poly.const(arity, -2 * twist)
    return Mat(Poly.const(arity, 0, 1), x.scale(0, 1), Poly(arity), Poly.const(arity, 0, -1))


def crossing_factor(arity: int, tok: Crossing) -> Mat:
    return matmul(
        adjugate(of_ints(arity, SLOT_TO_TOP[tok.out_slot])),
        of_ints(arity, ((1, 2 * tok.twist), (0, 1))),  # BOUNDARY_LOOP[inf]^-twist
        adjugate(of_ints(arity, FLIP)),
        adjugate(translation(arity, tok.curve)),
        of_ints(arity, SLOT_TO_TOP[tok.in_slot]),
    )


def loop_factor(arity: int, tok: SccLoop) -> Mat:
    w = of_ints(arity, SLOT_TO_TOP[tok.slot])
    loop = of_ints(arity, ((1, 0), (2 * tok.sign, 1)))  # BOUNDARY_LOOP[0]^sign
    return matmul(adjugate(w), loop, w)


def generator_product(word) -> Mat:
    """Left-to-right product of the generator-built factors of a word."""
    out = identity(word.arity)
    for tok in word.tokens:
        if isinstance(tok, Crossing):
            out = matmul(out, crossing_factor(word.arity, tok))
        elif isinstance(tok, SccLoop):
            out = matmul(out, loop_factor(word.arity, tok))
    return out


def inverse_word_holonomy(word) -> Mat:
    """Holonomy of the reversed word with every factor inverted, the matrix
    inverse of generator_product(word) built the other way round."""
    out = identity(word.arity)
    for tok in reversed(word.tokens):
        if isinstance(tok, Crossing):
            out = matmul(out, adjugate(crossing_factor(word.arity, tok)))
        elif isinstance(tok, SccLoop):
            out = matmul(out, adjugate(loop_factor(word.arity, tok)))
    return out


# -- point evaluation --------------------------------------------------------
# A word's holonomy at one point t of (Z[i]/P61)^arity, multiplied out as
# numeric 2x2 matrices from SLOT_TO_TOP, the crossing core and the loop
# matrices alone.  P61 = 2^61 - 1 is a prime = 3 mod 4, so Z[i]/P61 is a
# field, and two distinct polynomials of total degree <= d agree at a
# uniformly random point with probability at most d / P61^2.

P61 = (1 << 61) - 1


def _gmul(x, y):
    (a, b), (c, d) = x, y
    return ((a * c - b * d) % P61, (a * d + b * c) % P61)


def _gadd(x, y):
    return ((x[0] + y[0]) % P61, (x[1] + y[1]) % P61)


def _point_matmul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return (
        (_gadd(_gmul(a, e), _gmul(b, g)), _gadd(_gmul(a, f), _gmul(b, h))),
        (_gadd(_gmul(c, e), _gmul(d, g)), _gadd(_gmul(c, f), _gmul(d, h))),
    )


def _point_of_ints(rows):
    return tuple(tuple((v % P61, 0) for v in row) for row in rows)


def _int_adjugate(rows):
    (a, b), (c, d) = rows
    return ((d, -b), (-c, a))


def _int_matmul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


# the constant factors as point matrices, converted once: the identity, and
# per slot s W_s, W_s^-1, and the same-slot returns
# W_s^-1 . BOUNDARY_LOOP[0]^(+-1) . W_s indexed by sign > 0
_POINT_ONE = _point_of_ints(((1, 0), (0, 1)))
_POINT_TO_TOP = tuple(_point_of_ints(w) for w in SLOT_TO_TOP)
_POINT_FROM_TOP = tuple(_point_of_ints(_int_adjugate(w)) for w in SLOT_TO_TOP)
_POINT_LOOP = tuple(
    tuple(
        _point_of_ints(_int_matmul(_int_matmul(_int_adjugate(w), loop), w))
        for loop in (_int_adjugate(BOUNDARY_LOOP[0]), BOUNDARY_LOOP[0])
    )
    for w in SLOT_TO_TOP
)


def point_product(word, point):
    """The holonomy of `word` at t_{k+1} = point[k], each point[k] an
    (re, im) pair mod P61, as rows ((a, b), (c, d)) of such pairs.

    A crossing contributes W_out^-1 . i(1 X; 0 -1) . W_in with
    X = -t - 2*twist, and a same-slot return at slot s with sign +-1
    contributes W_s^-1 . BOUNDARY_LOOP[0]^(+-1) . W_s.
    """
    i, minus_i, zero = (0, 1), (0, P61 - 1), (0, 0)
    out = _POINT_ONE
    for tok in word.tokens:
        if isinstance(tok, Crossing):
            t = point[tok.curve]
            x = ((-t[0] - 2 * tok.twist) % P61, -t[1] % P61)
            core = ((i, _gmul(i, x)), (zero, minus_i))
            factor = _point_matmul(
                _point_matmul(_POINT_FROM_TOP[tok.out_slot], core), _POINT_TO_TOP[tok.in_slot]
            )
        elif isinstance(tok, SccLoop):
            factor = _POINT_LOOP[tok.slot][tok.sign > 0]
        else:
            continue
        out = _point_matmul(out, factor)
    return out


def point_trace(word, point):
    """The trace of the word's holonomy at `point` (see point_product)."""
    (a, _), (_, d) = point_product(word, point)
    return _gadd(a, d)


def point_value(poly, point):
    """poly at t_{k+1} = point[k], as an (re, im) pair mod P61."""
    top = [max((m[k] for m in poly.terms), default=0) for k in range(len(poly.counts))]
    powers = []
    for t, n in zip(point, top):
        row = [(1, 0)]
        for _ in range(n):
            row.append(_gmul(row[-1], t))
        powers.append(row)
    re = im = 0
    for mono, c in poly.terms.items():
        for row, e in zip(powers, mono):
            if e:
                c = _gmul(c, row[e])
        re += c[0]
        im += c[1]
    return (re % P61, im % P61)
