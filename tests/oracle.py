"""Reference holonomy: a word multiplied out generator by generator.

This is the independent path that ``plumbtrace.holonomy``'s packed
evaluator is tested against.  It shares no code with that evaluator: it
builds every crossing and every same-slot return from the generator
matrices below and multiplies sparse term dicts pairwise, where
``evaluate_word`` and ``word_trace`` fold every constant into integer
joints and run packed big-int rows.  Only the value types ``GaussPoly`` and
``Mat2`` and the word tokens come from the package.  For words too large
for term dicts, ``point_product`` and ``point_trace`` multiply the same
factors out as numbers at one point modulo a prime (a Schwartz-Zippel
check), and ``point_value`` evaluates a polynomial's terms there.

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
from operator import add

from plumbtrace.gausspoly import GaussPoly, Mat2
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


def _check(*values):
    if len({v.arity for v in values}) > 1:
        raise ValueError(f"arity mismatch: {[v.arity for v in values]}")


def mul(x: GaussPoly, y: GaussPoly) -> GaussPoly:
    _check(x, y)
    return GaussPoly(x.arity, pmul(x.terms, y.terms))


def matmul(*factors: Mat2) -> Mat2:
    """The left-to-right product of one or more matrices."""
    _check(*factors)
    out = factors[0]
    for m in factors[1:]:
        entries = mat_mul([e.terms for e in out.entries()], [e.terms for e in m.entries()])
        out = Mat2(*(GaussPoly(out.arity, t) for t in entries))
    return out


def neg(m: Mat2) -> Mat2:
    return Mat2(*(-e for e in m.entries()))


def det(m: Mat2) -> GaussPoly:
    return mul(m.a, m.d) - mul(m.b, m.c)


def adjugate(m: Mat2) -> Mat2:
    """(d -b; -c a); equals the inverse when det == 1."""
    return Mat2(m.d, -m.b, -m.c, m.a)


def shift_var(p: GaussPoly, index: int, c: int) -> GaussPoly:
    """Exact substitution t_{index+1} -> t_{index+1} + c (binomial expansion)."""
    out: dict = {}
    for mono, (r, i) in p.terms.items():
        n = mono[index]
        for j in range(n + 1):
            coeff = math.comb(n, j) * c ** (n - j)
            m = mono[:index] + (j,) + mono[index + 1 :]
            ar, ai = out.get(m, (0, 0))
            ar += r * coeff
            ai += i * coeff
            if ar or ai:
                out[m] = (ar, ai)
            else:
                out.pop(m, None)
    return GaussPoly(p.arity, out)


# -- generator matrices and word factors -------------------------------------

def of_ints(arity: int, rows) -> Mat2:
    """Constant matrix from ((a, b), (c, d)); entries are ints or (re, im)."""
    def lift(v):
        return GaussPoly.const(arity, *v) if isinstance(v, tuple) else GaussPoly.const(arity, v)

    (a, b), (c, d) = rows
    return Mat2(lift(a), lift(b), lift(c), lift(d))


def identity(arity: int) -> Mat2:
    return of_ints(arity, ((1, 0), (0, 1)))


def translation(arity: int, curve: int) -> Mat2:
    """(1 t_{curve+1}; 0 1)."""
    one = GaussPoly.const(arity, 1)
    return Mat2(one, GaussPoly.var(arity, curve), GaussPoly.zero(arity), one)


def crossing_matrix(arity: int, curve: int, twist: int) -> Mat2:
    """The slot-free core of one crossing: i * (1 X; 0 -1), X = -t_i - 2*twist.

    Equals the generator product BOUNDARY_LOOP[inf]^-twist . FLIP^-1 .
    translation^-1, which crossing_factor multiplies out.
    """
    x = GaussPoly.var(arity, curve).scale(-1) + GaussPoly.const(arity, -2 * twist)
    return Mat2(
        GaussPoly.const(arity, 0, 1),
        x.scale(0, 1),
        GaussPoly.zero(arity),
        GaussPoly.const(arity, 0, -1),
    )


def crossing_factor(arity: int, tok: Crossing) -> Mat2:
    return matmul(
        adjugate(of_ints(arity, SLOT_TO_TOP[tok.out_slot])),
        of_ints(arity, ((1, 2 * tok.twist), (0, 1))),  # BOUNDARY_LOOP[inf]^-twist
        adjugate(of_ints(arity, FLIP)),
        adjugate(translation(arity, tok.curve)),
        of_ints(arity, SLOT_TO_TOP[tok.in_slot]),
    )


def loop_factor(arity: int, tok: SccLoop) -> Mat2:
    w = of_ints(arity, SLOT_TO_TOP[tok.slot])
    loop = of_ints(arity, ((1, 0), (2 * tok.sign, 1)))  # BOUNDARY_LOOP[0]^sign
    return matmul(adjugate(w), loop, w)


def generator_product(word) -> Mat2:
    """Left-to-right product of the generator-built factors of a word."""
    out = identity(word.arity)
    for tok in word.tokens:
        if isinstance(tok, Crossing):
            out = matmul(out, crossing_factor(word.arity, tok))
        elif isinstance(tok, SccLoop):
            out = matmul(out, loop_factor(word.arity, tok))
    return out


def inverse_word_holonomy(word) -> Mat2:
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


def point_product(word, point):
    """The holonomy of `word` at t_{k+1} = point[k], each point[k] an
    (re, im) pair mod P61, as rows ((a, b), (c, d)) of such pairs.

    A crossing contributes W_out^-1 . i(1 X; 0 -1) . W_in with
    X = -t - 2*twist, and a same-slot return at slot s with sign +-1
    contributes W_s^-1 . BOUNDARY_LOOP[0]^(+-1) . W_s.
    """
    i, minus_i, zero = (0, 1), (0, P61 - 1), (0, 0)
    out = _point_of_ints(((1, 0), (0, 1)))
    for tok in word.tokens:
        if isinstance(tok, Crossing):
            t = point[tok.curve]
            x = ((-t[0] - 2 * tok.twist) % P61, -t[1] % P61)
            core = ((i, _gmul(i, x)), (zero, minus_i))
            factor = _point_matmul(
                _point_matmul(_point_of_ints(_int_adjugate(SLOT_TO_TOP[tok.out_slot])), core),
                _point_of_ints(SLOT_TO_TOP[tok.in_slot]),
            )
        elif isinstance(tok, SccLoop):
            loop = BOUNDARY_LOOP[0] if tok.sign > 0 else _int_adjugate(BOUNDARY_LOOP[0])
            w = SLOT_TO_TOP[tok.slot]
            factor = _point_of_ints(_int_matmul(_int_matmul(_int_adjugate(w), loop), w))
        else:
            continue
        out = _point_matmul(out, factor)
    return out


def point_trace(word, point):
    """The trace of the word's holonomy at `point` (see point_product)."""
    (a, _), (_, d) = point_product(word, point)
    return _gadd(a, d)


def point_value(poly: GaussPoly, point):
    """poly at t_{k+1} = point[k], as an (re, im) pair mod P61."""
    top = [max((m[k] for m in poly.terms), default=0) for k in range(poly.arity)]
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
