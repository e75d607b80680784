"""Holonomy evaluation: word products and trace polynomials.

A crossing of curve i, leaving through slot e and entering through slot e'
with twist t, contributes W_e^-1 . (i A_X) . W_e', A_X = (1 X; 0 -1) and
X = -t_i - 2t, where W_e is the integer rotation carrying cusp e to inf
(``_SLOT_TO_TOP``).  A same-slot return at slot e with sign s contributes
W_e^-1 . (1 0; 2s 1) . W_e.  ``tests/oracle.py`` derives these factors from
the generator matrices and multiplies words out factor by factor, as the
reference the tests compare against.

Only the crossings depend on the gluing parameters, and every other
matrix is an integer matrix, so a word with crossings c_1 .. c_q factors as

    K_0 . (i A_1) . K_1 . (i A_2) . K_2 ... (i A_q) . K_q

where K_j = W_in(c_j) . L_j . W_out(c_{j+1})^-1 folds the rotations on
either side of the j-th joint with the run L_j of same-slot returns between
them (``joint_matrix``, cached; for a plain traversal it is +-W0 or +-W1;
at either end of the word the missing rotation is Winf = Id).  ``_factor``
reads the word once, token by token: it keeps the last crossing read and the
run of returns since it, and each new crossing closes the joint before it,
so step j (crossing c_j with K_j) is built as soon as c_{j+1} arrives, and
the last one against Winf after the word ends.  No list of crossings, runs
or joints is kept.

Packing.  A word with n_k crossings of curve k has no exponent of t_k above
n_k, so every entry lives in the box prod_k [0, n_k].  Its index is the
mixed-radix number idx(e) = sum_k e_k * stride_k with radix n_k + 1 and t_n
lowest (``gausspoly._box``), so ``itertools.product`` over the box lists
exponent tuples in index order.  An entry sum_e c_e t^e is held as the one int
P = sum_e c_e * 2^(B * idx(e)) (Kronecker substitution), the slots signed.
Multiplying by t_k is a left shift by stride_k * B, and add, subtract and
small-int multiply act slot by slot; all are exact on P whatever the size
of the slots, so only reading the slots needs |c_e| < 2^(B - 1).  Each
crossing step is then a few C-level operations on the two rows (x y):

    t = (x << stride_k * B) + y,   col_c = a_c * x - k1c * t

for column c of (x y) . A_X . K_j, with a_c = k0c - 2 * twist * k1c.
The joints are products of W0 and W1, so almost every a_c and k1c is 0 or
+-1, and ``_column`` multiplies by neither: a zero term is left out, and a
factor +-1 becomes an add, a subtract or a negation.  CPython multiplies a
big int by a one-digit int in a full pass over its digits, as slow as an
add, and subtracting 0 is another full pass, while a negation is a copy.
In the two commonest step shapes of the benchmark's ``deep`` words, three
of the four multipliers are +-1 and one is 0, and a row step falls from
about seven full passes over its ints to three.

Slot width.  B is fixed before any arithmetic, from the joints and twists
alone (``_l1_bounds``).  For polynomials x, y and integers a, k

    ||a.x - k.(t_k.x + y)||_1 <= |a|.||x||_1 + |k|.(||x||_1 + ||y||_1),

by the triangle inequality and because multiplying by t_k only moves
monomials, so ||t_k.x||_1 = ||x||_1; a constant entry v has norm |v|.
Tracked entry by entry through the steps, this gives bounds b00, b01, b10,
b11 on the L1 norms of the four entries of the product.  One width serves
both results: B holds max(b00 + b11, b01, b10), which covers every entry
(b00 and b11 are each at most their sum) and the trace, whose norm is at
most the *sum* of the two diagonal bounds (not their max: the diagonal
terms can add up).  Every coefficient satisfies |c| <= ||.||_1 <= bound <
2^(B - 1).  B is 32 when the bound fits, and otherwise the fewest whole
bytes that hold it (``_slot_width``): a bound of 36 bits takes 40-bit
slots, so every int of the product is five eighths as long as in 64-bit
slots, and so is every pass over it.  ``gausspoly._slots`` reads 32- and
64-bit slots with one cast, spreads 40-, 48- and 56-bit slots into 64-bit
words first, and reads wider ones slot by slot.

Phase.  The q units i multiply out to i^q, one of +-1 and +-i.  Its real
unit is folded into K_0: when it is -1 (q = 2, 3 mod 4), the integer rows
of K_0 are negated before ``_multiply``, which negates the whole product,
so no packed int is ever negated for the phase.  What is left of i^q is
the flag ``imag``, for the real or the imaginary part: every coefficient of
the product lands in the one, or every one in the other.  Nothing here
builds a term dict: ``Mat2.trace`` signs the packed trace and reads its
slots once into a ``GaussPoly``, which prints itself and gives each
coefficient from those slots.

Sign rule.  ``evaluate_word`` is the one evaluation: it returns the packed
product as a ``gausspoly.Mat2``.  ``word_trace``, which every curve-level
trace uses, is ``evaluate_word(word).trace()``, and ``trace --matrix``
prints the trace and the matrix of one ``evaluate_word``.  ``Mat2.trace``
adds the two packed diagonal entries and negates the sum when its
graded-lex leading coefficient is negative, so the real unit of i^q
cancels out of every trace.  The sign is read off the packed int by
``gausspoly._lead_sign``: the corner slot prod_k t_k^n_k is the graded-lex
greatest monomial of the box; it is nonzero exactly when
|P| >= 2^((size - 1) * B - 1), since the slots below it sum to less, and
then it carries the sign of P.  Otherwise the leading slot is the nonzero
slot of greatest ``gausspoly._grlex_keys`` key, the same keys the renderer
sorts by, and its sign decides.  The rule is exact either way and does not
assume the top-term theorem.  The slots of the signed sum are then read
once into the trace's ``GaussPoly`` (``gausspoly._slots``).

Everything is exact; determinants stay 1 factor by factor.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from .dtcoords import DTCoords
from .gausspoly import GaussPoly, Mat2, _box
from .standardpos import (
    Component,
    Conn,
    Crossing,
    SccLoop,
    Word,
    extract_components,
)
from .surface import SLOT_INF, InputError, PantsDecomposition


class WordError(ValueError):
    """Malformed holonomy word."""


# -- integer word evaluation -------------------------------------------------

# W0, W1, Winf as integer rows ((a, b), (c, d))
_SLOT_TO_TOP = (((1, -1), (1, 0)), ((0, -1), (1, -1)), ((1, 0), (0, 1)))


def _int_matmul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _slot_inverse(slot: int):
    (a, b), (c, d) = _SLOT_TO_TOP[slot]
    return ((d, -b), (-c, a))  # the adjugate, since det W = 1


@lru_cache(maxsize=None)
def joint_matrix(
    in_slot: int, loops: tuple[tuple[int, int], ...], out_slot: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The constant K = W_in . L_1 ... L_r . W_out^-1 between two crossings.

    W_in rotates the slot the first crossing enters, each same-slot return
    (slot, sign) after it contributes L = W_s^-1 . (1 0; 2*sign 1) . W_s,
    and W_out rotates the slot the next crossing leaves.
    """
    k = _SLOT_TO_TOP[in_slot]
    for slot, sign in loops:
        loop = _int_matmul(((1, 0), (2 * sign, 1)), _SLOT_TO_TOP[slot])
        k = _int_matmul(k, _int_matmul(_slot_inverse(slot), loop))
    return _int_matmul(k, _slot_inverse(out_slot))


def _factor(word: Word):
    """The integer rows of K_0, the crossing steps and the crossing counts.

    steps[j] = (curve, a0, k10, a1, k11) for crossing j + 1 followed by
    K_{j+1} = ((k00, k01), (k10, k11)), with a_c = k0c - 2*twist*k1c, so that
    column c of (x y) . A_X . K is a_c.x - k1c.(t.x + y) for X = -t - 2*twist
    (since (x y) . A_X = (x, -t.x - 2*twist.x - y)).  counts[k] is the
    number of crossings of curve k, the most any exponent of t_k can reach.
    """
    if not word.tokens:
        raise WordError("empty word")
    k0 = prev = None  # prev: the last crossing read, its step still open
    run, steps, counts = (), [], [0] * word.arity  # run: returns since prev
    for tok in word.tokens:
        if isinstance(tok, Crossing):
            if not 0 <= tok.curve < word.arity:
                raise WordError(
                    f"crossing of curve {tok.curve + 1} in a word of arity {word.arity}"
                )
            counts[tok.curve] += 1
            if prev is None:  # Winf = Id before the first crossing
                k0 = joint_matrix(SLOT_INF, run, tok.out_slot)
            else:
                (k00, k01), (k10, k11) = joint_matrix(prev.in_slot, run, tok.out_slot)
                twice = 2 * prev.twist
                steps.append((prev.curve, k00 - twice * k10, k10, k01 - twice * k11, k11))
            prev, run = tok, ()
        elif isinstance(tok, SccLoop):
            run += ((tok.slot, tok.sign),)
        elif not isinstance(tok, Conn):  # pragma: no cover
            raise WordError(f"unknown token {tok!r}")
    if prev is None:
        raise WordError("word contains no crossing")
    (k00, k01), (k10, k11) = joint_matrix(prev.in_slot, run, SLOT_INF)  # Winf = Id after it
    twice = 2 * prev.twist
    steps.append((prev.curve, k00 - twice * k10, k10, k01 - twice * k11, k11))
    return k0, steps, tuple(counts)


def _l1_bounds(k0, steps):
    """Bounds on the L1 norms of the four entries of K_0 . prod_j A_j . K_j.

    ||a.x - k1.(t.x + y)||_1 <= |a|.||x||_1 + |k1|.(||x||_1 + ||y||_1), since
    multiplying by t permutes monomials; a constant entry's norm is |v|.
    """
    (x0, y0), (x1, y1) = k0
    x0, y0, x1, y1 = abs(x0), abs(y0), abs(x1), abs(y1)
    for _, a0, k10, a1, k11 in steps:
        a0, k10, a1, k11 = abs(a0), abs(k10), abs(a1), abs(k11)
        s0, s1 = x0 + y0, x1 + y1
        x0, y0 = a0 * x0 + k10 * s0, a1 * x0 + k11 * s0
        x1, y1 = a0 * x1 + k10 * s1, a1 * x1 + k11 * s1
    return (x0, y0), (x1, y1)


def _slot_width(bound: int) -> int:
    """Bits per slot for coefficients |c| <= bound: 32 if they fit, and
    otherwise the fewest whole bytes that hold them."""
    bits = bound.bit_length() + 1  # bound < 2^(bits - 1)
    if bits <= 32:
        return 32
    return -(-bits // 8) * 8


def _column(a, x, k, t):
    """a*x - k*t, with no multiply by 0 or +-1 (see Packing)."""
    if k == 0:
        return x if a == 1 else -x if a == -1 else a * x
    if a == 0:
        return -t if k == 1 else t if k == -1 else -k * t
    ax = x if a == 1 else -x if a == -1 else a * x
    return ax - t if k == 1 else ax + t if k == -1 else ax - k * t


def _multiply(k0, steps, shifts):
    """The packed rows of K_0 . prod_j A_j . K_j, one step per crossing."""
    (x0, y0), (x1, y1) = k0  # constants sit in slot 0
    for curve, a0, k10, a1, k11 in steps:
        s = shifts[curve]
        t0, t1 = (x0 << s) + y0, (x1 << s) + y1  # t.x + y
        x0, y0 = _column(a0, x0, k10, t0), _column(a1, x0, k11, t0)
        x1, y1 = _column(a0, x1, k10, t1), _column(a1, x1, k11, t1)
    return (x0, y0), (x1, y1)


def evaluate_word(word: Word) -> Mat2:
    """Exact holonomy of a compiled word (left-to-right product), packed.

    With A_X = (1 X; 0 -1) the word factors as K_0 . prod_j (i A_j) . K_j,
    where K_j = joint_matrix(...) collects every constant between crossing
    j and crossing j + 1.  All of these are integer matrices, so the rows
    of the running product are multiplied out as packed ints, in slots of
    width bits that hold every entry and the sum of the two diagonal
    entries (``_l1_bounds``).  The units i are applied once, as i^q for q
    crossings: its real unit in K_0, its imaginary one as ``imag``.
    """
    k0, steps, counts = _factor(word)
    q = len(steps)
    if q & 2:  # i^q is -1 or -i
        (a, b), (c, d) = k0
        k0 = (-a, -b), (-c, -d)
    (b00, b01), (b10, b11) = _l1_bounds(k0, steps)
    width = _slot_width(max(b00 + b11, b01, b10))
    rows = _multiply(k0, steps, [s * width for s in _box(counts)[0]])
    return Mat2(rows, counts, width, bool(q & 1))


def word_trace(word: Word) -> GaussPoly:
    """The trace of the word's holonomy, signed so that its graded-lex
    leading coefficient is positive (``Mat2.trace``).  A zero trace has no
    sign and is refused."""
    return evaluate_word(word).trace()


# -- curve-level traces ------------------------------------------------------

def component_trace(component: Component) -> GaussPoly:
    """Canonical trace polynomial of one connected component."""
    if component.word is None:  # parabolic: the constant 2, in one slot
        return GaussPoly((2,), (0,) * len(component.q), False)
    return word_trace(component.word)


def trace_of_curve(
    surface: PantsDecomposition, coords: DTCoords
) -> list[tuple[Component, GaussPoly]]:
    """Canonical trace polynomial of every connected component.

    Components parallel to a pants curve report the constant 2 (their
    holonomy is parabolic); every other component is compiled and its word
    evaluated exactly.
    """
    return [(c, component_trace(c)) for c in extract_components(surface, coords)]


# -- plumbing-parameter conversion -------------------------------------------

def gluing_parameter_from_annulus(t_k: complex) -> complex:
    """Principal-branch conversion t_K -> tau = -(i/pi) * log t_K."""
    if not cmath.isfinite(t_k):
        raise InputError(f"annulus parameter must be finite, got {t_k}")
    if t_k == 0:
        raise InputError("annulus parameter must be nonzero")
    return -1j / cmath.pi * cmath.log(t_k)


def annulus_from_gluing_parameter(tau: complex) -> complex:
    """Inverse conversion tau -> t_K = exp(i * pi * tau).

    Refuses a tau whose t_K is not finite and nonzero, the domain of the
    forward conversion.
    """
    if not cmath.isfinite(tau):
        raise InputError(f"gluing parameter must be finite, got {tau}")
    try:
        t_k = cmath.exp(1j * cmath.pi * tau)
    except (OverflowError, ValueError):  # |t_K| or its phase out of float range
        t_k = complex("inf")
    if t_k == 0 or not cmath.isfinite(t_k):
        raise InputError(f"gluing parameter {tau} puts the annulus parameter out of range")
    return t_k
