"""Holonomy evaluation: constant matrices, word products, trace polynomials.

All matrices act on the upper half plane chart of the triply punctured
sphere whose cusps sit at 0, 1, inf.  The constants:

  flip          J  = (-i 0; 0 i)        reverses direction in a strip
  translation   T  = (1 t; 0 1)         the gluing parameter of one curve
  slot_to_top   W0 = (1 -1; 1 0), W1 = (0 -1; 1 -1), Winf = Id
                the rotation of the white triangle carrying a cusp to inf
  cusp_path     (1 2; 0 1), Id, (1 0; 2 1)
                paths from the white to the black basepoint across one seam
  boundary_loop loops around the three cusps, built from cusp paths

A crossing of pants curve i, leaving through slot e and entering through
slot e', wrapping the annulus t times, contributes

    W_e^-1 . eta_inf^-t . J^-1 . T_i^-1 . W_e'
           = W_e^-1 . (i A_X) . W_e',     A_X = (1 X; 0 -1), X = -t_i - 2t

and a same-slot return at slot e contributes W_e^-1 . eta_0^s . W_e, the
loop around the chart cusp at 0 with sign s.  Traversals between distinct
slots contribute nothing of their own: the two flanking rotations already
encode them, reducing modulo sign to W0 or W1 by the relations
W0.W1 = -Id, W0^2 = W1.

Only the crossings depend on the gluing parameters, and every other
matrix is an integer matrix, so a word with crossings c_1 .. c_q factors as

    K_0 . (i A_1) . K_1 . (i A_2) . K_2 ... (i A_q) . K_q

where K_j = W_in(c_j) . L_j . W_out(c_{j+1})^-1 folds the rotations on
either side of the j-th joint with the run L_j of same-slot returns between
them (``joint_matrix``, cached; for a plain traversal it is +-W0 or +-W1;
at either end of the word the missing rotation is Winf = Id).
The rows of the running product are multiplied out over plain-int term
dicts keyed by monomials packed into one int, the total degree in the bits
above the exponents, so that int order is graded-lex order: each crossing
is one shifted pass in t_i followed by an integer combination of columns,
and the q units i become the single phase i^q.  ``evaluate_word`` lifts the
four entries to Gaussian-integer polynomials for the full matrix.
``word_trace``, which every curve-level trace uses, needs only the trace:
it runs the same rows through every step but the last, computes only the
two diagonal entries against K_q, reads the canonical sign off the
greatest packed key and i^q, and lifts the signed trace once.  Both share
one word parser and one row kernel.
The generator products (``_crossing_factor``, ``_loop_factor``) stay as an
independent path for ``inverse_word_holonomy`` and the tests.

Everything is exact; determinants stay 1 factor by factor.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from .dtcoords import DTCoords
from .gausspoly import GaussPoly, Mat2
from .standardpos import (
    Component,
    Conn,
    Crossing,
    SccLoop,
    Word,
    extract_components,
)
from .surface import SLOT_INF, PantsDecomposition


class WordError(ValueError):
    """Malformed holonomy word."""


@lru_cache(maxsize=None)
def generators(arity: int) -> dict:
    """The constant matrices at a given variable count, all of determinant 1."""
    M = lambda rows: Mat2.of_ints(arity, rows)
    g = {
        "flip": M((((0, -1), 0), (0, (0, 1)))),  # (-i 0; 0 i)
        "slot_to_top": (
            M(((1, -1), (1, 0))),
            M(((0, -1), (1, -1))),
            Mat2.identity(arity),
        ),
        "cusp_path": (M(((1, 2), (0, 1))), Mat2.identity(arity), M(((1, 0), (2, 1)))),
    }
    paths = g["cusp_path"]
    adj = lambda m: m.adjugate()  # inverse, since all determinants are 1
    g["boundary_loop"] = (
        paths[2] @ adj(paths[1]),  # around cusp 0: (1 0; 2 1)
        paths[0] @ adj(paths[2]),  # around cusp 1: (-3 2; -2 1)
        paths[1] @ adj(paths[0]),  # around cusp inf: (1 -2; 0 1)
    )
    return g


def flip(arity: int) -> Mat2:
    return generators(arity)["flip"]


def translation(arity: int, curve: int) -> Mat2:
    """(1 t_{curve+1}; 0 1)."""
    t = GaussPoly.var(arity, curve)
    one = GaussPoly.const(arity, 1)
    zero = GaussPoly.zero(arity)
    return Mat2(one, t, zero, one)


def slot_to_top(arity: int, slot: int) -> Mat2:
    return generators(arity)["slot_to_top"][slot]


def boundary_loop(arity: int, slot: int) -> Mat2:
    return generators(arity)["boundary_loop"][slot]


def cusp_path(arity: int, slot: int) -> Mat2:
    return generators(arity)["cusp_path"][slot]


def _loop_inf_power(arity: int, n: int) -> Mat2:
    """boundary_loop(inf)^n = (1 -2n; 0 1), exact for any integer n."""
    one = GaussPoly.const(arity, 1)
    zero = GaussPoly.zero(arity)
    return Mat2(one, GaussPoly.const(arity, -2 * n), zero, one)


def _loop_zero_power(arity: int, n: int) -> Mat2:
    """boundary_loop(0)^n = (1 0; 2n 1)."""
    one = GaussPoly.const(arity, 1)
    zero = GaussPoly.zero(arity)
    return Mat2(one, zero, GaussPoly.const(arity, 2 * n), one)


def crossing_matrix(arity: int, curve: int, twist: int) -> Mat2:
    """The slot-free core of one crossing: i * (1 X; 0 -1), X = -t_i - 2*twist.

    Equals the generator product boundary_loop(inf)^{-twist} . flip^-1 .
    translation^-1, which _crossing_factor multiplies out.
    """
    x = GaussPoly.var(arity, curve).scale(-1) + GaussPoly.const(arity, -2 * twist)
    return Mat2(
        GaussPoly.const(arity, 0, 1),
        x.scale(0, 1),
        GaussPoly.zero(arity),
        GaussPoly.const(arity, 0, -1),
    )


def _crossing_factor(arity: int, tok: Crossing) -> Mat2:
    g = generators(arity)
    w_out = g["slot_to_top"][tok.out_slot]
    w_in = g["slot_to_top"][tok.in_slot]
    core = (
        _loop_inf_power(arity, -tok.twist)
        @ g["flip"].adjugate()
        @ translation(arity, tok.curve).adjugate()
    )
    return w_out.adjugate() @ core @ w_in


def _loop_factor(arity: int, tok: SccLoop) -> Mat2:
    w = slot_to_top(arity, tok.slot)
    return w.adjugate() @ _loop_zero_power(arity, tok.sign) @ w


# -- integer word evaluation -------------------------------------------------

# W0, W1, Winf as integer rows ((a, b), (c, d)), the same as generators()
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


def _column(x: dict, y: dict, shift: int, twist: int, k0: int, k1: int) -> dict:
    """Column (k0; k1) of K applied to the row (x y) . A_X, X = -t_k - 2*twist.

    Adding `shift` to a packed monomial multiplies it by t_k.  Since
    (x y) . A_X = (x, -t_k.x - 2*twist.x - y), the column is
    (k0 - 2*twist*k1).x - k1.(t_k.x + y), a fresh dict.
    """
    a = k0 - 2 * twist * k1
    if not k1:
        return {m: a * c for m, c in x.items()} if a else {}
    col = {m + shift: -k1 * c for m, c in x.items()}
    get = col.get
    for m, c in y.items():
        col[m] = get(m, 0) - k1 * c
    if a:
        for m, c in x.items():
            col[m] = get(m, 0) + a * c
    return col


def _multiply_rows(rows, steps, joints):
    """The rows of rows . prod_j A_j . K_j, one (shift, twist) step per A_j."""
    for (shift, twist), ((k00, k01), (k10, k11)) in zip(steps, joints):
        rows = [
            (_column(x, y, shift, twist, k00, k10), _column(x, y, shift, twist, k01, k11))
            for x, y in rows
        ]
    return rows


def _factor(word: Word):
    """The crossing steps, the integer joints K_0 .. K_q and the field width.

    steps[j] = (shift, twist) of crossing j + 1.  A monomial is packed into
    one int: `width` bits per variable (no exponent can exceed the number
    of crossings) with t_1 lowest, and the total degree in the bits above
    them, so adding `shift` multiplies by t_k and plain int order is the
    graded-lex order.
    """
    if not word.tokens:
        raise WordError("empty word")
    crossings, runs = [], [[]]  # runs[j]: the same-slot returns after crossing j
    for tok in word.tokens:
        if isinstance(tok, Crossing):
            if not 0 <= tok.curve < word.arity:
                raise WordError(
                    f"crossing of curve {tok.curve + 1} in a word of arity {word.arity}"
                )
            crossings.append(tok)
            runs.append([])
        elif isinstance(tok, SccLoop):
            runs[-1].append((tok.slot, tok.sign))
        elif not isinstance(tok, Conn):  # pragma: no cover
            raise WordError(f"unknown token {tok!r}")
    if not crossings:
        raise WordError("word contains no crossing")
    ins = [SLOT_INF] + [tok.in_slot for tok in crossings]  # Winf = Id at both ends
    outs = [tok.out_slot for tok in crossings] + [SLOT_INF]
    joints = [joint_matrix(i, tuple(run), o) for i, run, o in zip(ins, runs, outs)]
    width = len(crossings).bit_length()
    degree = 1 << (word.arity * width)
    steps = [(degree + (1 << (tok.curve * width)), tok.twist) for tok in crossings]
    return steps, joints, width


_PHASES = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^q by q mod 4


def _lift(arity: int, width: int, terms: dict, unit) -> GaussPoly:
    """unit times the int terms keyed by packed monomials, as a GaussPoly."""
    ur, ui = unit
    mask, offsets = (1 << width) - 1, range(0, arity * width, width)
    return GaussPoly(
        arity,
        {tuple(m >> o & mask for o in offsets): (ur * c, ui * c) for m, c in terms.items() if c},
    )


def _constant_rows(k) -> list:
    """The rows of the integer matrix K as term dicts."""
    return [[{0: v} if v else {} for v in row] for row in k]


def evaluate_word(word: Word) -> Mat2:
    """Exact holonomy of a compiled word (left-to-right product).

    With A_X = (1 X; 0 -1) the word factors as K_0 . prod_j (i A_j) . K_j,
    where K_j = joint_matrix(...) collects every constant between crossing
    j and crossing j + 1.  All of these are integer matrices, so the rows
    of the running product are multiplied out over plain-int term dicts
    and the units i are applied once, as i^q for q crossings, when the four
    entries are lifted to Gaussian polynomials.
    """
    steps, joints, width = _factor(word)
    rows = _multiply_rows(_constant_rows(joints[0]), steps, joints[1:])
    unit = _PHASES[len(steps) % 4]
    return Mat2(*(_lift(word.arity, width, e, unit) for row in rows for e in row))


def word_trace(word: Word) -> GaussPoly:
    """canonical_sign(evaluate_word(word).trace()), from the diagonal alone.

    The rows run from K_0 through every crossing but the last, as in
    evaluate_word.  The last step computes only the two diagonal entries,
    and their int sum is signed before the single lift: its greatest packed
    monomial is its graded-lex leading term, whose coefficient times i^q
    must have re > 0, or re == 0 and im > 0.
    """
    steps, joints, width = _factor(word)
    rows = _constant_rows(joints[0])
    (x0, y0), (x1, y1) = _multiply_rows(rows, steps[:-1], joints[1:-1])
    (shift, twist), ((k00, k01), (k10, k11)) = steps[-1], joints[-1]
    trace = _column(x0, y0, shift, twist, k00, k10)
    get = trace.get
    for m, c in _column(x1, y1, shift, twist, k01, k11).items():
        trace[m] = get(m, 0) + c
    lead = max((m for m, c in trace.items() if c), default=None)
    if lead is None:
        raise ValueError("the trace polynomial is zero")
    ur, ui = _PHASES[len(steps) % 4]
    if (ur + ui) * trace[lead] < 0:  # exactly one of ur, ui is nonzero
        ur, ui = -ur, -ui
    return _lift(word.arity, width, trace, (ur, ui))


def inverse_word_holonomy(word: Word) -> Mat2:
    """Holonomy of the reversed word with every factor inverted.

    Equals the matrix inverse of evaluate_word(word); kept as a separate
    evaluation path for property tests.
    """
    if not word.tokens:
        raise WordError("empty word")
    arity = word.arity
    out = Mat2.identity(arity)
    for tok in reversed(word.tokens):
        if isinstance(tok, Crossing):
            out = out @ _crossing_factor(arity, tok).adjugate()
        elif isinstance(tok, SccLoop):
            out = out @ _loop_factor(arity, tok).adjugate()
    return out


# -- curve-level traces ------------------------------------------------------

def component_trace(component: Component) -> GaussPoly:
    """Canonical trace polynomial of one connected component."""
    if component.word is None:
        arity = len(component.q)
        return GaussPoly.const(arity, 2)
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
    if t_k == 0:
        raise ValueError("annulus parameter must be nonzero")
    return -1j / cmath.pi * cmath.log(t_k)


def annulus_from_gluing_parameter(tau: complex) -> complex:
    """Inverse conversion tau -> t_K = exp(i * pi * tau)."""
    return cmath.exp(1j * cmath.pi * tau)
