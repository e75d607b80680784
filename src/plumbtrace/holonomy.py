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

Every factor is affine in one gluing parameter, C0 + t_i.C1 with constant
Gaussian-integer matrices:

    crossing   C0 = W_e^-1 . i(1 -2t; 0 -1) . W_e',  C1 = W_e^-1 . i(0 -1; 0 0) . W_e'
    loop       C0 = W_e^-1 . (1 0; 2s 1) . W_e,      C1 = 0

``crossing_coeffs`` and ``loop_coeffs`` compute these in closed form and
cache them per slot data, and ``evaluate_word`` multiplies the running
product by each factor in one shift-and-add pass over its term dicts.  The
generator products (``_crossing_factor``, ``_loop_factor``) stay as an
independent path for ``inverse_word_holonomy`` and the tests.

Everything is exact over Gaussian-integer polynomials; determinants stay 1
factor by factor, and unit factors such as the i per crossing live inside
the coefficients (no separate phase channel is needed).
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from .dtcoords import DTCoords, window_twists, validate
from .gausspoly import GaussPoly, Mat2, canonical_sign
from .standardpos import (
    Component,
    Conn,
    Crossing,
    SccLoop,
    Word,
    extract_components,
)
from .surface import PantsDecomposition


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


# -- linear factor table -----------------------------------------------------

# A constant 2x2 matrix over Z[i]: row-major 4-tuple of (re, im) pairs.
GaussMat = tuple[tuple[int, int], ...]

_ZERO_MAT: GaussMat = ((0, 0),) * 4
_SLOT_TO_TOP = (  # W0, W1, Winf as integer rows, the same as generators()
    ((1, -1), (1, 0)),
    ((0, -1), (1, -1)),
    ((1, 0), (0, 1)),
)


def _gauss_mat(rows) -> GaussMat:
    """Lift ((a, b), (c, d)) with int or (re, im) entries."""
    return tuple(v if isinstance(v, tuple) else (v, 0) for row in rows for v in row)


def _gauss_matmul(x: GaussMat, y: GaussMat) -> GaussMat:
    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def dot(u1, v1, u2, v2):
        (r1, i1), (r2, i2) = mul(u1, v1), mul(u2, v2)
        return (r1 + r2, i1 + i2)

    a, b, c, d = x
    e, f, g, h = y
    return (dot(a, e, b, g), dot(a, f, b, h), dot(c, e, d, g), dot(c, f, d, h))


def _conjugate_by_slots(out_slot: int, in_slot: int, core: GaussMat) -> GaussMat:
    """W_out^-1 . core . W_in, inverting W_out by its adjugate (det 1)."""
    (a, b), (c, d) = _SLOT_TO_TOP[out_slot]
    w_out_inv = _gauss_mat(((d, -b), (-c, a)))
    return _gauss_matmul(_gauss_matmul(w_out_inv, core), _gauss_mat(_SLOT_TO_TOP[in_slot]))


@lru_cache(maxsize=None)
def crossing_coeffs(
    curve: int, out_slot: int, in_slot: int, twist: int
) -> tuple[GaussMat, GaussMat, int]:
    """A crossing's factor as (C0, C1, k), meaning C0 + t_{k+1}.C1."""
    core0 = _gauss_mat((((0, 1), (0, -2 * twist)), (0, (0, -1))))  # i(1 -2t; 0 -1)
    core1 = _gauss_mat(((0, (0, -1)), (0, 0)))  # i(0 -1; 0 0)
    return (
        _conjugate_by_slots(out_slot, in_slot, core0),
        _conjugate_by_slots(out_slot, in_slot, core1),
        curve,
    )


@lru_cache(maxsize=None)
def loop_coeffs(slot: int, sign: int) -> GaussMat:
    """A same-slot return's constant factor W^-1 . (1 0; 2*sign 1) . W."""
    return _conjugate_by_slots(slot, slot, _gauss_mat(((1, 0), (2 * sign, 1))))


def _add_scaled(out: dict, p: dict, coeff: tuple[int, int], shift: int | None) -> None:
    """out += coeff * p, times t_{shift+1} unless shift is None."""
    cr, ci = coeff
    if not (cr or ci):
        return
    get = out.get
    for m, (r, i) in p.items():
        if shift is not None:
            m = m[:shift] + (m[shift] + 1,) + m[shift + 1 :]
        ar, ai = get(m, (0, 0))
        out[m] = (ar + r * cr - i * ci, ai + r * ci + i * cr)


def _row_times_factor(x: dict, y: dict, c0: GaussMat, c1: GaussMat, k: int) -> list[dict]:
    """(x y) . (C0 + t_{k+1}.C1) for one row (x y) of term dicts."""
    row = []
    for col in (0, 1):
        acc: dict = {}
        _add_scaled(acc, x, c0[col], None)
        _add_scaled(acc, y, c0[2 + col], None)
        _add_scaled(acc, x, c1[col], k)
        _add_scaled(acc, y, c1[2 + col], k)
        row.append({m: c for m, c in acc.items() if c[0] or c[1]})
    return row


def evaluate_word(word: Word) -> Mat2:
    """Exact holonomy of a compiled word (left-to-right product).

    Each token's factor comes from the cached table as C0 + t_k.C1, and
    the running product is multiplied by it row by row: an output entry
    is x.c + y.c' from C0 plus the same combination from C1 shifted one
    up in t_k, where (x y) is the row.
    """
    if not word.tokens:
        raise WordError("empty word")
    if not any(isinstance(t, Crossing) for t in word.tokens):
        raise WordError("word contains no crossing")
    arity = word.arity
    one = (0,) * arity
    a, b, c, d = {one: (1, 0)}, {}, {}, {one: (1, 0)}
    for tok in word.tokens:
        if isinstance(tok, Crossing):
            c0, c1, k = crossing_coeffs(tok.curve, tok.out_slot, tok.in_slot, tok.twist)
        elif isinstance(tok, SccLoop):
            c0, c1, k = loop_coeffs(tok.slot, tok.sign), _ZERO_MAT, 0
        elif isinstance(tok, Conn):
            continue  # carried by the adjacent crossings' rotations
        else:  # pragma: no cover
            raise WordError(f"unknown token {tok!r}")
        a, b = _row_times_factor(a, b, c0, c1, k)
        c, d = _row_times_factor(c, d, c0, c1, k)
    return Mat2(*(GaussPoly(arity, e) for e in (a, b, c, d)))


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


# -- connector reduction -----------------------------------------------------

@lru_cache(maxsize=None)
def connector_table() -> dict[tuple[int, int], tuple[int, int]]:
    """Reduce W_entry . W_exit^-1 to +-W0 or +-W1 for all distinct slot pairs.

    Computed once by multiplying the actual matrices; the result maps
    (entry, exit) to (sign, cls) with cls 0 or 1.  Every traversal reduces
    to one of the two: an exit at the entry's predecessor gives cls 0, at
    its successor cls 1.
    """
    table = {}
    w = [slot_to_top(1, s) for s in (0, 1, 2)]
    for entry in (0, 1, 2):
        for exit_ in (0, 1, 2):
            if entry == exit_:
                continue
            prod = w[entry] @ w[exit_].adjugate()
            for sign in (1, -1):
                for cls in (0, 1):
                    if prod == (w[cls] if sign == 1 else -w[cls]):
                        table[(entry, exit_)] = (sign, cls)
    if len(table) != 6:
        raise RuntimeError(f"connector reduction failed: {len(table)} of 6 slot pairs")
    return table


# -- curve-level traces ------------------------------------------------------

def component_trace(component: Component) -> GaussPoly:
    """Canonical trace polynomial of one connected component."""
    if component.word is None:
        arity = len(component.q)
        return GaussPoly.const(arity, 2)
    return canonical_sign(evaluate_word(component.word).trace())


def trace_of_curve(
    surface: PantsDecomposition, coords: DTCoords
) -> list[tuple[Component, GaussPoly]]:
    """Canonical trace polynomial of every connected component.

    Components parallel to a pants curve report the constant 2 (their
    holonomy is parabolic); every other component is compiled and its word
    evaluated exactly.
    """
    validate(surface, coords)
    window_twists(surface, coords)  # surface realizability errors early
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
