"""Exact sparse multivariate polynomials over the Gaussian integers.

This is the value domain of every holonomy computation: matrix entries and
trace polynomials live in Z[i][t1, ..., tn], one variable per pants curve.
No floating point ever enters; coefficients are arbitrary-precision.

Representation
--------------
A ``GaussPoly`` is one entry, or the trace, of what ``holonomy`` computes,
and a plain frozen record of its coefficients: ``slots``, the signed
coefficients in index order over the exponent box ``prod_k [0, counts[k]]``
(``_box``); ``counts``, which bounds each variable's degree; and ``imag``,
the one axis of every coefficient: a slot int c stands for c, or for c*i
when ``imag``.  ``str`` renders straight from the slots
(``_render_slots``) and ``coefficient`` returns one slot's int, so neither
builds a term dict.  Equality is the record's: the same slots, box and axis.
A polynomial has no arithmetic: a holonomy word is multiplied out once, by
``holonomy.evaluate_word``, into a ``Mat2`` that holds the product's two
rows packed, each entry the one signed int ``P = sum_e c_e * 2^(B * idx(e))``
in slots of ``width`` B.  ``Mat2.trace`` adds and signs the packed diagonal
and reads its slots once (``_slots``); ``Mat2.entries`` reads the four
entries' slots on demand.  The term-dict polynomial the tests compare
against lives in ``tests/oracle.py``.

Monomial order
--------------
Graded lexicographic with t1 < t2 < ...: compare total degree first, then
exponent tuples reading the last variable as most significant.  Rendering
lists terms in descending order of this key, and a trace is signed by its
greatest term.  The packed box lists monomials in ``itertools.product``
order, which is not this order; ``_grlex_keys`` gives each slot the int
``sum_k e_k * (size + rank_k)``, where ``rank_k`` is the stride of t_k in
the box read with t1 lowest, so that one int sort of the slots is the
graded-lex order of their monomials.  The renderer sorts by these keys,
and ``_lead_sign``, which signs a packed trace, takes the greatest of
them when the box's corner slot is zero.

The renderer's keys and monomial strings (``_render_tables``) depend on
the box alone, which every curve with the same q shares: a bounded
least-recently-used cache keeps them, as tuples, for boxes of at most
``RENDER_SLOTS`` slots, and every box's strides (``_box``); a larger box,
which almost never repeats, builds its tables on every call.  Each cache
keeps the ``BOX_CACHE`` = 256 boxes used last, as many as
``standardpos.LAYOUT_CACHE`` keeps layouts, since a box is the q of a
connected curve: the benchmark's 500-curve campaign list renders 114
distinct boxes.  The tables of a 256-slot box own about 27.6 KB, so the
render cache holds at most about 7 MB.

Text grammar (stable; golden tests are byte-exact)
--------------------------------------------------
    poly    := "0" | term (" + " term | " - " term)*
    term    := coeff | coeff "*" mono | mono | "i" "*" mono | ...
    mono    := "t<k>" ["^" <e>] ("*" "t<k>" ["^" <e>])*   (k ascending, e >= 1)

Coefficients render as ``4``, ``i``, ``4i`` for pure real/imaginary values
(sign pulled out into the joining operator) and as a parenthesised pair
``(3+2i)``, ``(-3+2i)``, ``(3-i)`` for mixed values (sign kept inside).
A unit coefficient on a nonconstant term is dropped: ``t1``, ``-t1``,
``i*t1``.  A packed polynomial's coefficients are all real or all
imaginary, so only the reference renderer meets the mixed form.  One
slot int on its axis prints bare, sign inline (``coefficient_text``):
``4``, ``-i``, ``2i``, ``0``.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial


# -- the packed form ---------------------------------------------------------

# boxes kept with their strides, and render tables up to RENDER_SLOTS slots
BOX_CACHE = 256
RENDER_SLOTS = 256


@lru_cache(maxsize=BOX_CACHE)
def _box(counts: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Mixed-radix strides and size of the exponent box prod_k [0, counts[k]].

    idx(e) = sum_k e_k * strides[k], radix counts[k] + 1, t_n lowest, so
    itertools.product over the box lists exponent tuples in index order.
    A curve reads it three or four times, so it is cached by the counts tuple.
    """
    strides, size = [0] * len(counts), 1
    for k in reversed(range(len(counts))):
        strides[k] = size
        size *= counts[k] + 1
    return tuple(strides), size


# per byte, the byte that sign-extends it: 0xff when its top bit is set
_SIGN_FILL = bytes(0xFF if b >= 0x80 else 0 for b in range(256))


def _slots(packed: int, size: int, width: int) -> tuple[int, ...]:
    """The signed slots of a packed int, in index order.

    Adding half = 2^(width-1) to every slot makes each one a non-negative
    value below 2^width (|c| < 2^(width-1)), so no slot borrows from the
    next; xor-ing the same bias back leaves each slot's two's complement,
    side by side in the little-endian bytes of the int, which one cast
    reads as signed words when the width is 32 or 64.  A 40-, 48- or
    56-bit slot is first spread into an 8-byte field, its bytes copied and
    the rest filled from its top byte through ``_SIGN_FILL``; a wider slot
    is read from its own bytes.  A big-endian machine reads the words
    through an ``array`` and swaps their bytes.
    """
    nbytes = width // 8
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * size, "little")
    raw = ((packed + bias) ^ bias).to_bytes(size * nbytes, "little")
    if width > 64:
        step = range(0, len(raw), nbytes)
        return tuple(int.from_bytes(raw[i : i + nbytes], "little", signed=True) for i in step)
    if 32 < width < 64:
        wide = bytearray(8 * size)
        for j in range(nbytes):
            wide[j::8] = raw[j::nbytes]
        sign = raw[nbytes - 1 :: nbytes].translate(_SIGN_FILL)
        for j in range(nbytes, 8):
            wide[j::8] = sign
        raw = wide
    code = "i" if width == 32 else "q"
    if sys.byteorder == "little":
        return tuple(memoryview(raw).cast(code).tolist())
    words = array(code, raw)
    words.byteswap()
    return tuple(words.tolist())


def _box_table(levels, start):
    """[levels[0][e_0] + ... + levels[n-1][e_(n-1)] + start] over the box,
    in index order: one pass per variable, starting from the last."""
    table = [start]
    for level in reversed(levels):
        table = [a + b for a in level for b in table]
    return table


def _grlex_keys(counts) -> list[int]:
    """Per slot, sum_k e_k * (size + rank_k) with rank_k the stride of t_k
    in the box read with t1 lowest: total degree times size plus a rank
    below size, so one int sort of the keys is the graded-lex order."""
    size, rank, levels = _box(counts)[1], 1, []
    for n in counts:
        levels.append(range(0, (n + 1) * (size + rank), size + rank))
        rank *= n + 1
    return _box_table(levels, 0)


def _lead_sign(packed: int, counts, width: int) -> int:
    """The sign, 1 or -1, of the graded-lex leading coefficient of a nonzero
    packed polynomial.

    The corner slot prod_k t_k^counts[k] is the graded-lex greatest monomial
    of the box.  It is nonzero exactly when |packed| >= 2^((size-1)*width - 1),
    the lower slots summing to less, and then it has the sign of packed.
    Otherwise the leading slot is the nonzero one of greatest key.
    """
    size = _box(counts)[1]
    if packed.bit_length() >= (size - 1) * width:
        lead = packed  # a nonzero corner
    else:
        slots = _slots(packed, size, width)
        nonzero = itertools.compress(range(size), slots)
        lead = slots[max(nonzero, key=_grlex_keys(counts).__getitem__)]
    return -1 if lead < 0 else 1


def _render_tables(counts, shared: bool) -> tuple:
    """Per slot of the box, its ``_grlex_keys`` key and its monomial string
    ("*t1^2*t3", "" for 1), built from the pieces "*tk", "*tk^2", ...;
    tuples if `shared`, lists otherwise."""
    pieces = [
        [""] + [f"*t{k}" if e == 1 else f"*t{k}^{e}" for e in range(1, n + 1)]
        for k, n in enumerate(counts, 1)
    ]
    keys, monos = _grlex_keys(counts), _box_table(pieces, "")
    return (tuple(keys), tuple(monos)) if shared else (keys, monos)


_shared_render_tables = lru_cache(maxsize=BOX_CACHE)(partial(_render_tables, shared=True))


def _render_slots(slots, counts, imag: bool) -> str:
    """The text of a polynomial, read straight from its slots; "0" when
    none is nonzero.

    The nonzero slots are sorted once by their graded-lex keys and printed
    with their monomial strings (``_render_tables``).  Every coefficient is
    real, or every one is imaginary, so one format covers all terms.
    """
    order = list(itertools.compress(range(len(slots)), slots))
    if not order:
        return "0"
    shared = len(slots) <= RENDER_SLOTS
    keys, monos = _shared_render_tables(tuple(counts)) if shared else _render_tables(counts, False)
    order.sort(key=keys.__getitem__, reverse=True)
    unit = "i" if imag else ""
    chunks: list[str] = []
    append = chunks.append
    for j in order:
        c = slots[j]
        if c < 0:
            append(" - ")
            c = -c
        else:
            append(" + ")
        if c != 1:
            append(f"{c}{unit}{monos[j]}")
        elif imag:
            append(f"i{monos[j]}")
        else:
            append(monos[j][1:] or "1")  # a unit on a monomial is dropped
    chunks[0] = "-" if chunks[0] == " - " else ""
    return "".join(chunks)


def coefficient_text(c: int, imag: bool) -> str:
    """The slot int `c` on its axis, times i if `imag`, printed bare with
    its sign inline: ``4``, ``-i``, ``2i``; zero is ``0`` on either axis."""
    if not imag or not c:
        return str(c)
    return "i" if c == 1 else "-i" if c == -1 else f"{c}i"


@dataclass(frozen=True, slots=True, repr=False)
class GaussPoly:
    """Immutable polynomial over the Gaussian integers: sum_e c_e t^e with
    c_e = slots[idx(e)] over the box prod_k [0, counts[k]] (``_box``), each
    c_e real, or each imaginary if `imag`.  ``==`` compares the records'
    fields, so the same terms in another box are a different record.
    """

    slots: tuple[int, ...]
    counts: tuple[int, ...]
    imag: bool

    @property
    def terms(self) -> dict:
        """{exponent tuple: (re, im)} over the nonzero terms, built on each
        read; ``itertools.product`` lists the box in index order.  No
        library code reads it: it stays for the benchmark's count hooks and
        the tests."""
        monos = itertools.product(*(range(c + 1) for c in self.counts))
        if self.imag:
            return {m: (0, c) for m, c in zip(monos, self.slots) if c}
        return {m: (c, 0) for m, c in zip(monos, self.slots) if c}

    def coefficient(self, mono: tuple[int, ...]) -> int:
        """The int in the slot of `mono`, 0 outside the box; `imag` says
        which axis it lies on."""
        if len(mono) != len(self.counts):
            raise ValueError("monomial length does not match arity")
        j = 0  # idx(mono), read in mixed radix with t_n lowest (``_box``)
        for e, n in zip(mono, self.counts):
            if not 0 <= e <= n:
                return 0
            j = j * (n + 1) + e
        return self.slots[j]

    def __str__(self) -> str:
        return _render_slots(self.slots, self.counts, self.imag)

    def __repr__(self) -> str:
        return f"GaussPoly({self})"


@dataclass(frozen=True, repr=False, slots=True)
class Mat2:
    """The packed product of a holonomy word, 2x2 over GaussPoly with
    row-major entries (a b; c d).

    ``holonomy.evaluate_word`` builds it from the two packed rows
    ((a, b), (c, d)) of its one evaluation, each entry the one int
    sum_e c_e 2^(width*idx(e)) over the box prod_k [0, counts[k]], with
    every |c_e| below 2^(width - 1) and width 32, or a whole number of
    bytes above it; the four entries share the box, the slot ``width`` and
    the ``imag`` flag.  ``trace`` adds and signs the packed diagonal and
    reads its slots once; ``entries`` and ``str`` read the four entries'
    slots on each call, so a trace alone reads none of them.  It has no
    arithmetic.
    """

    rows: tuple[tuple[int, int], tuple[int, int]]
    counts: tuple[int, ...]
    width: int
    imag: bool

    def _poly(self, packed: int) -> GaussPoly:
        return GaussPoly(_slots(packed, _box(self.counts)[1], self.width), self.counts, self.imag)

    def entries(self) -> tuple[GaussPoly, GaussPoly, GaussPoly, GaussPoly]:
        return tuple(self._poly(e) for row in self.rows for e in row)

    def trace(self) -> GaussPoly:
        """The trace a + d, negated when its graded-lex leading coefficient
        is negative (``_lead_sign``), so that a real factor +-1 of the
        matrix does not change it.  A zero trace has no sign and is refused."""
        (a, _), (_, d) = self.rows
        trace = a + d
        if not trace:
            raise ValueError("the trace polynomial is zero")
        if _lead_sign(trace, self.counts, self.width) < 0:
            trace = -trace
        return self._poly(trace)

    def __str__(self) -> str:
        a, b, c, d = self.entries()
        return f"[[{a}, {b}], [{c}, {d}]]"

    def __repr__(self) -> str:  # the rows' ints can pass the int-to-str limit
        return f"Mat2({self})"
