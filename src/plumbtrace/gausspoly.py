"""Exact sparse multivariate polynomials over the Gaussian integers.

This is the value domain of every holonomy computation: matrix entries and
trace polynomials live in Z[i][t1, ..., tn], one variable per pants curve.
No floating point ever enters; coefficients are arbitrary-precision.

Representation
--------------
A ``GaussPoly`` holds its terms in one of two forms.  The term dict maps
exponent tuples (one slot per variable) to nonzero ``(re, im)`` integer
pairs; it is the canonical form, and two polynomials are equal iff their
term dicts are equal.  The packed form is what ``holonomy`` computes: the
one signed int ``P = sum_e c_e * 2^(B * idx(e))`` over the exponent box
``prod_k [0, n_k]`` (``_box``), with slot width ``B`` and a flag saying
whether every coefficient is real or every one imaginary (``from_packed``).
A packed polynomial reads its slots once, the first time ``str`` or
``coefficient`` needs them, and keeps that view; it builds its term dict
with ``_unpack`` the first time ``terms`` is read and keeps that too.  ``str`` renders straight from the slot view
(``_render_slots``), ``coefficient`` reads one slot, and ``degree_bounds``
is the box's crossing counts, so none of them builds the dict.  Everything
else (equality, ``canonical_sign``, the arithmetic) reads ``terms``, so
both forms behave alike.  A polynomial supports addition, subtraction,
negation and scaling by one Gaussian integer, no products: holonomy words
are multiplied out by one packed evaluation in ``holonomy``, which both
``evaluate_word`` and ``word_trace`` read; the results of both stay packed.

Monomial order
--------------
Graded lexicographic with t1 < t2 < ...: compare total degree first, then
exponent tuples reading the last variable as most significant.  Rendering
lists terms in descending order of this key, and ``canonical_sign`` signs
a polynomial by its greatest term.  The packed box lists monomials in
``itertools.product`` order, which is not this order; ``_grlex_keys``
gives each slot the int ``sum_k e_k * (size + rank_k)``, where ``rank_k``
is the stride of t_k in the box read with t1 lowest, so that one int sort
of the slots is the graded-lex order of their monomials.  The renderer
sorts by these keys, and ``_lead_sign``, which signs a packed trace,
takes the greatest of them when the box's corner slot is zero.

Text grammar (stable; golden tests are byte-exact)
--------------------------------------------------
    poly    := "0" | term (" + " term | " - " term)*
    term    := coeff | coeff "*" mono | mono | "i" "*" mono | ...
    mono    := "t<k>" ["^" <e>] ("*" "t<k>" ["^" <e>])*   (k ascending, e >= 1)

Coefficients render as ``4``, ``i``, ``4i`` for pure real/imaginary values
(sign pulled out into the joining operator) and as a parenthesised pair
``(3+2i)``, ``(-3+2i)``, ``(3-i)`` for mixed values (sign kept inside).
A unit coefficient on a nonconstant term is dropped: ``t1``, ``-t1``,
``i*t1``.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from operator import itemgetter, mul


@dataclass(frozen=True)
class GaussInt:
    """A Gaussian integer re + im*i with exact integer components."""

    re: int = 0
    im: int = 0

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __str__(self) -> str:
        return _coeff_str((self.re, self.im), bare=True)


def grlex_key(mono: tuple[int, ...]) -> tuple:
    """Sort key realizing the graded-lex order with t1 < t2 < ...."""
    return (sum(mono), tuple(reversed(mono)))


def _coeff_str(c: tuple[int, int], bare: bool = False) -> str:
    """Render one Gaussian integer; `bare` keeps the sign inline (for GaussInt)."""
    r, i = c
    if i == 0:
        return str(r)
    if r == 0:
        if i == 1:
            return "i"
        if i == -1:
            return "-i"
        return f"{i}i"
    im = "+i" if i == 1 else ("-i" if i == -1 else f"{i:+d}i")
    s = f"{r}{im}"
    return s if bare else f"({s})"


# -- the packed form ---------------------------------------------------------

def _box(counts) -> tuple[list[int], int]:
    """Mixed-radix strides and size of the exponent box prod_k [0, counts[k]].

    idx(e) = sum_k e_k * strides[k], radix counts[k] + 1, t_n lowest, so
    itertools.product over the box lists exponent tuples in index order.
    """
    strides, size = [0] * len(counts), 1
    for k in reversed(range(len(counts))):
        strides[k] = size
        size *= counts[k] + 1
    return strides, size


def _slots(packed: int, size: int, width: int):
    """The slots of a packed int in index order, each biased by half.

    Adding half = 2^(width-1) to every slot makes each one a non-negative
    value below 2^width (|c| < 2^(width-1)), so the bytes of the biased int
    are the slots side by side; a slot reads half exactly when it is zero.
    Returns (slots, half).
    """
    nbytes, half = width // 8, 1 << (width - 1)
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * size, "little")
    raw = memoryview((packed + bias).to_bytes(size * nbytes, sys.byteorder))
    if width == 32:
        return raw.cast("I"), half
    if width == 64:
        return raw.cast("Q"), half
    step = range(0, len(raw), nbytes)
    return [int.from_bytes(raw[i : i + nbytes], sys.byteorder) for i in step], half


def _nonzero(slots, half) -> list[int]:
    """Indices of the nonzero slots, in index order."""
    return list(itertools.compress(range(len(slots)), map(half.__ne__, slots)))


def _unpack(packed: int, counts, width: int, imag: bool) -> dict:
    """The term dict of a packed int, each coefficient real or imaginary."""
    slots, half = _slots(packed, _box(counts)[1], width)
    monos = itertools.product(*(range(c + 1) for c in counts))
    if imag:
        return {m: (0, v - half) for m, v in zip(monos, slots) if v != half}
    return {m: (v - half, 0) for m, v in zip(monos, slots) if v != half}


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
        slots, half = _slots(packed, size, width)
        j = max(_nonzero(slots, half), key=_grlex_keys(counts).__getitem__)
        lead = slots[j] - half
    return -1 if lead < 0 else 1


def _render_slots(slots, half: int, counts, imag: bool) -> str:
    """The text of a nonzero packed polynomial, read straight from its slots.

    Monomial strings come from one table over the box, built from the
    per-variable pieces "*tk", "*tk^2", ...; the nonzero slots are sorted
    once by ``_grlex_keys``.  Every coefficient is real, or every one is
    imaginary, so one format covers all terms.
    """
    order = _nonzero(slots, half)
    order.sort(key=_grlex_keys(counts).__getitem__, reverse=True)
    pieces = [
        [""] + [f"*t{k}" if e == 1 else f"*t{k}^{e}" for e in range(1, n + 1)]
        for k, n in enumerate(counts, 1)
    ]
    monos = _box_table(pieces, "")
    unit = "i" if imag else ""
    chunks: list[str] = []
    append = chunks.append
    for j in order:
        c = slots[j] - half
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


class GaussPoly:
    """Immutable sparse polynomial over the Gaussian integers.

    Construct through the classmethods (``zero``, ``const``, ``var``,
    ``from_terms``, ``from_packed``); the raw constructor trusts its input
    dict to be canonical and takes ownership of it.
    """

    __slots__ = ("arity", "_terms", "_packed", "_view")

    def __init__(self, arity: int, terms: dict):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_packed", None)
        object.__setattr__(self, "_view", None)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("GaussPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "GaussPoly":
        return cls(arity, {})

    @classmethod
    def const(cls, arity: int, re: int, im: int = 0) -> "GaussPoly":
        if re == 0 and im == 0:
            return cls(arity, {})
        return cls(arity, {(0,) * arity: (re, im)})

    @classmethod
    def var(cls, arity: int, index: int) -> "GaussPoly":
        """The variable t_{index+1} (index is 0-based)."""
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        mono = tuple(1 if k == index else 0 for k in range(arity))
        return cls(arity, {mono: (1, 0)})

    @classmethod
    def from_terms(cls, arity: int, terms: dict) -> "GaussPoly":
        """Build from {exponent tuple: (re, im) or GaussInt}, pruning zeros."""
        out = {}
        for mono, c in terms.items():
            if isinstance(c, GaussInt):
                c = (c.re, c.im)
            elif isinstance(c, int):
                c = (c, 0)
            if len(mono) != arity:
                raise ValueError("monomial length does not match arity")
            if any(e < 0 for e in mono):
                raise ValueError("negative exponent")
            if c[0] or c[1]:
                out[tuple(mono)] = (int(c[0]), int(c[1]))
        return cls(arity, out)

    @classmethod
    def from_packed(
        cls, arity: int, packed: int, counts, width: int, imag: bool
    ) -> "GaussPoly":
        """The polynomial sum_e c_e t^e held as packed = sum_e c_e 2^(width*idx(e))
        over the box prod_k [0, counts[k]], each c_e real, or each imaginary
        if `imag`; every |c_e| must be below 2^(width - 1), and width is 32,
        64 or a multiple of 8.  The slots are read, and the term dict is
        built, on first use."""
        poly = cls(arity, None)
        object.__setattr__(poly, "_packed", (packed, tuple(counts), width, imag))
        return poly

    def _slot_view(self):
        """(slots, half, strides) of a packed polynomial: its slots in index
        order, each biased by half (``_slots``), and the box's strides.
        Read on first use and kept."""
        if self._view is None:
            packed, counts, width, _ = self._packed
            strides, size = _box(counts)
            object.__setattr__(self, "_view", (*_slots(packed, size, width), strides))
        return self._view

    @property
    def terms(self) -> dict:
        """{exponent tuple: (re, im)} over the nonzero terms."""
        if self._terms is None:
            object.__setattr__(self, "_terms", _unpack(*self._packed))
        return self._terms

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "GaussPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        self._check(other)
        out = dict(self.terms)
        for m, (qr, qi) in other.terms.items():
            pr, pi = out.get(m, (0, 0))
            r = pr + qr
            i = pi + qi
            if r or i:
                out[m] = (r, i)
            elif m in out:
                del out[m]
        return GaussPoly(self.arity, out)

    def __sub__(self, other: "GaussPoly") -> "GaussPoly":
        return self + -other

    def __neg__(self) -> "GaussPoly":
        return GaussPoly(self.arity, {m: (-r, -i) for m, (r, i) in self.terms.items()})

    def scale(self, re: int, im: int = 0) -> "GaussPoly":
        """The product with the one Gaussian integer re + im*i."""
        if not (re or im):
            return GaussPoly(self.arity, {})
        return GaussPoly(
            self.arity,
            {m: (r * re - i * im, r * im + i * re) for m, (r, i) in self.terms.items()},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: tuple[int, ...]) -> GaussInt:
        """Stored coefficient of `mono`, or zero if absent.

        A packed polynomial reads the one slot of `mono`, zero outside its box.
        """
        if len(mono) != self.arity:
            raise ValueError("monomial length does not match arity")
        if self._packed is None:
            return GaussInt(*self._terms.get(tuple(mono), (0, 0)))
        counts, imag = self._packed[1], self._packed[3]
        if not all(0 <= e <= n for e, n in zip(mono, counts)):
            return GaussInt()
        slots, half, strides = self._slot_view()
        c = slots[sum(map(mul, mono, strides))] - half
        return GaussInt(0, c) if imag else GaussInt(c, 0)

    def degree_bounds(self) -> tuple[int, ...]:
        """Per variable, a bound on its exponent in the nonzero terms.

        For a packed polynomial these are the box's crossing counts, which
        zero outer slots may exceed; for a dict one they are the exact
        maxima, -1 for the zero polynomial.
        """
        if self._packed is not None:
            return self._packed[1]
        terms = self._terms
        return tuple(max(map(itemgetter(k), terms), default=-1) for k in range(self.arity))

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def __str__(self) -> str:
        if self._packed is not None:
            packed, counts, _, imag = self._packed
            if not packed:
                return "0"
            slots, half, _ = self._slot_view()
            return _render_slots(slots, half, counts, imag)
        terms = self._terms
        if not terms:
            return "0"
        # pieces[k][e] renders t_{k+1}^e, built once for the largest exponent
        top = max(map(max, terms)) if self.arity else 0
        pieces = [
            ["", f"t{k}"] + [f"t{k}^{e}" for e in range(2, top + 1)]
            for k in range(1, self.arity + 1)
        ]
        # descending grlex_key order from two stable sorts on C-level keys:
        # reversed exponent tuple first, then total degree
        order = sorted(terms, key=itemgetter(slice(None, None, -1)), reverse=True)
        order.sort(key=sum, reverse=True)
        chunks: list[str] = []
        for mono in order:
            r, i = terms[mono]
            if not i:
                neg = r < 0
                body = str(abs(r))
            elif not r:
                neg = i < 0
                body = "i" if abs(i) == 1 else f"{abs(i)}i"
            else:
                neg = False
                body = _coeff_str((r, i))
            ms = "*".join([p[e] for p, e in zip(pieces, mono) if e])
            if ms:
                body = ms if body == "1" else f"{body}*{ms}"
            if chunks:
                chunks.append(f" - {body}" if neg else f" + {body}")
            else:
                chunks.append(f"-{body}" if neg else body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"GaussPoly({self})"


def canonical_sign(p: GaussPoly) -> GaussPoly:
    """Fix the overall +- ambiguity of a nonzero polynomial.

    Returns p or -p, whichever makes the coefficient of the graded-lex
    greatest monomial have re > 0, or re == 0 and im > 0.
    """
    if p.is_zero():
        raise ValueError("canonical_sign of the zero polynomial")
    r, i = p.terms[p.leading_monomial()]
    if r < 0 or (r == 0 and i < 0):
        return -p
    return p


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over GaussPoly, row-major entries (a b; c d).

    A container for ``evaluate_word``'s result: it adds its diagonal for
    the trace and prints itself, and has no other arithmetic.
    """

    a: GaussPoly
    b: GaussPoly
    c: GaussPoly
    d: GaussPoly

    def __post_init__(self):
        n = self.a.arity
        if not (self.b.arity == self.c.arity == self.d.arity == n):
            raise ValueError("arity mismatch between matrix entries")

    @property
    def arity(self) -> int:
        return self.a.arity

    def trace(self) -> GaussPoly:
        return self.a + self.d

    def entries(self) -> tuple[GaussPoly, GaussPoly, GaussPoly, GaussPoly]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"
