"""Exact sparse multivariate polynomials over the Gaussian integers.

This is the value domain of every holonomy computation: matrix entries and
trace polynomials live in Z[i][t1, ..., tn], one variable per pants curve.
No floating point ever enters; coefficients are arbitrary-precision.

Representation
--------------
A ``GaussPoly`` wraps a term dict mapping exponent tuples (one slot per
variable) to nonzero ``(re, im)`` integer pairs.  The dict is the canonical
form: two polynomials are equal iff their term dicts are equal.  A
polynomial supports addition, subtraction, negation and scaling by one
Gaussian integer, no products: holonomy words are multiplied out by
``holonomy.evaluate_word`` and, when only the trace is needed,
``holonomy.word_trace``; both hold each entry as one packed int and
build ``GaussPoly`` values only at the end.

Monomial order
--------------
Graded lexicographic with t1 < t2 < ...: compare total degree first, then
exponent tuples reading the last variable as most significant.  Rendering
lists terms in descending order of this key, and ``canonical_sign`` signs
a polynomial by its greatest term.  ``holonomy`` packs a whole polynomial
into one int, one slot per monomial of its exponent box in
``itertools.product`` order, which is not this order; it reads the
canonical sign of a trace off the box's corner slot, the greatest
monomial of the box, and only when that slot is zero looks for the
greatest term with ``grlex_key``.

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

from dataclasses import dataclass
from operator import itemgetter


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


class GaussPoly:
    """Immutable sparse polynomial over the Gaussian integers.

    Construct through the classmethods (``zero``, ``const``, ``var``,
    ``from_terms``); the raw constructor trusts its input dict to be
    canonical and takes ownership of it.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", terms)

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
        """Stored coefficient of `mono`, or zero if absent."""
        if len(mono) != self.arity:
            raise ValueError("monomial length does not match arity")
        c = self.terms.get(tuple(mono), (0, 0))
        return GaussInt(*c)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, index: int) -> int:
        """Degree in variable `index` (0-based); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m[index] for m in self.terms)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def __str__(self) -> str:
        terms = self.terms
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
