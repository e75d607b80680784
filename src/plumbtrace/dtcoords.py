"""Dehn-Thurston coordinates: admissibility, arc counts, twist conversions.

A curve on a pants-decomposed surface is a pair of integer vectors
``(q, p)`` indexed by pants curves: ``q[i] >= 0`` is the geometric
intersection number with curve i and ``p[i]`` is the twist about it,
measured against the symmetric dual-curve marking with right twists
positive.  Admissibility:

  (i)  q[i] == 0 implies p[i] >= 0 (then p[i] counts parallel copies);
  (ii) the three intersection numbers at each pants have even sum, a curve
       glued to two slots of the same pants counting twice.

Intersecting a single pants in ``x, y, z`` points forces the arc pattern.
With ``half = (x+y+z)/2``, between boundaries X and Y run
``max(0, min(half - z, x, y))`` arcs, and ``max(0, x - half)`` arcs run
from X back to itself.  At most one boundary of a pants can carry
same-boundary arcs, since two totals above ``half`` would exceed the sum.
``validate`` checks (i) and (ii) and returns this arc pattern, one
``ArcCounts`` per pants; everything downstream (twist conversion, layout,
the same-boundary count ``h``) reads that value rather than recomputing it.

Two twist scales are used.  The symmetric twist ``p`` above is what users
supply; the window twist ``phat`` is the strand shift in the annulus once
all crossings are pushed into one window per curve (the form the holonomy
compiler consumes).  They differ by a correction readable off the arc
pattern:

    2*phat[i] = p[i] - q[i] + sum over the two gluing ends of
                #(arcs between that end's slot and its cyclic predecessor)

which applies verbatim when the two ends lie on the same pants; each end's
count is one ``dcc`` entry of its pants (``twist_correction`` says which).  A
non-integer result means ``(q, p)`` is not realizable as a curve (for fixed
q the realizable p fill one parity class); it is reported, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .surface import InputError, PantsDecomposition


class CoordError(InputError):
    """Invalid or unrealizable Dehn-Thurston coordinates."""


class ParityViolation(CoordError):
    def __init__(self, pants: int, total: int):
        self.pants = pants
        super().__init__(f"pants {pants}: odd intersection total {total}")


class NegativeTwistOnZeroLength(CoordError):
    def __init__(self, curve: int):
        self.curve = curve
        super().__init__(f"curve {curve}: q=0 needs twist >= 0")


@dataclass(frozen=True, slots=True)
class DTCoords:
    q: tuple[int, ...]
    p: tuple[int, ...]

    def __post_init__(self):
        if len(self.q) != len(self.p):
            raise CoordError("q and p have different lengths")
        if any(v < 0 for v in self.q):
            raise CoordError("negative intersection number")

    @property
    def xi(self) -> int:
        return len(self.q)


def validate(surface: PantsDecomposition, coords: DTCoords) -> tuple[ArcCounts, ...]:
    """Raise unless (q, p) satisfies the admissibility conditions; return
    the arc pattern of each pants, indexed by pants."""
    if coords.xi != surface.xi:
        raise CoordError(
            f"coordinate length {coords.xi} does not match {surface.xi} pants curves"
        )
    for i, (qi, pi) in enumerate(zip(coords.q, coords.p)):
        if qi == 0 and pi < 0:
            raise NegativeTwistOnZeroLength(i)
    q = coords.q
    pattern = []
    for pants, (x, y, z) in enumerate(surface.slot_curves):
        # a free slot (None) carries no crossings
        x = 0 if x is None else q[x]
        y = 0 if y is None else q[y]
        z = 0 if z is None else q[z]
        if (x + y + z) % 2:
            raise ParityViolation(pants, x + y + z)
        pattern.append(arc_counts(x, y, z))
    return tuple(pattern)


@dataclass(frozen=True, slots=True)
class ArcCounts:
    """Arc pattern of a curve inside one pants with slot totals (x0, x1, x2).

    ``dcc[c]`` counts arcs between the two slots other than c, so the arcs
    between slots a and b are ``dcc[3 - a - b]``; ``scc[a]`` counts arcs
    from the slot-a boundary to itself.
    """

    x: tuple[int, int, int]
    dcc: tuple[int, int, int]
    scc: tuple[int, int, int]


# slot-total triples whose arc pattern ``arc_counts`` keeps
ARC_COUNTS_CACHE = 4096


@lru_cache(maxsize=ARC_COUNTS_CACHE)
def arc_counts(x: int, y: int, z: int) -> ArcCounts:
    """Arc pattern for slot totals (x, y, z); the totals must have even sum.

    The result is frozen and a pure function of the totals, so it is
    interned across calls in a bounded cache: equal totals share one
    instance while they are among the ``ARC_COUNTS_CACHE`` used last.
    """
    if x < 0 or y < 0 or z < 0:
        raise CoordError("negative intersection number")
    if (x + y + z) % 2:
        raise ParityViolation(-1, x + y + z)
    half = (x + y + z) // 2
    return ArcCounts(
        x=(x, y, z),
        dcc=(
            max(0, min(half - x, y, z)),
            max(0, min(half - y, x, z)),
            max(0, min(half - z, x, y)),
        ),
        scc=(max(0, x - half), max(0, y - half), max(0, z - half)),
    )


def twist_correction(
    surface: PantsDecomposition, pattern: tuple[ArcCounts, ...], curve: int
) -> int:
    """Sum over the gluing's two ends of #(arcs slot <-> predecessor slot).

    At an end on slot s, those arcs are ``dcc[(s + 1) % 3]``, the count of
    the successor slot succ(s): ``dcc[c]`` counts the arcs between the two
    slots other than c, and the two slots other than succ(s) are s and
    pred(s).
    """
    g = surface.gluings[curve]
    (pants_a, slot_a), (pants_b, slot_b) = g.end_a, g.end_b
    return pattern[pants_a].dcc[(slot_a + 1) % 3] + pattern[pants_b].dcc[(slot_b + 1) % 3]


def pattern_twists(
    surface: PantsDecomposition, coords: DTCoords, pattern: tuple[ArcCounts, ...]
) -> tuple[int, ...]:
    """Window twists phat from symmetric twists p, given the arc pattern
    that ``validate`` returned for these coordinates.

    For q[i] == 0 both twists count parallel copies, so phat[i] = p[i].
    Raises CoordError when the conversion is non-integral, i.e. when (q, p)
    does not name a curve.
    """
    phat = []
    for g, qi, pi in zip(surface.gluings, coords.q, coords.p):
        if qi == 0:
            phat.append(pi)
            continue
        num = pi - qi + twist_correction(surface, pattern, g.curve)
        if num % 2:
            raise CoordError(
                f"curve {g.curve}: twist {pi} is not realizable with these "
                f"intersection numbers (window twist would be {num}/2)"
            )
        phat.append(num // 2)
    return tuple(phat)


def window_twists(surface: PantsDecomposition, coords: DTCoords) -> tuple[int, ...]:
    """Window twists phat from symmetric twists p (see `pattern_twists`)."""
    return pattern_twists(surface, coords, validate(surface, coords))

