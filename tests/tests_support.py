"""Shared fixture surfaces and small helpers for the test suite."""

import functools
import itertools
from pathlib import Path

from plumbtrace import gausspoly, standardpos
from plumbtrace.dtcoords import CoordError, DTCoords
from plumbtrace.gausspoly import GaussPoly, _box, _slots
from plumbtrace.standardpos import Crossing
from plumbtrace.surface import (
    SLOT_0,
    SLOT_1,
    SLOT_INF,
    SurfaceError,
    build_surface,
    load_surface,
)

ROOT = Path(__file__).resolve().parent.parent
# the surfaces of surfaces/, in name order
STOCK = ("four_holed_sphere", "genus_two", "one_holed_torus", "twice_holed_torus")


def stock_file(name):
    """The shipped file of the stock surface `name`, as a string:
    ``surfaces/<name>.surf``, or ``pipebench/surfaces/<name>.surf`` for the
    benchmark's genus_two_one_hole."""
    path = ROOT / "surfaces" / f"{name}.surf"
    if not path.is_file():
        path = ROOT / "pipebench" / "surfaces" / f"{name}.surf"
    return str(path)


@functools.cache
def stock(name):
    """The stock surface `name`, read from its shipped file (``stock_file``)."""
    return load_surface(stock_file(name))


def free_slots(surface):
    """How many slots no gluing fills: the ``None`` entries of
    ``slot_curves``, one per hole."""
    return sum(c is None for curves in surface.slot_curves for c in curves)


def n1_surface():
    """The twice-holed torus, glued along inf (curve 0) and along slot 1
    (curve 1): the second curve sits at the first's predecessor slot in
    both pants."""
    return stock("twice_holed_torus")


def n2_surface():
    """Three pants: curve 0 glued at inf-inf, curves 1 and 2 chaining the
    second pants to the third."""
    return build_surface(
        1, 3, 3,
        [
            ("e", (0, SLOT_INF), (1, SLOT_INF)),
            ("c", (1, SLOT_1), (2, SLOT_0)),
            ("d", (1, SLOT_0), (2, SLOT_1)),
        ],
    )


def random_surface(genus, boundary, rng, tries=1000):
    """A pants decomposition of the surface of genus `genus` with `boundary`
    holes, its slots paired at random: the slots of the 2g - 2 + b pants
    are shuffled, the first 2 * xi of them are paired in order into the xi
    gluings, and the rest are the holes.  A pairing ``build_surface``
    refuses (its gluing graph is disconnected) is shuffled again."""
    pants, xi = 2 * genus - 2 + boundary, 3 * genus - 3 + boundary
    slots = [(p, s) for p in range(pants) for s in (SLOT_0, SLOT_1, SLOT_INF)]
    for _ in range(tries):
        rng.shuffle(slots)
        gluings = [(f"c{k + 1}", slots[2 * k], slots[2 * k + 1]) for k in range(xi)]
        try:
            return build_surface(genus, boundary, pants, gluings)
        except SurfaceError:
            continue
    raise AssertionError(f"no connected pairing for genus {genus}, {boundary} holes")


def layout_q(layout):
    """The intersection vector a layout was built for: curve i owns the
    2 * q[i] node ids from ``base[i]``."""
    return tuple((b - a) // 2 for a, b in zip(layout.base, layout.base[1:]))


def node_id(layout, curve, side, strand):
    """Id of node (curve, side, strand) on the flat strand index of
    ``standardpos``: ``base[curve] + side * q[curve] + strand``."""
    return layout.base[curve] + side * layout_q(layout)[curve] + strand


def crossings(word):
    """The crossing tokens of a word, in word order."""
    return [t for t in word.tokens if isinstance(t, Crossing)]


def total_degree(poly):
    """Total degree; -1 for the zero polynomial."""
    return max(map(sum, poly.terms), default=-1)


def degree_in(poly, index):
    """Degree in variable `index` (0-based); -1 for the zero polynomial."""
    return max((m[index] for m in poly.terms), default=-1)


BOXES = [(1,), (3, 2), (2, 0, 3, 1), (0, 2, 1, 0)]  # crossing counts per curve


def pack(terms, counts, width):
    """sum c_e * 2^(width * idx(e)), idx from _box's strides."""
    strides, _ = _box(counts)
    return sum(c << width * sum(e * s for e, s in zip(m, strides)) for m, c in terms.items())


def random_terms(rng, counts, width, corner):
    """Coefficients on the whole box, a few zero, some at the slot limits
    (|c| < 2^(width - 1), so that -c fits too); the corner
    prod_k t_k^counts[k] is zero unless `corner`."""
    top = (1 << (width - 1)) - 1
    box = list(itertools.product(*(range(c + 1) for c in counts)))
    terms = {m: rng.choice([0, 1, -1, top, -top, rng.randint(-top, top)]) for m in box}
    terms[tuple(counts)] = rng.choice([1, -1, top, -top]) if corner else 0
    return {m: c for m, c in terms.items() if c}


def packed_form(packed, counts, width, imag=False):
    """The ``GaussPoly`` whose slots are read (``_slots``) from the packed
    int sum c_e * 2^(width * idx(e)) over the box `counts`, as ``Mat2``
    reads a trace or an entry."""
    return GaussPoly(_slots(packed, _box(counts)[1], width), tuple(counts), imag)


def packed_poly(arity, terms, counts=None, width=64, imag=False):
    """The ``GaussPoly`` of {monomial: int coefficient}, each coefficient
    real, or each imaginary if `imag`, packed into the box `counts`
    (default: the smallest box that holds the terms) and read back."""
    if counts is None:
        counts = tuple(max((m[k] for m in terms), default=0) for k in range(arity))
    return packed_form(pack(terms, counts, width), counts, width, imag)


# -- twists and the triple-of-intersection-numbers parametrization ---------

def twist_curve(coords, curve, n):
    """Apply n full right Dehn twists about pants curve `curve`."""
    p = list(coords.p)
    p[curve] += 2 * n * coords.q[curve]
    return DTCoords(coords.q, tuple(p))


def triple_from_coords(q, p):
    """Per-curve triple (m, s, t): intersections with the pants curve, its
    dual, and the once-twisted dual.  Defined for even p only."""
    if p % 2:
        raise CoordError(f"twist {p} is odd; the triple needs an even twist")
    return (q, abs(p) // 2, abs(p // 2 - q))


def coords_from_triple(m, s, t):
    """Inverse of triple_from_coords; exactly one of the three triangle relations
    m=s+t, s=m+t, t=m+s must hold (two only in degenerate cases, which
    agree)."""
    if min(m, s, t) < 0:
        raise CoordError("triple entries must be non-negative")
    if m == s + t or s == m + t:
        return (m, 2 * s)
    if t == m + s:
        return (m, -2 * s)
    raise CoordError(f"triple {(m, s, t)} satisfies no triangle relation")


def clear_shared_tables():
    """Empty the caches of shared layouts, render tables and box strides,
    so that the next call builds them afresh."""
    standardpos._shared_layout.cache_clear()
    gausspoly._shared_render_tables.cache_clear()
    gausspoly._box.cache_clear()
