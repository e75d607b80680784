"""Curve reconstruction: from coordinates to per-component holonomy words.

Every crossing of the curve with pants curve i is pushed into one short
window on that curve, so the curve is described by (a) an arc pattern inside
each pants, (b) the linear order of arc endpoints along each window, and
(c) an order-preserving matching with constant shift between the two sides
of each window annulus.  This module fixes those conventions, extracts
connected components, and compiles each component into a token word that the
holonomy engine evaluates.  Part (a) is the value ``dtcoords.validate``
returns: ``layout_endpoints`` validates once and keeps that pattern on the
``Layout``, and ``match_strands`` reads the window twists for (c) off it
and the coordinates.  Parts (a) and (b) depend on (surface, q) alone, so
one ``Layout`` serves every curve with that q: ``layout_endpoints``
validates each curve (``validate`` checks p) and returns the layout a
bounded least-recently-used cache shares, its per-node sequences tuples
that no caller can change.  The cache keeps the ``LAYOUT_CACHE`` = 256
layouts used last, sized from the traffic it serves: the benchmark's
500-curve campaign list holds 122 distinct (surface, q), and a genus-two
``verify --fuzz 1000`` sample lays out 108 and 172 at max q 5 and 6; a
cache smaller than the keys a run cycles through evicts most of them
before their next use.  A 256-node layout owns about 7.5 KB, so the
cache holds at most about 1.9 MB.  A
layout of more than ``LAYOUT_NODES`` nodes, whose q almost never repeats,
is built on every call, as lists.

Strand index
------------
Layout, matching and walk share one flat integer index.  Curve i crosses
its annulus in q_i strands; strand k has one end on each side of the
annulus, side 0 at the gluing's end A and side 1 at end B.  The node
``(curve i, side, strand k)`` gets the id

    2 * (q_0 + ... + q_{i-1}) + side * q_i + k,

so curve i owns the ids ``base[i] .. base[i+1] - 1`` with
``base[i] = 2 * (q_0 + ... + q_{i-1})``, side 0 before side 1 and strands
in order inside each side.  Ids therefore increase in the lexicographic
order of the tuples, and a walk started from the least unvisited id starts
where one started from the least unvisited tuple did: components come out
in the same order as with tuple-keyed nodes.

Each window (pants, slot) is a ``range`` of node ids listed by window
position: end A's window is ``range(base[i], base[i] + q_i)``, end B's
lists side 1 backwards, because end B is enumerated in decreasing chart
order (see the matching conventions).  The layout and the matching are
per-node lists indexed by id: the other end of the node's pants arc, the
traversal that follows arriving at the node, the node across the annulus
and the crossing that leaves through the node.  The nodes of one window
block, and the strand ends of one wrap run, are a contiguous id range
sharing one token, so each list is filled by slice assignment, building
each token once per block or run.  The ids themselves come from one list
per layout, ``Layout.ids`` = ``list(range(size))`` (a tuple when the layout
is shared): the layout's and the matching's lists of ids are filled with
slices of it, so an id above 256, an int CPython does not cache, is
allocated once per layout, not once per list that holds it.  Tokens are
frozen values, interned across calls by bounded least-recently-used
caches; a token's line of the stable text form is its ``text``, formatted
by ``__post_init__`` on a cache miss and taking no part in equality,
hashing or ``repr``.  Every record here is slotted, so none carries an
instance dict.

Per crossing the walk marks both strand ends in a ``bytearray``, appends
the crossing and the traversal after it, and steps on; the same-slot
return check ran before, once per same-boundary arc.  A walk that has not
closed after half the ids shows a matching that is not a permutation, and
raises ``RuntimeError`` rather than walk on.  A component's q_i
is half the ids of curve i it marked.  With ``w, r = divmod(t, q_i)`` for
the window twist t, each strand wraps w times and the r strands that wrap
once more end on the r ids each side of ``base[i] + q_i``, so phat_i is
w * q_i plus half the ids it marked there.  The last walk takes what the
others left, so a connected curve counts no marks.

Window conventions
------------------
View each slot of a pants in the chart that puts that slot at the top of the
white hexagon; the window then runs over chart coordinate [0, 1] with the
slot's cyclic successor at the 0 end and its predecessor at the 1 end.
Along a window (increasing chart coordinate) endpoint blocks appear as

    [scc outgoing, outermost first][arcs to successor slot]
    [scc returning, innermost first][arcs to predecessor slot]

which is the unique non-crossing arrangement: a same-boundary arc loops
around the successor boundary, so arcs headed to the successor must nest
inside it while arcs to the predecessor stay outside.  Parallel arcs of one
family pair off in reversed chart order between their two windows.

Matching conventions
--------------------
The gluing identifies the two window charts by coordinate reversal, so
enumerating one side of each gluing (end A) in increasing and the other
(end B) in decreasing chart order makes the untwisted matching the identity
k <-> k.  A window twist of ``phat`` matches A-strand k to B-strand
``(k + phat) % q`` with ``(k + phat) // q`` signed wraps around the annulus;
summed over strands the wraps give back ``phat``, one full right twist
adding one wrap to every strand.

Same-boundary arcs are oriented: the outgoing endpoint (smaller window
coordinate) starts the loop around the successor boundary.  Traversing the
arc from its returning endpoint to its outgoing endpoint circles that
boundary in the positive direction (loop sign +1), the reverse traversal in
the negative direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, repeat
from operator import sub

from .dtcoords import ArcCounts, DTCoords, pattern_twists, validate
from .surface import PantsDecomposition, slot_name


@dataclass(frozen=True, slots=True)
class Crossing:
    """One crossing of a pants curve: leaves a pants through `out_slot`'s
    window, re-enters the surface at `in_slot`'s window, wrapping the
    annulus `twist` times (signed, right positive)."""

    curve: int
    out_pants: int
    out_slot: int
    in_pants: int
    in_slot: int
    twist: int
    text: str = field(init=False, compare=False, repr=False)  # line in word_to_text

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "text",
            f"cross c={self.curve + 1} out=({self.out_pants},{slot_name(self.out_slot)})"
            f" in=({self.in_pants},{slot_name(self.in_slot)}) t={self.twist}",
        )


@dataclass(frozen=True, slots=True)
class Conn:
    """Traversal of a pants between two distinct slots (no holonomy factor
    of its own; the slot data lives in the adjacent crossings)."""

    pants: int
    in_slot: int
    out_slot: int
    text: str = field(init=False, compare=False, repr=False)  # line in word_to_text

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "text",
            f"conn p={self.pants} in={slot_name(self.in_slot)} out={slot_name(self.out_slot)}",
        )


@dataclass(frozen=True, slots=True)
class SccLoop:
    """Same-slot return: the curve re-emerges from the window it entered,
    looping once around the slot's successor boundary with the given sign."""

    pants: int
    slot: int
    sign: int
    text: str = field(init=False, compare=False, repr=False)  # line in word_to_text

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "text", f"loop p={self.pants} slot={slot_name(self.slot)} s={self.sign:+d}"
        )


Token = Crossing | Conn | SccLoop

# the constructors the layout and the matching build tokens with: equal
# values share one frozen instance, and so one formatted ``text``, across
# calls, and a token is built, and its line formatted, only on a miss; each
# cache keeps the TOKEN_CACHE values used last
TOKEN_CACHE = 4096
_crossing = lru_cache(maxsize=TOKEN_CACHE)(Crossing)
_conn = lru_cache(maxsize=TOKEN_CACHE)(Conn)
_scc_loop = lru_cache(maxsize=TOKEN_CACHE)(SccLoop)


@dataclass(frozen=True, slots=True)
class Word:
    """Cyclic token word of one connected component, starting on a crossing
    and alternating crossing / traversal."""

    arity: int
    tokens: tuple[Token, ...]


@dataclass(frozen=True, slots=True)
class Component:
    """One connected component of the reconstructed multicurve."""

    q: tuple[int, ...]
    phat: tuple[int, ...]
    word: Word | None  # None for a component parallel to a pants curve
    parallel_to: int | None = None


@dataclass(frozen=True, slots=True)
class Layout:
    """Endpoint layout of one intersection vector q on the flat strand index.

    ``pattern`` is the per-pants arc pattern of q.  Node ``(curve i, side,
    strand)`` has id ``base[i] + side * q[i] + strand``; ``base[-1]`` is the
    node count, and ``ids`` the ids 0 .. count - 1 in order, the one source
    of the id ints that ``arc_mate`` and the matching's ``mate`` hold, both
    filled with slices of it.  ``windows`` maps every (pants, slot) to its
    node ids in window order, and is never written once built.  Per node:
    ``arc_mate`` is the other end of its pants arc, and ``traversal`` the
    token for arriving at it and leaving through ``arc_mate``: an
    ``SccLoop`` when both ends sit in one window, a ``Conn`` otherwise.
    ``scc_out`` lists, per window with same-boundary arcs, the block of
    their outgoing ends.  These four are tuples in a shared layout (module
    notes), else lists.
    """

    surface: PantsDecomposition
    pattern: tuple[ArcCounts, ...]
    base: tuple[int, ...]
    ids: tuple[int, ...] | list[int]
    windows: dict[tuple[int, int], range]
    arc_mate: tuple[int, ...] | list[int]
    traversal: tuple[Token, ...] | list[Token]
    scc_out: tuple[range, ...] | list[range]


def layout_endpoints(surface: PantsDecomposition, coords: DTCoords) -> Layout:
    """Validate `coords`; arrange all arc endpoints of their q along the
    windows and pair them through the pants, on the flat strand index."""
    pattern = validate(surface, coords)
    if 2 * sum(coords.q) > LAYOUT_NODES:
        return _build_layout(surface, coords.q, pattern, shared=False)
    return _shared_layout(surface, coords.q, pattern)


def _build_layout(surface: PantsDecomposition, q: tuple, pattern: tuple, shared: bool) -> Layout:
    """The layout of q with arc pattern `pattern`, its per-node sequences
    tuples if `shared`."""
    base = tuple(accumulate((2 * qi for qi in q), initial=0))
    size = base[-1]
    ids = list(range(size))
    windows: dict[tuple[int, int], range] = {
        (pants, slot): range(0) for pants in range(surface.pants_count) for slot in (0, 1, 2)
    }
    for g in surface.gluings:
        a, b, qi = base[g.curve], base[g.curve] + q[g.curve], q[g.curve]
        # end A lists strands 0 .. q-1 along its window, end B lists them backwards
        windows[g.end_a] = range(a, b)
        windows[g.end_b] = range(b + qi - 1, b - 1, -1)

    # window position k is id w0 + d*k, w0 the window's first id and d its
    # step (+1 at end A, -1 at end B), so positions lo .. hi-1 are the id slice
    # [w0 + d*lo : w0 + d*hi : d], or backwards [w0 + d*(hi-1) : w0 + d*(lo-1) : -d];
    # a stop at end B is base + q - 1 >= 0 or more, and at end A is -1, an
    # index from the end, only for a block read backwards down to id 0
    arc_mate = [0] * size
    traversal: list[Token] = [None] * size
    scc_out: list[range] = []
    for pants, counts in enumerate(pattern):
        scc, dcc = counts.scc, counts.dcc
        # the family from `slot` to its successor `other` counts dcc[third]
        for slot, other, third in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            s, n = scc[slot], dcc[third]
            window = windows[(pants, slot)]
            w0, d = window.start, window.step
            if s:
                # same-boundary arc k (1..s) runs from position s-k to s+n+k-1:
                # the outgoing block in order meets the returning one backwards
                out = slice(w0, w0 + d * s, d)
                back = slice(w0 + d * (2 * s + n - 1), w0 + d * (s + n - 1), -d)
                arc_mate[out] = ids[back]
                arc_mate[back] = ids[out]
                traversal[out] = [_scc_loop(pants, slot, -1)] * s
                traversal[back] = [_scc_loop(pants, slot, 1)] * s
                scc_out.append(window[:s])
            if n:
                # the family ends in `other`'s predecessor block, from its
                # position `first` on, paired in reversed order
                first = 2 * scc[other] + dcc[slot]
                far = windows[(pants, other)]
                o0, e = far.start, far.step
                stop = o0 + e * (first - 1)  # -1 only below id 0, read as None
                here = slice(w0 + d * s, w0 + d * (s + n), d)
                there = slice(o0 + e * (first + n - 1), stop if stop >= 0 else None, -e)
                arc_mate[here] = ids[there]
                arc_mate[there] = ids[here]
                traversal[here] = [_conn(pants, slot, other)] * n
                traversal[there] = [_conn(pants, other, slot)] * n
    if shared:
        ids, arc_mate = tuple(ids), tuple(arc_mate)
        traversal, scc_out = tuple(traversal), tuple(scc_out)
    return Layout(surface, pattern, base, ids, windows, arc_mate, traversal, scc_out)


# layouts of at most LAYOUT_NODES nodes are shared, the LAYOUT_CACHE used last
# kept, keyed by (surface, q, pattern): the pattern, a function of the other
# two, splits no entry and lets a miss reuse what ``validate`` computed
LAYOUT_NODES = 256
LAYOUT_CACHE = 256
_shared_layout = lru_cache(maxsize=LAYOUT_CACHE)(partial(_build_layout, shared=True))


@dataclass(frozen=True, slots=True)
class Matching:
    """Order-preserving constant-shift matching across every annulus.

    Per node: ``mate`` is the node across the annulus, ``crossing`` the
    token for leaving through the node's window and arriving at ``mate``;
    its ``twist`` is the signed wraps of the strand (the same at both ends).
    """

    shifts: tuple[int, ...]  # per curve, equals the window twist
    mate: list[int]
    crossing: list[Crossing]


def match_strands(layout: Layout, coords: DTCoords) -> Matching:
    """Match the strands across every annulus with the window twists of
    `coords`, whose q the layout was built for, read off its arc pattern;
    raises CoordError when the twists are not realizable."""
    phat = pattern_twists(layout.surface, coords, layout.pattern)
    size, ids = layout.base[-1], layout.ids
    mate = [0] * size
    crossing: list[Crossing] = [None] * size
    for g in layout.surface.gluings:
        i, q = g.curve, coords.q[g.curve]
        if q == 0:
            continue
        a, b = layout.base[i], layout.base[i] + q
        w, r = divmod(phat[i], q)
        # A-strand k meets B-strand (k + phat) % q after (k + phat) // q
        # wraps: A-strands 0 .. q-r-1 meet B-strands r .. q-1 after w wraps,
        # the last r A-strands meet B-strands 0 .. r-1 after w + 1
        mate[a:b - r] = ids[b + r:b + q]
        mate[b - r:b] = ids[b:b + r]
        mate[b:b + r] = ids[b - r:b]
        mate[b + r:b + q] = ids[a:b - r]
        crossing[a:b - r] = [_crossing(i, *g.end_a, *g.end_b, w)] * (q - r)
        crossing[b + r:b + q] = [_crossing(i, *g.end_b, *g.end_a, w)] * (q - r)
        if r:
            crossing[b - r:b] = [_crossing(i, *g.end_a, *g.end_b, w + 1)] * r
            crossing[b:b + r] = [_crossing(i, *g.end_b, *g.end_a, w + 1)] * r
    return Matching(phat, mate, crossing)


# (turn before, turn after, -2 * loop sign) no untwisted embedded return shows
_FORBIDDEN = (("succ", "succ", -2), ("pred", "pred", 2))


def _check_scc_arcs(layout: Layout, matching: Matching) -> None:
    """Reject flanking patterns that cannot come from an embedded curve.

    An untwisted same-slot return flanked by two predecessor turns must
    loop negatively, by two successor turns positively; the other signs
    would force a self-crossing, so hitting one means a bug upstream.
    Wraps re-bracket the loop, so twisted flanks may show any pattern.
    Each arc is checked once, entered at its outgoing end: a walk takes it
    once, and reversing it swaps the flanks, trades pred for succ, negates
    the sign and keeps both twists (one per strand), which maps
    ``_FORBIDDEN`` to itself.
    """
    mate, crossing = matching.mate, matching.crossing
    arc_mate, traversal = layout.arc_mate, layout.traversal
    # a traversal's turn is (out_slot - in_slot) % 3: 1 exits at its entry slot's
    # successor, 2 at its predecessor; a flanking return reads 2 before, 1 after
    turns = (None, "succ", "pred")
    for block in layout.scc_out:
        for p in block:
            back = arc_mate[p]
            if crossing[mate[p]].twist or crossing[back].twist:
                continue
            before = traversal[arc_mate[mate[p]]]
            after = traversal[mate[back]]
            v = 2 if isinstance(before, SccLoop) else (before.out_slot - before.in_slot) % 3
            u = 1 if isinstance(after, SccLoop) else (after.out_slot - after.in_slot) % 3
            pattern = (turns[v], turns[u], -2 * traversal[p].sign)
            if pattern in _FORBIDDEN:
                msg = f"non-embeddable same-slot return pattern {pattern}; layout bug upstream"
                raise AssertionError(msg)


def _spans(layout: Layout, q: tuple, shifts: tuple) -> list[tuple[int, int, int, int, int]]:
    """Per curve (see the strand index): the span of its ids, the wraps w
    of every strand, and the span of the ends of the r strands that wrap
    once more."""
    spans = []
    for lo, qi, shift in zip(layout.base, q, shifts):
        w, r = divmod(shift, qi) if qi else (0, 0)
        mid = lo + qi
        spans.append((lo, mid + qi, w, mid - r, mid + r))
    return spans


def _marked(seen: bytearray, spans: list) -> tuple[tuple, tuple]:
    """Per curve, the strands ``seen`` marks and their wraps, over the
    curve ``spans``."""
    strands, wraps = [], []
    for lo, hi, w, wrap_lo, wrap_hi in spans:
        k = seen.count(1, lo, hi) // 2
        strands.append(k)
        wraps.append(w * k + seen.count(1, wrap_lo, wrap_hi) // 2)
    return tuple(strands), tuple(wraps)


def extract_components(
    surface: PantsDecomposition, coords: DTCoords
) -> list[Component]:
    """Split the multicurve into connected components, each carrying its
    compiled word and its share of the coordinates.

    Each walk starts on the least unvisited node id and crosses through it;
    the strand index notes say how its q and phat are counted.
    """
    layout = layout_endpoints(surface, coords)
    matching = match_strands(layout, coords)
    _check_scc_arcs(layout, matching)
    mate, crossing = matching.mate, matching.crossing
    arc_mate, traversal = layout.arc_mate, layout.traversal
    xi = surface.xi
    done = None  # strands and wraps the earlier walks marked, as _marked counts
    spans = None  # _marked's curve spans, computed for the first walk that is not the last

    components: list[Component] = []
    seen = bytearray(len(mate))
    # a walk crosses at most once per strand, half the nodes, when the
    # matching is a permutation; a walk that does not close by then never will
    half = len(mate) // 2
    start = seen.find(0)
    while start >= 0:
        tokens: list[Token] = []
        append = tokens.append
        node = start
        for _ in repeat(None, half):
            partner = mate[node]
            seen[node] = seen[partner] = 1
            append(crossing[node])
            append(traversal[partner])
            node = arc_mate[partner]
            if node == start:
                break
        else:
            raise RuntimeError(
                f"the walk from node {start} does not close after {half} crossings:"
                " the strand matching is not a permutation"
            )
        start = seen.find(0, start + 1)
        if start >= 0:
            if spans is None:
                spans = _spans(layout, coords.q, matching.shifts)
            now = _marked(seen, spans)
        else:  # the last walk takes what the others left
            twists = (t if qi else 0 for qi, t in zip(coords.q, matching.shifts))
            now = tuple(coords.q), tuple(twists)
        q, phat = now if done is None else [tuple(map(sub, a, b)) for a, b in zip(now, done)]
        done = now
        components.append(Component(q, phat, Word(xi, tuple(tokens))))

    # components parallel to a pants curve: q = 0 there, p copies
    for i in range(xi):
        if coords.q[i] == 0 and coords.p[i] > 0:
            unit_q = (0,) * xi
            unit_p = tuple(1 if j == i else 0 for j in range(xi))
            parallel = Component(q=unit_q, phat=unit_p, word=None, parallel_to=i)
            components.extend([parallel] * coords.p[i])
    return components


def scc_count(surface: PantsDecomposition, coords: DTCoords) -> int:
    """Total number of same-boundary arcs over all pants."""
    h = 0
    for counts in validate(surface, coords):
        a, b, c = counts.scc
        h += a + b + c
    return h


# -- stable text form -------------------------------------------------------

def word_to_text(word: Word) -> str:
    """One line per token: its ``text``.  A token formats its line when it
    is built and keeps it in a slot, so an instance that several words
    share, of one ``extract_components`` call or, interned, of many, is
    formatted once, and printing a word formats nothing."""
    return "\n".join([tok.text for tok in word.tokens])
