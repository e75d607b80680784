"""Curve reconstruction: from coordinates to per-component holonomy words.

Every crossing of the curve with pants curve i is pushed into one short
window on that curve, so the curve is described by (a) an arc pattern inside
each pants, (b) the linear order of arc endpoints along each window, and
(c) an order-preserving matching with constant shift between the two sides
of each window annulus.  This module fixes those conventions, extracts
connected components, and compiles each component into a token word that the
holonomy engine evaluates.  Part (a) is the value ``dtcoords.validate``
returns: ``layout_endpoints`` validates once and keeps that pattern on the
``Layout``, and ``match_strands`` reads the window twists for (c) off it.

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
and the crossing that leaves through the node.  Every node of one window
block shares its traversal token and every strand end of one wrap run its
crossing token, and blocks and runs are contiguous id ranges, so each list
is filled by slice assignment, building each token once per non-empty
block or run.  Tokens are frozen values, so that one instance serves the
whole call.  The walk then only indexes lists and marks visited ids in a
``bytearray``.

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

from dataclasses import dataclass
from itertools import accumulate

from .dtcoords import ArcCounts, CoordError, DTCoords, pattern_twists, validate
from .surface import PantsDecomposition, parse_slot, pred, slot_name, succ

# connector classes for a traversal between distinct slots of one pants
TURN_PRED = "pred"  # exit slot is the entry slot's predecessor
TURN_SUCC = "succ"  # exit slot is the entry slot's successor


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Conn:
    """Traversal of a pants between two distinct slots (no holonomy factor
    of its own; the slot data lives in the adjacent crossings)."""

    pants: int
    in_slot: int
    out_slot: int

    def turn(self) -> str:
        if self.out_slot == pred(self.in_slot):
            return TURN_PRED
        if self.out_slot == succ(self.in_slot):
            return TURN_SUCC
        raise AssertionError("degenerate traversal")


@dataclass(frozen=True)
class SccLoop:
    """Same-slot return: the curve re-emerges from the window it entered,
    looping once around the slot's successor boundary with the given sign."""

    pants: int
    slot: int
    sign: int


Token = Crossing | Conn | SccLoop


@dataclass(frozen=True)
class Word:
    """Cyclic token word of one connected component, starting on a crossing
    and alternating crossing / traversal."""

    arity: int
    tokens: tuple[Token, ...]

    def crossings(self) -> list[Crossing]:
        return [t for t in self.tokens if isinstance(t, Crossing)]



@dataclass(frozen=True)
class Component:
    """One connected component of the reconstructed multicurve."""

    q: tuple[int, ...]
    phat: tuple[int, ...]
    word: Word | None  # None for a component parallel to a pants curve
    parallel_to: int | None = None


@dataclass
class Layout:
    """Endpoint layout of one coordinate vector on the flat strand index.

    ``pattern`` is the per-pants arc pattern ``validate`` returned for
    ``coords``.  Node ``(curve i, side, strand)`` has id
    ``base[i] + side * q[i] + strand``; ``base[-1]`` is the node count.
    ``windows`` maps every (pants, slot) to its node ids in window order.
    Per node: ``arc_mate`` is the other end of its pants arc, and
    ``traversal`` the token for arriving at it and leaving through
    ``arc_mate``: an ``SccLoop`` when both ends sit in one window, a
    ``Conn`` otherwise.
    """

    surface: PantsDecomposition
    coords: DTCoords
    pattern: tuple[ArcCounts, ...]
    base: tuple[int, ...]
    windows: dict[tuple[int, int], range]
    arc_mate: list[int]
    traversal: list[Token]

    def node(self, curve: int, side: int, strand: int) -> int:
        return self.base[curve] + side * self.coords.q[curve] + strand


def _at(ids: range) -> slice:
    """The list slice addressing the node ids of a window range, in order.

    A non-empty part of end B's window stops at ``base + q - 1 >= 0`` or
    later, so its stop never reads as an index from the end of the list.
    """
    return slice(ids.start, ids.stop, ids.step)


def layout_endpoints(surface: PantsDecomposition, coords: DTCoords) -> Layout:
    """Arrange all arc endpoints along the windows and pair them through
    the pants, on the flat strand index."""
    pattern = validate(surface, coords)
    q = coords.q
    base = tuple(accumulate((2 * qi for qi in q), initial=0))
    size = base[-1]
    windows: dict[tuple[int, int], range] = {
        (pants, slot): range(0) for pants in range(surface.pants_count) for slot in (0, 1, 2)
    }
    for g in surface.gluings:
        a, b, qi = base[g.curve], base[g.curve] + q[g.curve], q[g.curve]
        # end A lists strands 0 .. q-1 along its window, end B lists them backwards
        windows[g.end_a] = range(a, b)
        windows[g.end_b] = range(b + qi - 1, b - 1, -1)

    arc_mate = [0] * size
    traversal: list[Token] = [None] * size
    for pants, counts in enumerate(pattern):
        for slot in (0, 1, 2):
            ids = windows[(pants, slot)]
            s = counts.scc[slot]
            n = counts.dcc_between(slot, succ(slot))
            if s:
                # same-boundary arc k (1..s) runs from position s-k to s+n+k-1
                out, back = ids[:s], ids[s + n:2 * s + n]
                arc_mate[_at(out)] = back[::-1]
                arc_mate[_at(back)] = out[::-1]
                traversal[_at(out)] = [SccLoop(pants, slot, -1)] * s
                traversal[_at(back)] = [SccLoop(pants, slot, 1)] * s
            if n:
                # the family to the successor slot ends in that slot's
                # predecessor block, paired in reversed order
                other = succ(slot)
                first = 2 * counts.scc[other] + counts.dcc_between(other, succ(other))
                here, there = ids[s:s + n], windows[(pants, other)][first:first + n]
                arc_mate[_at(here)] = there[::-1]
                arc_mate[_at(there)] = here[::-1]
                traversal[_at(here)] = [Conn(pants, slot, other)] * n
                traversal[_at(there)] = [Conn(pants, other, slot)] * n
    return Layout(surface, coords, pattern, base, windows, arc_mate, traversal)


@dataclass(frozen=True)
class Matching:
    """Order-preserving constant-shift matching across every annulus.

    Per node: ``mate`` is the node across the annulus, ``crossing`` the
    token for leaving through the node's window and arriving at ``mate``;
    its ``twist`` is the signed wraps of the strand (the same at both ends).
    """

    shifts: tuple[int, ...]  # per curve, equals the window twist
    mate: list[int]
    crossing: list[Crossing]


def match_strands(layout: Layout) -> Matching:
    """Match the strands across every annulus with the window twists of the
    layout's arc pattern; raises CoordError when the twists are not
    realizable."""
    coords = layout.coords
    phat = pattern_twists(layout.surface, coords, layout.pattern)
    size = layout.base[-1]
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
        mate[a:b - r] = range(b + r, b + q)
        mate[b - r:b] = range(b, b + r)
        mate[b:b + r] = range(b - r, b)
        mate[b + r:b + q] = range(a, b - r)
        crossing[a:b - r] = [Crossing(i, *g.end_a, *g.end_b, w)] * (q - r)
        crossing[b + r:b + q] = [Crossing(i, *g.end_b, *g.end_a, w)] * (q - r)
        if r:
            crossing[b - r:b] = [Crossing(i, *g.end_a, *g.end_b, w + 1)] * r
            crossing[b:b + r] = [Crossing(i, *g.end_b, *g.end_a, w + 1)] * r
    return Matching(phat, mate, crossing)


def _check_scc_patterns(word: Word) -> None:
    """Reject flanking patterns that cannot come from an embedded curve.

    An untwisted same-slot return flanked by two predecessor turns must
    loop negatively, by two successor turns positively; the other two signs
    would force a self-crossing, so hitting one means the layout or the
    matching is wrong upstream.  The constraint only binds when neither
    flanking crossing carries twist: wraps re-bracket the loop and
    legitimately produce every pattern.  The walk emits (crossing,
    traversal) pairs, so same-slot returns sit at odd positions only.
    """
    toks = word.tokens
    n = len(toks)
    for idx in range(1, n, 2):
        tok = toks[idx]
        if not isinstance(tok, SccLoop):
            continue
        cross_in = toks[(idx - 1) % n]
        cross_out = toks[(idx + 1) % n]
        if cross_in.twist != 0 or cross_out.twist != 0:
            continue
        before = toks[(idx - 2) % n]
        after = toks[(idx + 2) % n]
        v = TURN_PRED if isinstance(before, SccLoop) else before.turn()
        u = TURN_SUCC if isinstance(after, SccLoop) else after.turn()
        y = -2 * tok.sign
        if (v, u, y) in ((TURN_SUCC, TURN_SUCC, -2), (TURN_PRED, TURN_PRED, 2)):
            raise AssertionError(
                f"non-embeddable same-slot return pattern {(v, u, y)}; "
                "layout bug upstream"
            )


def extract_components(
    surface: PantsDecomposition, coords: DTCoords
) -> list[Component]:
    """Split the multicurve into connected components, each carrying its
    compiled word and its share of the coordinates.

    Each walk starts on the least unvisited node id and crosses through it.
    """
    layout = layout_endpoints(surface, coords)
    matching = match_strands(layout)
    mate, crossing = matching.mate, matching.crossing
    arc_mate, traversal = layout.arc_mate, layout.traversal
    xi = surface.xi

    components: list[Component] = []
    seen = bytearray(len(mate))
    start = seen.find(0)
    while start >= 0:
        tokens: list[Token] = []
        q = [0] * xi
        phat = [0] * xi
        node = start
        while True:
            partner = mate[node]
            seen[node] = seen[partner] = 1
            cross = crossing[node]
            q[cross.curve] += 1
            phat[cross.curve] += cross.twist
            tokens.append(cross)
            tokens.append(traversal[partner])
            node = arc_mate[partner]
            if node == start:
                break
        word = Word(xi, tuple(tokens))
        _check_scc_patterns(word)
        components.append(Component(q=tuple(q), phat=tuple(phat), word=word))
        start = seen.find(0, start + 1)

    # components parallel to a pants curve: q = 0 there, p copies
    for i in range(xi):
        if coords.q[i] == 0 and coords.p[i] > 0:
            unit_q = (0,) * xi
            unit_p = tuple(1 if j == i else 0 for j in range(xi))
            for _ in range(coords.p[i]):
                components.append(
                    Component(q=unit_q, phat=unit_p, word=None, parallel_to=i)
                )
    return components


def scc_count(surface: PantsDecomposition, coords: DTCoords) -> int:
    """Total number of same-boundary arcs over all pants."""
    return sum(counts.total_scc() for counts in validate(surface, coords))


# -- stable text form -------------------------------------------------------

def _token_text(tok: Token) -> str:
    if isinstance(tok, Crossing):
        return (
            f"cross c={tok.curve + 1} out=({tok.out_pants},{slot_name(tok.out_slot)})"
            f" in=({tok.in_pants},{slot_name(tok.in_slot)}) t={tok.twist}"
        )
    if isinstance(tok, Conn):
        return f"conn p={tok.pants} in={slot_name(tok.in_slot)} out={slot_name(tok.out_slot)}"
    return f"loop p={tok.pants} slot={slot_name(tok.slot)} s={tok.sign:+d}"


def word_to_text(word: Word) -> str:
    """One line per token.  Compiled words share one instance per distinct
    token, so each instance is formatted once, looked up by its id."""
    tokens = word.tokens
    by_id = dict(zip(map(id, tokens), tokens))
    text = {key: _token_text(tok) for key, tok in by_id.items()}
    return "\n".join(map(text.__getitem__, map(id, tokens)))


def _parse_end(text: str) -> tuple[int, int]:
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ValueError(text)
    pants, slot = inner[1:-1].split(",")
    return int(pants), parse_slot(slot)


# per kind of token line: the fields it must carry, in token order, each
# with its reader
_TOKEN_FIELDS = {
    "cross": (("c", int), ("out", _parse_end), ("in", _parse_end), ("t", int)),
    "conn": (("p", int), ("in", parse_slot), ("out", parse_slot)),
    "loop": (("p", int), ("slot", parse_slot), ("s", int)),
}


def word_from_text(arity: int, text: str) -> Word:
    tokens: list[Token] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *parts = line.split()
        if kind not in _TOKEN_FIELDS:
            raise CoordError(f"unknown word token {kind!r}")
        fields = {}
        for part in parts:
            key, eq, value = part.partition("=")
            if not eq:
                raise CoordError(f"{kind} token: bad part {part!r}, expected key=value")
            fields[key] = value
        values = []
        for key, read in _TOKEN_FIELDS[kind]:
            if key not in fields:
                raise CoordError(f"{kind} token: missing field {key!r}")
            try:
                values.append(read(fields[key]))
            except ValueError:
                raise CoordError(
                    f"{kind} token: field {key!r} has bad value {fields[key]!r}"
                ) from None
        if kind == "cross":
            curve, out, into, twist = values
            tokens.append(Crossing(curve - 1, *out, *into, twist))
        elif kind == "conn":
            tokens.append(Conn(*values))
        else:
            tokens.append(SccLoop(*values))
    return Word(arity, tuple(tokens))
