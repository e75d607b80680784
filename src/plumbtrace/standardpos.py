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

from .dtcoords import ArcCounts, CoordError, DTCoords, pattern_twists, validate
from .surface import PantsDecomposition, pred, slot_name, succ

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

    def q_vector(self) -> tuple[int, ...]:
        q = [0] * self.arity
        for c in self.crossings():
            q[c.curve] += 1
        return tuple(q)

    def twist_vector(self) -> tuple[int, ...]:
        tw = [0] * self.arity
        for c in self.crossings():
            tw[c.curve] += c.twist
        return tuple(tw)


@dataclass(frozen=True)
class Component:
    """One connected component of the reconstructed multicurve."""

    q: tuple[int, ...]
    phat: tuple[int, ...]
    word: Word | None  # None for a component parallel to a pants curve
    parallel_to: int | None = None


@dataclass(frozen=True)
class PantsArc:
    """An arc of the curve inside one pants.  Endpoints are (slot, window
    position); for scc arcs end_out starts the loop and end_in returns."""

    pants: int
    kind: str  # "dcc" | "scc"
    end_out: tuple[int, int]
    end_in: tuple[int, int]


# a node is one window endpoint, identified curve-side: (curve, side, strand)
Node = tuple[int, int, int]


@dataclass
class Layout:
    """Endpoint layout plus derived pairings for one coordinate vector.

    ``pattern`` is the per-pants arc pattern ``validate`` returned for
    ``coords``; the arcs and windows are built from it.
    """

    surface: PantsDecomposition
    coords: DTCoords
    pattern: tuple[ArcCounts, ...]
    arcs: list[PantsArc]
    windows: dict[tuple[int, int], list[tuple]]  # (pants, slot) -> descriptors
    node_at: dict[tuple[int, int, int], Node]  # (pants, slot, pos) -> node
    window_of: dict[Node, tuple[int, int, int]]  # node -> (pants, slot, pos)
    arc_step: dict[Node, tuple[Node, PantsArc]] = field(default_factory=dict)


def _pants_arcs(pants: int, counts: ArcCounts) -> tuple[list[PantsArc], dict[int, list[tuple]]]:
    """Arcs and window descriptor lists for one pants."""
    arcs: list[PantsArc] = []
    windows: dict[int, list[tuple]] = {}

    def blocks(slot: int) -> tuple[int, int, int]:
        s = counts.scc[slot]
        return s, counts.dcc_between(slot, succ(slot)), counts.dcc_between(slot, pred(slot))

    for slot in (0, 1, 2):
        s, nsucc, npred = blocks(slot)
        desc: list[tuple] = [None] * (2 * s + nsucc + npred)
        for k in range(1, s + 1):
            desc[s - k] = ("scc_out", k)
            desc[s + nsucc + k - 1] = ("scc_in", k)
        for m in range(nsucc):
            desc[s + m] = ("dcc", succ(slot), m)
        for m in range(npred):
            desc[2 * s + nsucc + m] = ("dcc", pred(slot), m)
        windows[slot] = desc

    for slot in (0, 1, 2):
        s, nsucc, _ = blocks(slot)
        for k in range(1, s + 1):
            arcs.append(
                PantsArc(
                    pants,
                    "scc",
                    end_out=(slot, s - k),
                    end_in=(slot, s + nsucc + k - 1),
                )
            )
        # the family between `slot` and its successor, paired in reversed order
        other = succ(slot)
        n = nsucc
        so, ns_o, _ = blocks(other)
        pred_base = 2 * so + ns_o
        for m in range(n):
            arcs.append(
                PantsArc(
                    pants,
                    "dcc",
                    end_out=(slot, s + m),
                    end_in=(other, pred_base + (n - 1 - m)),
                )
            )
    return arcs, windows


def layout_endpoints(surface: PantsDecomposition, coords: DTCoords) -> Layout:
    """Arrange all arc endpoints along the windows and pair them through
    the pants; also translate window positions into curve-side nodes."""
    pattern = validate(surface, coords)
    arcs: list[PantsArc] = []
    windows: dict[tuple[int, int], list[tuple]] = {}
    for pants, counts in enumerate(pattern):
        pa, wd = _pants_arcs(pants, counts)
        arcs.extend(pa)
        for slot, desc in wd.items():
            windows[(pants, slot)] = desc

    node_at: dict[tuple[int, int, int], Node] = {}
    window_of: dict[Node, tuple[int, int, int]] = {}
    for g in surface.gluings:
        q = coords.q[g.curve]
        for side, (pants, slot) in enumerate((g.end_a, g.end_b)):
            for pos in range(q):
                strand = pos if side == 0 else q - 1 - pos
                node = (g.curve, side, strand)
                node_at[(pants, slot, pos)] = node
                window_of[node] = (pants, slot, pos)

    layout = Layout(surface, coords, pattern, arcs, windows, node_at, window_of)
    for arc in arcs:
        a = node_at[(arc.pants,) + arc.end_out]
        b = node_at[(arc.pants,) + arc.end_in]
        layout.arc_step[a] = (b, arc)
        layout.arc_step[b] = (a, arc)
    return layout


@dataclass(frozen=True)
class Matching:
    """Order-preserving constant-shift matching across every annulus."""

    shifts: tuple[int, ...]  # per curve, equals the window twist
    step: dict[Node, tuple[Node, int]]  # node -> (partner, signed wraps)


def match_strands(layout: Layout) -> Matching:
    """Match the strands across every annulus with the window twists of the
    layout's arc pattern; raises CoordError when the twists are not
    realizable."""
    coords = layout.coords
    phat = pattern_twists(layout.surface, coords, layout.pattern)
    step: dict[Node, tuple[Node, int]] = {}
    for i in range(coords.xi):
        q = coords.q[i]
        if q == 0:
            continue
        for k in range(q):
            j = (k + phat[i]) % q
            wrap = (k + phat[i]) // q
            step[(i, 0, k)] = ((i, 1, j), wrap)
            step[(i, 1, j)] = ((i, 0, k), wrap)
    return Matching(phat, step)


def _walk(layout: Layout, matching: Matching, start: Node) -> tuple[list[Token], set[Node]]:
    tokens: list[Token] = []
    seen: set[Node] = set()
    node = start
    while True:
        seen.add(node)
        partner, wrap = matching.step[node]
        seen.add(partner)
        op, os_, _ = layout.window_of[node]
        ip, is_, _ = layout.window_of[partner]
        tokens.append(Crossing(node[0], op, os_, ip, is_, wrap))
        nxt, arc = layout.arc_step[partner]
        pp, ps, ppos = layout.window_of[partner]
        np_, ns, npos = layout.window_of[nxt]
        if ps == ns:
            arrived_at_in = (ps, ppos) == arc.end_in
            tokens.append(SccLoop(pp, ps, +1 if arrived_at_in else -1))
        else:
            tokens.append(Conn(pp, ps, ns))
        node = nxt
        if node == start:
            return tokens, seen


def _check_scc_patterns(word: Word) -> None:
    """Reject flanking patterns that cannot come from an embedded curve.

    An untwisted same-slot return flanked by two predecessor turns must
    loop negatively, by two successor turns positively; the other two signs
    would force a self-crossing, so hitting one means the layout or the
    matching is wrong upstream.  The constraint only binds when neither
    flanking crossing carries twist: wraps re-bracket the loop and
    legitimately produce every pattern.
    """
    toks = word.tokens
    n = len(toks)
    for idx, tok in enumerate(toks):
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
    compiled word and its share of the coordinates."""
    layout = layout_endpoints(surface, coords)
    matching = match_strands(layout)
    xi = surface.xi

    components: list[Component] = []
    visited: set[Node] = set()
    for node in sorted(matching.step):
        if node in visited:
            continue
        tokens, seen = _walk(layout, matching, node)
        visited |= seen
        word = Word(xi, tuple(tokens))
        _check_scc_patterns(word)
        components.append(
            Component(q=word.q_vector(), phat=word.twist_vector(), word=word)
        )

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

def word_to_text(word: Word) -> str:
    lines = []
    for tok in word.tokens:
        if isinstance(tok, Crossing):
            lines.append(
                f"cross c={tok.curve + 1} out=({tok.out_pants},{slot_name(tok.out_slot)})"
                f" in=({tok.in_pants},{slot_name(tok.in_slot)}) t={tok.twist}"
            )
        elif isinstance(tok, Conn):
            lines.append(
                f"conn p={tok.pants} in={slot_name(tok.in_slot)}"
                f" out={slot_name(tok.out_slot)}"
            )
        else:
            lines.append(
                f"loop p={tok.pants} slot={slot_name(tok.slot)} s={tok.sign:+d}"
            )
    return "\n".join(lines)


def _parse_end(text: str) -> tuple[int, int]:
    from .surface import parse_slot

    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise CoordError(f"bad window {text!r}")
    pants, slot = inner[1:-1].split(",")
    return int(pants), parse_slot(slot)


def word_from_text(arity: int, text: str) -> Word:
    from .surface import parse_slot

    tokens: list[Token] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *parts = line.split()
        fields = dict(p.split("=", 1) for p in parts)
        if kind == "cross":
            op, os_ = _parse_end(fields["out"])
            ip, is_ = _parse_end(fields["in"])
            tokens.append(
                Crossing(int(fields["c"]) - 1, op, os_, ip, is_, int(fields["t"]))
            )
        elif kind == "conn":
            tokens.append(
                Conn(int(fields["p"]), parse_slot(fields["in"]), parse_slot(fields["out"]))
            )
        elif kind == "loop":
            tokens.append(
                SccLoop(int(fields["p"]), parse_slot(fields["slot"]), int(fields["s"]))
            )
        else:
            raise CoordError(f"unknown word token {kind!r}")
    return Word(arity, tuple(tokens))
