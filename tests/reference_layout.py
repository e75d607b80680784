"""Reference curve reconstruction on dicts keyed by tuples.

This is the endpoint layout, strand matching and walk that
``plumbtrace.standardpos`` used before it moved to one flat strand index.
It shares none of that index's code: windows are lists of position
descriptors, arcs are explicit objects, nodes are ``(curve, side, strand)``
tuples, and every map is a dict.  Only the arc pattern (``validate``), the
window twists (``pattern_twists``) and the token value types are taken
from the package, so the differential test in ``test_reference_layout.py``
compares two independent implementations of the same conventions (see the
``standardpos`` module docstring).  ``check_scc_patterns`` scans the words
for the flanking patterns the package rejects arc by arc, from the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from plumbtrace.dtcoords import ArcCounts, DTCoords, pattern_twists, validate
from plumbtrace.standardpos import (
    Component,
    Conn,
    Crossing,
    SccLoop,
    Token,
    Word,
)
from plumbtrace.surface import PantsDecomposition, pred, slot_name, succ

Node = tuple[int, int, int]  # (curve, side, strand)


@dataclass(frozen=True)
class PantsArc:
    """An arc inside one pants.  Endpoints are (slot, window position); for
    same-boundary arcs end_out starts the loop and end_in returns."""

    pants: int
    kind: str  # "dcc" | "scc"
    end_out: tuple[int, int]
    end_in: tuple[int, int]


@dataclass
class RefLayout:
    arcs: list[PantsArc]
    windows: dict[tuple[int, int], list[tuple]]  # (pants, slot) -> descriptors
    node_at: dict[tuple[int, int, int], Node]  # (pants, slot, pos) -> node
    window_of: dict[Node, tuple[int, int, int]]  # node -> (pants, slot, pos)
    arc_step: dict[Node, tuple[Node, PantsArc]]


def _pants_arcs(pants: int, counts: ArcCounts) -> tuple[list[PantsArc], dict[int, list[tuple]]]:
    arcs: list[PantsArc] = []
    windows: dict[int, list[tuple]] = {}

    def blocks(slot: int) -> tuple[int, int, int]:
        s = counts.scc[slot]
        return s, counts.dcc[3 - slot - succ(slot)], counts.dcc[3 - slot - pred(slot)]

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
            arcs.append(PantsArc(pants, "scc", (slot, s - k), (slot, s + nsucc + k - 1)))
        other = succ(slot)
        so, ns_o, _ = blocks(other)
        pred_base = 2 * so + ns_o
        for m in range(nsucc):
            arcs.append(PantsArc(pants, "dcc", (slot, s + m), (other, pred_base + (nsucc - 1 - m))))
    return arcs, windows


def reference_layout(surface: PantsDecomposition, coords: DTCoords) -> tuple[RefLayout, tuple]:
    """The layout and the arc pattern it was built from."""
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
                node = (g.curve, side, pos if side == 0 else q - 1 - pos)
                node_at[(pants, slot, pos)] = node
                window_of[node] = (pants, slot, pos)

    arc_step: dict[Node, tuple[Node, PantsArc]] = {}
    for arc in arcs:
        a = node_at[(arc.pants,) + arc.end_out]
        b = node_at[(arc.pants,) + arc.end_in]
        arc_step[a] = (b, arc)
        arc_step[b] = (a, arc)
    return RefLayout(arcs, windows, node_at, window_of, arc_step), pattern


def reference_matching(
    surface: PantsDecomposition, coords: DTCoords, pattern: tuple
) -> dict[Node, tuple[Node, int]]:
    """node -> (partner across the annulus, signed wraps)."""
    phat = pattern_twists(surface, coords, pattern)
    step: dict[Node, tuple[Node, int]] = {}
    for i, q in enumerate(coords.q):
        for k in range(q):
            j = (k + phat[i]) % q
            wrap = (k + phat[i]) // q
            step[(i, 0, k)] = ((i, 1, j), wrap)
            step[(i, 1, j)] = ((i, 0, k), wrap)
    return step


def _walk(layout: RefLayout, step: dict, start: Node) -> tuple[list[Token], set[Node]]:
    tokens: list[Token] = []
    seen: set[Node] = set()
    node = start
    while True:
        seen.add(node)
        partner, wrap = step[node]
        seen.add(partner)
        op, os_, _ = layout.window_of[node]
        ip, is_, _ = layout.window_of[partner]
        tokens.append(Crossing(node[0], op, os_, ip, is_, wrap))
        nxt, arc = layout.arc_step[partner]
        pp, ps, ppos = layout.window_of[partner]
        _, ns, _ = layout.window_of[nxt]
        if ps == ns:
            tokens.append(SccLoop(pp, ps, +1 if (ps, ppos) == arc.end_in else -1))
        else:
            tokens.append(Conn(pp, ps, ns))
        node = nxt
        if node == start:
            return tokens, seen


def reference_components(surface: PantsDecomposition, coords: DTCoords) -> list[Component]:
    """Components in the order ``extract_components`` promises: walks
    started from the least unvisited node in tuple order, then the copies
    parallel to pants curves."""
    layout, pattern = reference_layout(surface, coords)
    step = reference_matching(surface, coords, pattern)
    xi = surface.xi
    components: list[Component] = []
    visited: set[Node] = set()
    for node in sorted(step):
        if node in visited:
            continue
        tokens, seen = _walk(layout, step, node)
        visited |= seen
        q = [0] * xi
        phat = [0] * xi
        for tok in tokens:
            if isinstance(tok, Crossing):
                q[tok.curve] += 1
                phat[tok.curve] += tok.twist
        components.append(Component(tuple(q), tuple(phat), Word(xi, tuple(tokens))))
    for i in range(xi):
        if coords.q[i] == 0:
            unit_p = tuple(1 if j == i else 0 for j in range(xi))
            for _ in range(coords.p[i]):
                components.append(Component((0,) * xi, unit_p, None, parallel_to=i))
    return components


def reference_text(word: Word) -> str:
    """The word's text form, formatted token by token."""
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
            lines.append(f"loop p={tok.pants} slot={slot_name(tok.slot)} s={tok.sign:+d}")
    return "\n".join(lines)


def turn(conn: Conn) -> str:
    """"pred" or "succ": the neighbour of its entry slot a traversal exits at."""
    if conn.out_slot == pred(conn.in_slot):
        return "pred"
    if conn.out_slot == succ(conn.in_slot):
        return "succ"
    raise AssertionError(f"degenerate traversal {conn.text!r}")


def check_scc_patterns(word: Word) -> None:
    """Reject flanking patterns that cannot come from an embedded curve,
    scanning every token of one word.

    An untwisted same-slot return flanked by two predecessor turns must
    loop negatively, by two successor turns positively; the other two signs
    would force a self-crossing, so hitting one means the layout or the
    matching is wrong upstream.  The constraint only binds when neither
    flanking crossing carries twist: wraps re-bracket the loop and
    legitimately produce every pattern.  The walk emits (crossing,
    traversal) pairs, so same-slot returns sit at odd positions only.

    The package checks each same-boundary arc once, from the layout; this
    scan of the words is the reference for that check.
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
        v = "pred" if isinstance(before, SccLoop) else turn(before)
        u = "succ" if isinstance(after, SccLoop) else turn(after)
        y = -2 * tok.sign
        if (v, u, y) in (("succ", "succ", -2), ("pred", "pred", 2)):
            raise AssertionError(
                f"non-embeddable same-slot return pattern {(v, u, y)}; "
                "layout bug upstream"
            )
