"""Chord-diagram embedding oracle, trace-signature scan, star-twist check.

The oracle re-checks the compiler's combinatorial output by geometric
means it does not share with the nesting logic: it realizes every pants arc
as chords in the two hexagon disks of the pants (windows and seams as disk
boundary edges), realizes every matching strand in the infinite-strip cover
of its annulus, detects crossings by endpoint interleaving, and counts
components by walking the endpoint permutation.  A layout or matching bug
upstream shows up as a chord crossing or a component-count mismatch.

The oracle takes only the arc pattern (``validate``), the slot arithmetic
and the layout and matching under test from the package.  It locates every
node through the layout's ``windows`` lists, never through the flat strand
index, so window lists that disagree with the arc pairing or the matching
show up as crossings.

``injectivity_scan`` groups sampled curves by their trace signatures, and
``p_star_check`` checks a word's traversal turns against the twist
conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from plumbtrace.dtcoords import ArcCounts, CoordError, DTCoords, validate
from plumbtrace.holonomy import WordError, trace_of_curve
from plumbtrace.standardpos import (
    Conn,
    Crossing,
    Layout,
    Matching,
    SccLoop,
    Word,
    layout_endpoints,
    match_strands,
)
from plumbtrace.surface import Gluing, PantsDecomposition, pred, succ


@dataclass
class OracleReport:
    simple: bool
    components: int
    crossing_pairs: list[tuple]


def _interleaved(circuit_pos: dict, chord1: tuple, chord2: tuple) -> bool:
    """Two chords of one disk cross iff their endpoints interleave along
    the boundary circuit."""
    a1, b1 = circuit_pos[chord1[0]], circuit_pos[chord1[1]]
    c1, c2 = circuit_pos[chord2[0]], circuit_pos[chord2[1]]
    lo, hi = min(a1, b1), max(a1, b1)
    inside1 = lo < c1 < hi
    inside2 = lo < c2 < hi
    return inside1 != inside2


def _pants_disks(counts: ArcCounts, layout: Layout, where: dict, pants: int):
    """Chords and boundary circuits of the two hexagon disks of one pants
    whose arc pattern is `counts`.

    Point names: ("w", slot, pos) window points, ("s", a, b, k) the k-th
    crossing point on the seam between slots a and b (a -> succ(a) order).
    Window positions are read off `where`, node -> (window, position); a
    same-boundary arc starts its loop at its end nearer the window's 0 end.
    """
    # at most one slot of a pants carries same-boundary arcs
    scc_slot = next((s for s, n in enumerate(counts.scc) if n), None)
    s_count = counts.scc[scc_slot] if scc_slot is not None else 0

    # seam crossing points, ordered from the lower-slot end of each seam
    seam_points: dict[tuple[int, int], list] = {}
    for a in (0, 1, 2):
        b = succ(a)
        pts = []
        if scc_slot is not None:
            if a == scc_slot:  # outgoing crossings, outermost (window pos 0) first
                pts = [("s", a, b, k) for k in range(s_count, 0, -1)]
            elif a == succ(scc_slot):  # returning crossings, innermost first
                pts = [("s", a, b, k) for k in range(1, s_count + 1)]
        seam_points[(a, b)] = pts

    white_circuit: list = []
    for slot in (0, 1, 2):
        ids = layout.windows[(pants, slot)]
        white_circuit.extend(("w", slot, pos) for pos in range(len(ids) - 1, -1, -1))
        white_circuit.extend(seam_points[(slot, succ(slot))])

    black_circuit: list = []
    for slot in (0, 2, 1):  # mirrored cusp order; seams traversed backwards
        black_circuit.extend(reversed(seam_points[(pred(slot), slot)]))
    # (black horocycle edges carry no points)

    def end(node: int) -> tuple[int, int]:
        """(slot, window position) of a node."""
        (_, slot), pos = where[node]
        return slot, pos

    white_chords: list[tuple] = []
    black_chords: list[tuple] = []
    scc_seen = 0
    for slot in (0, 1, 2):
        for node in layout.windows[(pants, slot)]:
            mate = layout.arc_mate[node]
            if mate < node:  # each arc once; a dropped arc has no mate
                continue
            here, there = end(node), end(mate)
            if here[0] != there[0]:
                white_chords.append((("w",) + here, ("w",) + there))
                continue
            scc_seen += 1
            out, back = min(here, there), max(here, there)
            k = s_count - out[1]  # window pos s-k for arc k
            first = ("s", slot, succ(slot), k)
            second = ("s", succ(slot), succ(succ(slot)), k)
            white_chords.append((("w",) + out, first))
            white_chords.append((second, ("w",) + back))
            black_chords.append((first, second))
    if scc_seen != sum(counts.scc):
        raise RuntimeError(
            f"pants {pants}: layout has {scc_seen} same-boundary arcs, "
            f"arc counts give {sum(counts.scc)}"
        )

    return (white_circuit, white_chords), (black_circuit, black_chords)


def _disk_crossings(circuit: list, chords: list[tuple]) -> list[tuple]:
    pos = {pt: k for k, pt in enumerate(circuit)}
    bad = []
    for i in range(len(chords)):
        for j in range(i + 1, len(chords)):
            if set(chords[i]) & set(chords[j]):
                continue
            if _interleaved(pos, chords[i], chords[j]):
                bad.append((chords[i], chords[j]))
    return bad


def _annulus_crossings(
    coords, layout: Layout, matching: Matching, where: dict, gluing: Gluing
) -> list[tuple]:
    """Strand crossings in the infinite-strip cover of one window annulus.

    The strands are read off the A-side window list and their partners
    located through `where`, the inverted window lists (not the node
    numbering), so a corrupted bridge between the two shows up here as a
    crossing.
    """
    curve = gluing.curve
    q = coords.q[curve]
    period = q + 1  # one spare cell where the transversal arc lives

    strands = []
    for pos, node in enumerate(layout.windows[gluing.end_a]):
        partner, wrap = matching.mate[node], matching.crossing[node].twist
        _, partner_pos = where[partner]
        strands.append((pos, (q - 1 - partner_pos) + wrap * period, wrap))
    span = max((abs(w) for _, _, w in strands), default=0) + 2
    bad = []
    for i in range(len(strands)):
        for j in range(i + 1, len(strands)):
            u1, v1, _ = strands[i]
            u2, v2, _ = strands[j]
            for n in range(-span, span + 1):
                du = u1 - (u2 + n * period)
                dv = v1 - (v2 + n * period)
                if du * dv < 0:
                    bad.append(((curve, i), (curve, j), n))
                    break
    return bad


def _component_count(layout: Layout, matching: Matching, coords: DTCoords) -> int:
    nodes = set(range(len(matching.mate)))
    count = 0
    while nodes:
        count += 1
        start = min(nodes)
        node = start
        while True:
            nodes.discard(node)
            partner = matching.mate[node]
            nodes.discard(partner)
            node = layout.arc_mate[partner]
            if node == start:
                break
    count += sum(p for q, p in zip(coords.q, coords.p) if q == 0)
    return count


def oracle_check(
    surface: PantsDecomposition,
    coords: DTCoords,
    layout: Layout | None = None,
    matching: Matching | None = None,
) -> OracleReport:
    """Embedding verdict and component count for one coordinate vector.

    Passing an explicit layout/matching lets negative controls corrupt the
    data and watch the oracle object.  The arc pattern is recomputed from
    the coordinates, never read off the layout under test.  Strand ends are
    located through the layout's ``windows`` lists, inverted once into
    node -> (window, position), not through the node numbering, so window
    lists that disagree with the arc pairing or the matching show up as
    crossings.
    """
    pattern = validate(surface, coords)
    if layout is None:
        layout = layout_endpoints(surface, coords)
    if matching is None:
        matching = match_strands(layout, coords)
    where = {
        node: (window, pos)
        for window, ids in layout.windows.items()
        for pos, node in enumerate(ids)
    }

    crossing_pairs: list[tuple] = []
    for pants, counts in enumerate(pattern):
        for circuit, chords in _pants_disks(counts, layout, where, pants):
            crossing_pairs.extend(_disk_crossings(circuit, chords))
    for gluing in surface.gluings:
        if coords.q[gluing.curve]:
            crossing_pairs.extend(
                _annulus_crossings(coords, layout, matching, where, gluing)
            )

    return OracleReport(
        simple=not crossing_pairs,
        components=_component_count(layout, matching, coords),
        crossing_pairs=crossing_pairs,
    )


def injectivity_scan(
    surface: PantsDecomposition, samples: list[DTCoords]
) -> dict[tuple, list[DTCoords]]:
    """Group distinct coordinate vectors by their multiset of component
    traces; any group with two members is a collision to review (trace
    tuples are not claimed to separate curves, so this flags, not fails)."""
    buckets: dict[tuple, list[DTCoords]] = {}
    for coords in samples:
        signature = tuple(
            sorted(str(t) for _, t in trace_of_curve(surface, coords))
        )
        buckets.setdefault(signature, []).append(coords)
    return {
        sig: group
        for sig, group in buckets.items()
        if len({(c.q, c.p) for c in group}) > 1
    }


# -- star-twist consistency check -------------------------------------------

def p_star_check(
    word: Word, p: tuple[int, ...], phat: tuple[int, ...]
) -> dict[int, tuple[int, int]]:
    """Consistency of connector context against the twist conversion.

    For a connected word without same-slot returns, each crossing picks up a
    context correction from its two neighbouring traversals: +1 when the
    following traversal turns to the predecessor slot, +1 when the preceding
    traversal turns to the successor slot.  Summing over the crossings of
    curve i must give exactly 2*phat_i + q_i - p_i.  Returns
    {curve: (lhs, rhs)}.  Raises CoordError on mismatch or on words with
    same-slot returns, and WordError on a crossing not flanked by traversals.
    """
    toks = word.tokens
    n = len(toks)
    if any(isinstance(t, SccLoop) for t in toks):
        raise CoordError("star-twist check applies to words without same-slot returns")
    kappa = [0] * word.arity
    q = [0] * word.arity
    for idx, tok in enumerate(toks):
        if not isinstance(tok, Crossing):
            continue
        before = toks[(idx - 1) % n]
        after = toks[(idx + 1) % n]
        if not (isinstance(before, Conn) and isinstance(after, Conn)):
            raise WordError(f"crossing at token {idx} is not flanked by traversals")
        kappa[tok.curve] += after.out_slot == pred(after.in_slot)
        kappa[tok.curve] += before.out_slot == succ(before.in_slot)
        q[tok.curve] += 1
    out: dict[int, tuple[int, int]] = {}
    for i in range(word.arity):
        if q[i] == 0:
            continue
        lhs = p[i] + kappa[i]
        rhs = 2 * phat[i] + q[i]
        out[i] = (lhs, rhs)
        if lhs != rhs:
            raise CoordError(
                f"curve {i}: context corrections {kappa[i]} inconsistent with "
                f"twist conversion ({lhs} != {rhs})"
            )
    return out
