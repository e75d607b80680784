"""Random admissible coordinates and an independent embedding oracle.

The sampler draws intersection vectors uniformly, rejecting until every
pants has an even total, then draws twists and repairs each one into the
realizable parity class (for fixed q the realizable twists about a curve
fill one class mod 2, read off the arc pattern).  Samples are deterministic
per seed and drawn whole before they are returned.

The oracle re-checks the compiler's combinatorial output by geometric
means it does not share with the nesting logic: it realizes every pants arc
as chords in the two hexagon disks of the pants (windows and seams as disk
boundary edges), realizes every matching strand in the infinite-strip cover
of its annulus, detects crossings by endpoint interleaving, and counts
components by walking the endpoint permutation.  A layout or matching bug
upstream shows up as a chord crossing or a component-count mismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dtcoords import ArcCounts, CoordError, DTCoords, twist_correction, validate
from .standardpos import Layout, Matching, extract_components, layout_endpoints, match_strands
from .surface import PantsDecomposition, pred, succ


@dataclass(frozen=True)
class FuzzConfig:
    surface: PantsDecomposition
    seed: int = 0
    max_q: int = 6
    max_abs_p: int = 8
    count: int = 100
    connected_only: bool = False


def _sample_q(rng: random.Random, surface: PantsDecomposition, max_q: int) -> tuple[int, ...]:
    for _ in range(100_000):
        q = tuple(rng.randint(0, max_q) for _ in range(surface.xi))
        ok = True
        for pants in range(surface.pants_count):
            data = surface.boundary_data(pants)
            total = sum(q[c] for c in data.values() if c is not None)
            if total % 2:
                ok = False
                break
        if ok:
            return q
    raise CoordError("could not sample an even intersection vector")


def _repair_p(surface: PantsDecomposition, q: tuple[int, ...], p: list[int]) -> tuple[int, ...]:
    # the arc pattern depends on q alone
    pattern = validate(surface, DTCoords(q, (0,) * surface.xi))
    out = list(p)
    for i in range(surface.xi):
        if q[i] == 0:
            out[i] = abs(out[i])
        else:
            num = out[i] - q[i] + twist_correction(surface, pattern, i)
            if num % 2:
                out[i] += 1
    return tuple(out)


def random_coords(cfg: FuzzConfig) -> list[DTCoords]:
    """Deterministic sample of admissible, realizable coordinate vectors.

    The whole sample is drawn before it is returned, so a stalled sampler
    raises before a caller has used any of it.
    """
    rng = random.Random(cfg.seed)
    sample: list[DTCoords] = []
    attempts = 0
    while len(sample) < cfg.count:
        attempts += 1
        if attempts > 1000 * max(cfg.count, 1):
            raise CoordError("rejection sampling stalled; relax the config")
        q = _sample_q(rng, cfg.surface, cfg.max_q)
        p = [rng.randint(-cfg.max_abs_p, cfg.max_abs_p) for _ in range(cfg.surface.xi)]
        coords = DTCoords(q, _repair_p(cfg.surface, q, p))
        if cfg.connected_only and len(extract_components(cfg.surface, coords)) != 1:
            continue
        sample.append(coords)
    return sample


# -- chord-diagram oracle ----------------------------------------------------

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
    same-slot arc starts its loop at its end nearer the window's 0 end.
    """
    scc_slot = counts.scc_slot()
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
    if scc_seen != counts.total_scc():
        raise RuntimeError(
            f"pants {pants}: layout has {scc_seen} same-boundary arcs, "
            f"arc counts give {counts.total_scc()}"
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
    coords, layout: Layout, matching: Matching, where: dict, curve: int
) -> list[tuple]:
    """Strand crossings in the infinite-strip cover of one window annulus.

    Strand ends are located through `where`, the inverted window lists
    (not the node numbering), so a corrupted bridge between the two shows
    up here as a crossing.
    """
    q = coords.q[curve]
    period = q + 1  # one spare cell where the transversal arc lives

    strands = []
    for k in range(q):
        node = layout.node(curve, 0, k)
        partner, wrap = matching.mate[node], matching.crossing[node].twist
        (_, pos), (_, partner_pos) = where[node], where[partner]
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
        matching = match_strands(layout)
    where = {
        node: (window, pos)
        for window, ids in layout.windows.items()
        for pos, node in enumerate(ids)
    }

    crossing_pairs: list[tuple] = []
    for pants, counts in enumerate(pattern):
        for circuit, chords in _pants_disks(counts, layout, where, pants):
            crossing_pairs.extend(_disk_crossings(circuit, chords))
    for curve in range(surface.xi):
        if coords.q[curve]:
            crossing_pairs.extend(
                _annulus_crossings(coords, layout, matching, where, curve)
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
    from .holonomy import trace_of_curve

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
