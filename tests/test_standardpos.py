"""Curve reconstruction: endpoint layout, matching, components, words."""

import pytest

from plumbtrace.dtcoords import CoordError, DTCoords, window_twists
from plumbtrace.standardpos import (
    Conn,
    Crossing,
    SccLoop,
    Word,
    _check_scc_patterns,
    extract_components,
    layout_endpoints,
    match_strands,
    scc_count,
    word_from_text,
    word_to_text,
)
from plumbtrace.surface import (
    SLOT_0,
    SLOT_1,
    SLOT_INF,
    four_holed_sphere,
    genus_two,
    one_holed_torus,
)


def window_ends(layout, pants, slot):
    """Per window position, where its pants arc ends: ("loop", loop sign,
    mate position) for a same-slot arc, ("arc", mate slot, mate position)
    otherwise."""
    where = {
        node: (window, pos)
        for window, ids in layout.windows.items()
        for pos, node in enumerate(ids)
    }
    out = []
    for node in layout.windows[(pants, slot)]:
        (_, mate_slot), mate_pos = where[layout.arc_mate[node]]
        if mate_slot == slot:
            out.append(("loop", layout.traversal[node].sign, mate_pos))
        else:
            out.append(("arc", mate_slot, mate_pos))
    return out


def named_steps(layout, matching):
    """The matching keyed by (curve, side, strand): node -> (mate, wraps)."""
    name = {
        layout.node(curve, side, strand): (curve, side, strand)
        for curve, q in enumerate(layout.coords.q)
        for side in (0, 1)
        for strand in range(q)
    }
    return {name[n]: (name[matching.mate[n]], matching.crossing[n].twist) for n in name}


class TestLayout:
    def test_same_boundary_pair_alone(self):
        # four-holed sphere dual: each pants sees totals (0, 0, 2); the
        # outgoing end (loop sign -1 on arrival) comes first
        layout = layout_endpoints(four_holed_sphere(), DTCoords((2,), (0,)))
        assert window_ends(layout, 0, SLOT_INF) == [("loop", -1, 1), ("loop", 1, 0)]
        assert window_ends(layout, 0, SLOT_0) == []

    def test_one_arc_per_pair(self):
        # genus two with q = (2, 2, 2): every pants has totals (2, 2, 2)
        layout = layout_endpoints(genus_two(), DTCoords((2, 2, 2), (0, 0, 0)))
        assert window_ends(layout, 0, SLOT_0) == [("arc", SLOT_1, 1), ("arc", SLOT_INF, 0)]
        assert window_ends(layout, 0, SLOT_1) == [("arc", SLOT_INF, 1), ("arc", SLOT_0, 0)]
        assert window_ends(layout, 0, SLOT_INF) == [("arc", SLOT_0, 1), ("arc", SLOT_1, 0)]

    def test_blocks_at_four_two_two(self):
        # genus two with q = (4, 2, 2): slot 0 orders successor block first
        layout = layout_endpoints(genus_two(), DTCoords((4, 2, 2), (0, 0, 0)))
        assert window_ends(layout, 0, SLOT_0) == [
            ("arc", SLOT_1, 1),
            ("arc", SLOT_1, 0),
            ("arc", SLOT_INF, 1),
            ("arc", SLOT_INF, 0),
        ]

    def test_parallel_family_pairs_reversed(self):
        layout = layout_endpoints(genus_two(), DTCoords((4, 2, 2), (0, 0, 0)))
        # first arc of the (slot0, slot1) family in pants 0 ends at the last
        # position of slot 1's predecessor block
        family = [
            (pos, end[2])
            for pos, end in enumerate(window_ends(layout, 0, SLOT_0))
            if end[:2] == ("arc", SLOT_1)
        ]
        assert family == [(0, 1), (1, 0)]
        assert [end[:2] for end in window_ends(layout, 0, SLOT_1)[:2]] == [("arc", SLOT_0)] * 2

    def test_node_ids_follow_tuple_order(self):
        # ids increase in (curve, side, strand) order, so walks started from
        # the least unvisited id keep the components' order
        layout = layout_endpoints(genus_two(), DTCoords((4, 2, 2), (0, 0, 0)))
        names = sorted(
            (c, side, k) for c, q in enumerate((4, 2, 2)) for side in (0, 1) for k in range(q)
        )
        assert [layout.node(*name) for name in names] == list(range(16))
        assert layout.base == (0, 8, 12, 16)
        for g in layout.surface.gluings:
            strands = range(layout.coords.q[g.curve])
            a, b = layout.windows[g.end_a], layout.windows[g.end_b]
            assert list(a) == [layout.node(g.curve, 0, k) for k in strands]
            # end B lists the strands in decreasing order along its window
            assert list(b)[::-1] == [layout.node(g.curve, 1, k) for k in strands]
            # the crossing leaving through a node leaves through its window
            crossing = match_strands(layout).crossing
            assert all((crossing[n].out_pants, crossing[n].out_slot) == g.end_a for n in a)
            assert all((crossing[n].out_pants, crossing[n].out_slot) == g.end_b for n in b)


class TestMatching:
    def test_straight_across(self):
        s = one_holed_torus()
        layout = layout_endpoints(s, DTCoords((2,), (0,)))
        m = match_strands(layout)
        assert m.shifts == (0,)
        step = named_steps(layout, m)
        assert step[(0, 0, 0)] == ((0, 1, 0), 0)
        assert step[(0, 0, 1)] == ((0, 1, 1), 0)

    def test_shift_by_one(self):
        s = one_holed_torus()
        layout = layout_endpoints(s, DTCoords((2,), (2,)))  # window twist 1
        m = match_strands(layout)
        assert m.shifts == (1,)
        step = named_steps(layout, m)
        assert step[(0, 0, 0)] == ((0, 1, 1), 0)
        assert step[(0, 0, 1)] == ((0, 1, 0), 1)
        # both ends of a strand carry its wraps
        assert step[(0, 1, 0)] == ((0, 0, 1), 1)

    def test_wraps_sum_to_shift(self):
        s = four_holed_sphere()
        for p in (-6, -2, 0, 2, 6):
            coords = DTCoords((4,), (p,))
            layout = layout_endpoints(s, coords)
            m = match_strands(layout)
            step = named_steps(layout, m)
            total = sum(step[(0, 0, k)][1] for k in range(4))
            assert total == m.shifts[0] == window_twists(s, coords)[0]
            # an order-preserving matching with constant shift, an involution
            assert [step[(0, 0, k)][0] for k in range(4)] == [
                (0, 1, (k + m.shifts[0]) % 4) for k in range(4)
            ]
            assert all(m.mate[m.mate[n]] == n for n in range(len(m.mate)))


class TestComponents:
    def test_doubled_dual_splits(self):
        comps = extract_components(one_holed_torus(), DTCoords((2,), (0,)))
        assert len(comps) == 2
        assert all(c.q == (1,) for c in comps)

    def test_four_holed_dual_connected(self):
        comps = extract_components(four_holed_sphere(), DTCoords((2,), (0,)))
        assert len(comps) == 1
        assert comps[0].q == (2,)
        assert comps[0].phat == (-1,)

    def test_parallel_components(self):
        comps = extract_components(four_holed_sphere(), DTCoords((0,), (3,)))
        assert len(comps) == 3
        assert all(c.parallel_to == 0 and c.word is None for c in comps)

    def test_contributions_sum_to_input(self):
        s = genus_two()
        coords = DTCoords((2, 2, 0), (0, 4, 2))
        comps = extract_components(s, coords)
        q_total = tuple(sum(c.q[i] for c in comps) for i in range(3))
        assert q_total == coords.q
        phat_total = tuple(sum(c.phat[i] for c in comps) for i in range(3))
        assert phat_total == window_twists(s, coords)


class TestWords:
    def test_one_holed_torus_dual_word(self):
        comps = extract_components(one_holed_torus(), DTCoords((1,), (0,)))
        assert comps[0].word.tokens == (
            Crossing(0, 0, SLOT_INF, 0, SLOT_0, 0),
            Conn(0, SLOT_0, SLOT_INF),
        )

    def test_four_holed_dual_word_shape(self):
        comps = extract_components(four_holed_sphere(), DTCoords((2,), (0,)))
        word = comps[0].word
        kinds = [type(t).__name__ for t in word.tokens]
        assert kinds == ["Crossing", "SccLoop", "Crossing", "SccLoop"]
        assert sorted(t.twist for t in word.crossings()) == [-1, 0]
        loops = [t for t in word.tokens if isinstance(t, SccLoop)]
        assert sorted(l.sign for l in loops) == [-1, 1]

    def test_crossing_and_twist_budgets(self):
        s = genus_two()
        for q, p in [((1, 1, 2), (1, 1, 0)), ((2, 2, 2), (0, 0, 0)), ((4, 2, 2), (2, 0, 0))]:
            coords = DTCoords(q, p)
            phat = window_twists(s, coords)
            comps = extract_components(s, coords)
            for i in range(3):
                assert sum(c.q[i] for c in comps) == q[i]
                assert sum(c.phat[i] for c in comps) == phat[i]

    def test_parallel_component_has_no_word(self):
        comps = extract_components(four_holed_sphere(), DTCoords((0,), (1,)))
        assert len(comps) == 1
        assert comps[0].word is None and comps[0].parallel_to == 0

    def test_word_text_round_trip(self):
        comps = extract_components(four_holed_sphere(), DTCoords((2,), (4,)))
        word = comps[0].word
        assert word_from_text(1, word_to_text(word)) == word

    @pytest.mark.parametrize(
        "line,message",
        [
            ("cross c=1", "cross token: missing field 'out'"),
            ("cross c=1 out=(0,1) in=(1,0)", "cross token: missing field 't'"),
            ("loop p=0 slot=inf", "loop token: missing field 's'"),
            ("cross c1 out=(0,1)", "cross token: bad part 'c1'"),
            ("cross c=1 out=(0,1,2) in=(1,0) t=0", "cross token: field 'out' has bad value"),
            ("cross c=x out=(0,1) in=(1,0) t=0", "cross token: field 'c' has bad value 'x'"),
            ("loop p=0 slot=1 s=z", "loop token: field 's' has bad value 'z'"),
            ("conn p=q in=0 out=1", "conn token: field 'p' has bad value 'q'"),
        ],
    )
    def test_malformed_token_line(self, line, message):
        with pytest.raises(CoordError, match=message):
            word_from_text(1, line)


class TestSccCount:
    def test_four_holed_dual(self):
        assert scc_count(four_holed_sphere(), DTCoords((2,), (0,))) == 2

    def test_one_holed_dual(self):
        assert scc_count(one_holed_torus(), DTCoords((2,), (0,))) == 0

    def test_all_pairs_pattern(self):
        assert scc_count(genus_two(), DTCoords((2, 2, 2), (0, 0, 0))) == 0

    def test_unbalanced_pattern(self):
        # q = (4, 0, 0) on genus two: two same-boundary arcs per pants
        assert scc_count(genus_two(), DTCoords((4, 0, 0), (0, 0, 0))) == 4


def test_is_connected():
    assert len(extract_components(four_holed_sphere(), DTCoords((2,), (0,)))) == 1
    assert len(extract_components(one_holed_torus(), DTCoords((2,), (0,)))) == 2


def test_word_structure_on_fuzz():
    # words alternate crossing/traversal, and every between-slot traversal
    # reduces to one of the two connector classes
    from plumbtrace.fuzz import FuzzConfig, random_coords
    from plumbtrace.surface import twice_holed_torus

    s = twice_holed_torus()
    for coords in random_coords(FuzzConfig(s, seed=77, max_q=4, count=30)):
        for comp in extract_components(s, coords):
            if comp.word is None:
                continue
            toks = comp.word.tokens
            assert len(toks) % 2 == 0
            for idx, tok in enumerate(toks):
                if idx % 2 == 0:
                    assert isinstance(tok, Crossing)
                else:
                    assert isinstance(tok, (Conn, SccLoop))
                    if isinstance(tok, Conn):
                        assert tok.turn() in ("pred", "succ")


def test_twisted_same_slot_returns_compile():
    # regression: wraps re-bracket a same-slot return, so twisted flanks may
    # show any turn pattern; only untwisted returns are constrained
    from plumbtrace.surface import twice_holed_torus

    s = twice_holed_torus()
    comps = extract_components(s, DTCoords((4, 2), (2, -4)))
    assert sorted(sum(c.q) for c in comps) == [2, 4]



@pytest.mark.parametrize("sign,raises", [(+1, True), (-1, False)])
def test_untwisted_same_slot_return_pattern(sign, raises):
    # a return flanked by two successor turns must loop negatively
    c = Crossing(0, 0, SLOT_INF, 1, SLOT_INF, 0)
    loop = SccLoop(0, SLOT_INF, sign)
    word = Word(1, (c, Conn(0, SLOT_0, SLOT_1), c, loop, c, Conn(0, SLOT_1, SLOT_INF)))
    if raises:
        with pytest.raises(AssertionError, match="non-embeddable"):
            _check_scc_patterns(word)
    else:
        _check_scc_patterns(word)
