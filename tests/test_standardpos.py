"""Curve reconstruction: endpoint layout, matching, components, words."""

from plumbtrace.dtcoords import DTCoords, window_twists
from plumbtrace.standardpos import (
    Conn,
    Crossing,
    SccLoop,
    Word,
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


class TestLayout:
    def test_same_boundary_pair_alone(self):
        # four-holed sphere dual: each pants sees totals (0, 0, 2)
        layout = layout_endpoints(four_holed_sphere(), DTCoords((2,), (0,)))
        assert layout.windows[(0, SLOT_INF)] == [("scc_out", 1), ("scc_in", 1)]
        assert layout.windows[(0, SLOT_0)] == []

    def test_one_arc_per_pair(self):
        # genus two with q = (2, 2, 2): every pants has totals (2, 2, 2)
        layout = layout_endpoints(genus_two(), DTCoords((2, 2, 2), (0, 0, 0)))
        assert layout.windows[(0, SLOT_0)] == [("dcc", SLOT_1, 0), ("dcc", SLOT_INF, 0)]
        assert layout.windows[(0, SLOT_1)] == [("dcc", SLOT_INF, 0), ("dcc", SLOT_0, 0)]
        assert layout.windows[(0, SLOT_INF)] == [("dcc", SLOT_0, 0), ("dcc", SLOT_1, 0)]

    def test_blocks_at_four_two_two(self):
        # genus two with q = (4, 2, 2): slot 0 orders successor block first
        layout = layout_endpoints(genus_two(), DTCoords((4, 2, 2), (0, 0, 0)))
        assert layout.windows[(0, SLOT_0)] == [
            ("dcc", SLOT_1, 0),
            ("dcc", SLOT_1, 1),
            ("dcc", SLOT_INF, 0),
            ("dcc", SLOT_INF, 1),
        ]

    def test_parallel_family_pairs_reversed(self):
        layout = layout_endpoints(genus_two(), DTCoords((4, 2, 2), (0, 0, 0)))
        # first arc of the (slot0, slot1) family in pants 0 ends at the last
        # position of slot 1's predecessor block
        arcs = [
            a
            for a in layout.arcs
            if a.pants == 0 and {a.end_out[0], a.end_in[0]} == {SLOT_0, SLOT_1}
        ]
        assert [(a.end_out, a.end_in) for a in arcs] == [
            ((SLOT_0, 0), (SLOT_1, 1)),
            ((SLOT_0, 1), (SLOT_1, 0)),
        ]


class TestMatching:
    def test_straight_across(self):
        s = one_holed_torus()
        m = match_strands(layout_endpoints(s, DTCoords((2,), (0,))))
        assert m.shifts == (0,)
        assert m.step[(0, 0, 0)] == ((0, 1, 0), 0)
        assert m.step[(0, 0, 1)] == ((0, 1, 1), 0)

    def test_shift_by_one(self):
        s = one_holed_torus()
        m = match_strands(layout_endpoints(s, DTCoords((2,), (2,))))  # window twist 1
        assert m.shifts == (1,)
        assert m.step[(0, 0, 0)] == ((0, 1, 1), 0)
        assert m.step[(0, 0, 1)] == ((0, 1, 0), 1)

    def test_wraps_sum_to_shift(self):
        s = four_holed_sphere()
        for p in (-6, -2, 0, 2, 6):
            coords = DTCoords((4,), (p,))
            m = match_strands(layout_endpoints(s, coords))
            total = sum(m.step[(0, 0, k)][1] for k in range(4))
            assert total == m.shifts[0] == window_twists(s, coords)[0]


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

