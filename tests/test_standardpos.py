"""Curve reconstruction: endpoint layout, matching, components, words."""

import dataclasses
import hashlib
import math

import pytest

from plumbtrace import standardpos
from plumbtrace.dtcoords import CoordError, DTCoords, window_twists
from plumbtrace.fuzz import random_coords
from plumbtrace.standardpos import (
    Conn,
    Crossing,
    SccLoop,
    Word,
    extract_components,
    layout_endpoints,
    match_strands,
    scc_count,
    word_to_text,
)
from plumbtrace.surface import (
    SLOT_0,
    SLOT_1,
    SLOT_INF,
    pred,
    slot_name,
    succ,
)
from reference_layout import check_scc_patterns
from tests_support import crossings, layout_q, node_id, stock
from word_text import word_from_text

# sha256 of the word text of the seed-14 genus-two sample in
# TestWords.test_word_text_golden, one newline after each word
WORD_TEXT_DIGEST = "efb70259107c3babc9f7ed1af20778aee4994b9c8da3de4cebcff36dc3d54f77"


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
        node_id(layout, curve, side, strand): (curve, side, strand)
        for curve, q in enumerate(layout_q(layout))
        for side in (0, 1)
        for strand in range(q)
    }
    return {name[n]: (name[matching.mate[n]], matching.crossing[n].twist) for n in name}


class TestLayout:
    def test_same_boundary_pair_alone(self):
        # four-holed sphere dual: each pants sees totals (0, 0, 2); the
        # outgoing end (loop sign -1 on arrival) comes first
        layout = layout_endpoints(stock("four_holed_sphere"), DTCoords((2,), (0,)))
        assert window_ends(layout, 0, SLOT_INF) == [("loop", -1, 1), ("loop", 1, 0)]
        assert window_ends(layout, 0, SLOT_0) == []

    def test_one_arc_per_pair(self):
        # genus two with q = (2, 2, 2): every pants has totals (2, 2, 2)
        layout = layout_endpoints(stock("genus_two"), DTCoords((2, 2, 2), (0, 0, 0)))
        assert window_ends(layout, 0, SLOT_0) == [("arc", SLOT_1, 1), ("arc", SLOT_INF, 0)]
        assert window_ends(layout, 0, SLOT_1) == [("arc", SLOT_INF, 1), ("arc", SLOT_0, 0)]
        assert window_ends(layout, 0, SLOT_INF) == [("arc", SLOT_0, 1), ("arc", SLOT_1, 0)]

    def test_blocks_at_four_two_two(self):
        # genus two with q = (4, 2, 2): slot 0 orders successor block first
        layout = layout_endpoints(stock("genus_two"), DTCoords((4, 2, 2), (0, 0, 0)))
        assert window_ends(layout, 0, SLOT_0) == [
            ("arc", SLOT_1, 1),
            ("arc", SLOT_1, 0),
            ("arc", SLOT_INF, 1),
            ("arc", SLOT_INF, 0),
        ]

    def test_parallel_family_pairs_reversed(self):
        layout = layout_endpoints(stock("genus_two"), DTCoords((4, 2, 2), (0, 0, 0)))
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
        coords = DTCoords((4, 2, 2), (0, 0, 0))
        layout = layout_endpoints(stock("genus_two"), coords)
        names = sorted(
            (c, side, k) for c, q in enumerate((4, 2, 2)) for side in (0, 1) for k in range(q)
        )
        assert [node_id(layout, *name) for name in names] == list(range(16))
        assert layout.base == (0, 8, 12, 16)
        for g in layout.surface.gluings:
            strands = range(coords.q[g.curve])
            a, b = layout.windows[g.end_a], layout.windows[g.end_b]
            assert list(a) == [node_id(layout, g.curve, 0, k) for k in strands]
            # end B lists the strands in decreasing order along its window
            assert list(b)[::-1] == [node_id(layout, g.curve, 1, k) for k in strands]
            # the crossing leaving through a node leaves through its window
            crossing = match_strands(layout, coords).crossing
            assert all((crossing[n].out_pants, crossing[n].out_slot) == g.end_a for n in a)
            assert all((crossing[n].out_pants, crossing[n].out_slot) == g.end_b for n in b)


class TestMatching:
    def test_straight_across(self):
        s = stock("one_holed_torus")
        coords = DTCoords((2,), (0,))
        layout = layout_endpoints(s, coords)
        m = match_strands(layout, coords)
        assert m.shifts == (0,)
        step = named_steps(layout, m)
        assert step[(0, 0, 0)] == ((0, 1, 0), 0)
        assert step[(0, 0, 1)] == ((0, 1, 1), 0)

    def test_shift_by_one(self):
        s = stock("one_holed_torus")
        coords = DTCoords((2,), (2,))  # window twist 1
        layout = layout_endpoints(s, coords)
        m = match_strands(layout, coords)
        assert m.shifts == (1,)
        step = named_steps(layout, m)
        assert step[(0, 0, 0)] == ((0, 1, 1), 0)
        assert step[(0, 0, 1)] == ((0, 1, 0), 1)
        # both ends of a strand carry its wraps
        assert step[(0, 1, 0)] == ((0, 0, 1), 1)

    def test_wraps_sum_to_shift(self):
        s = stock("four_holed_sphere")
        for p in (-6, -2, 0, 2, 6):
            coords = DTCoords((4,), (p,))
            layout = layout_endpoints(s, coords)
            m = match_strands(layout, coords)
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
        comps = extract_components(stock("one_holed_torus"), DTCoords((2,), (0,)))
        assert len(comps) == 2
        assert all(c.q == (1,) for c in comps)

    def test_four_holed_dual_connected(self):
        comps = extract_components(stock("four_holed_sphere"), DTCoords((2,), (0,)))
        assert len(comps) == 1
        assert comps[0].q == (2,)
        assert comps[0].phat == (-1,)

    def test_parallel_components(self):
        comps = extract_components(stock("four_holed_sphere"), DTCoords((0,), (3,)))
        assert len(comps) == 3
        assert all(c.parallel_to == 0 and c.word is None for c in comps)
        # one frozen record, repeated for the copies
        assert comps == [comps[0]] * 3 and all(c is comps[0] for c in comps)
        comps = extract_components(stock("genus_two"), DTCoords((0, 0, 0), (2, 0, 4)))
        assert comps == [comps[0]] * 2 + [comps[2]] * 4 and comps[0] != comps[2]
        assert [c.parallel_to for c in comps] == [0, 0, 2, 2, 2, 2]

    def test_contributions_sum_to_input(self):
        s = stock("genus_two")
        coords = DTCoords((2, 2, 0), (0, 4, 2))
        comps = extract_components(s, coords)
        q_total = tuple(sum(c.q[i] for c in comps) for i in range(3))
        assert q_total == coords.q
        phat_total = tuple(sum(c.phat[i] for c in comps) for i in range(3))
        assert phat_total == window_twists(s, coords)

    def test_walk_stops_when_the_matching_is_not_a_permutation(self, monkeypatch):
        # the census's slice fault in match_strands: the B-ends of the r
        # strands that wrap once more read the ids one place too high, so
        # two nodes cross to one and the walk from node 0 enters a cycle
        # without it; it must refuse after half the nodes, not loop
        real = standardpos.match_strands

        def broken(layout, coords):
            matching = real(layout, coords)
            mate, ids = list(matching.mate), layout.ids
            b, r = coords.q[0], 1  # curve 0 alone, window twist -1 over 2 strands
            mate[b:b + r] = ids[b - r + 1:b + 1]
            assert len(set(mate)) < len(mate)
            return standardpos.Matching(matching.shifts, mate, matching.crossing)

        surface, coords = stock("four_holed_sphere"), DTCoords((2,), (0,))
        assert window_twists(surface, coords) == (-1,)
        monkeypatch.setattr(standardpos, "match_strands", broken)
        with pytest.raises(RuntimeError) as exc:
            extract_components(surface, coords)
        assert str(exc.value) == (
            "the walk from node 0 does not close after 2 crossings:"
            " the strand matching is not a permutation"
        )

    @pytest.mark.parametrize(
        "q,p,want",
        [
            # curve 2 (window twist -5 over 2 strands) splits between the two
            # words with twists -3 and -2: the first counts its marks, the
            # last takes the remainder, and curve 1 keeps phat 0 there
            (
                (0, 2, 4),
                (1, -8, -6),
                [
                    ((0, 1, 1), (0, -3, 0), None),
                    ((0, 1, 3), (0, -2, -3), None),
                    ((0, 0, 0), (1, 0, 0), 0),
                ],
            ),
            # window twist -2 over 4 strands: each word takes one strand of
            # -1 wraps and one of 0, so the first word's wrap count is nonzero
            ((0, 0, 4), (0, 0, 0), [((0, 0, 2), (0, 0, -1), None)] * 2),
        ],
    )
    def test_per_component_coordinates(self, q, p, want):
        comps = extract_components(stock("genus_two"), DTCoords(q, p))
        assert [(c.q, c.phat, c.parallel_to) for c in comps] == want


class TestWords:
    def test_one_holed_torus_dual_word(self):
        comps = extract_components(stock("one_holed_torus"), DTCoords((1,), (0,)))
        assert comps[0].word.tokens == (
            Crossing(0, 0, SLOT_INF, 0, SLOT_0, 0),
            Conn(0, SLOT_0, SLOT_INF),
        )

    def test_four_holed_dual_word_shape(self):
        comps = extract_components(stock("four_holed_sphere"), DTCoords((2,), (0,)))
        word = comps[0].word
        kinds = [type(t).__name__ for t in word.tokens]
        assert kinds == ["Crossing", "SccLoop", "Crossing", "SccLoop"]
        assert sorted(t.twist for t in crossings(word)) == [-1, 0]
        loops = [t for t in word.tokens if isinstance(t, SccLoop)]
        assert sorted(l.sign for l in loops) == [-1, 1]

    def test_crossing_and_twist_budgets(self):
        s = stock("genus_two")
        for q, p in [((1, 1, 2), (1, 1, 0)), ((2, 2, 2), (0, 0, 0)), ((4, 2, 2), (2, 0, 0))]:
            coords = DTCoords(q, p)
            phat = window_twists(s, coords)
            comps = extract_components(s, coords)
            for i in range(3):
                assert sum(c.q[i] for c in comps) == q[i]
                assert sum(c.phat[i] for c in comps) == phat[i]

    def test_parallel_component_has_no_word(self):
        comps = extract_components(stock("four_holed_sphere"), DTCoords((0,), (1,)))
        assert len(comps) == 1
        assert comps[0].word is None and comps[0].parallel_to == 0

    def test_word_text_round_trip(self):
        comps = extract_components(stock("four_holed_sphere"), DTCoords((2,), (4,)))
        word = comps[0].word
        assert word_from_text(1, word_to_text(word)) == word

    def test_word_text_golden(self):
        # pins the text of every word of a seeded genus-two sample at
        # max q 256, where most curves split into several components
        s = stock("genus_two")
        digest = hashlib.sha256()
        multi = 0
        for coords in random_coords(s, seed=14, max_q=256, max_abs_p=600, count=40):
            words = [c.word for c in extract_components(s, coords) if c.word is not None]
            multi += len(words) > 1
            for word in words:
                digest.update(word_to_text(word).encode() + b"\n")
        assert multi == 28
        assert digest.hexdigest() == WORD_TEXT_DIGEST

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
            ("cross c=1 out=(0,1) in=(1,0) t=0 zz=3 t=5", "cross token: unknown field 'zz'"),
            ("conn p=0 in=0 out=1 p=7", "conn token: repeated field 'p'"),
        ],
    )
    def test_malformed_token_line(self, line, message):
        with pytest.raises(CoordError, match=message):
            word_from_text(1, line)


def refuse_slot_name(slot):
    raise AssertionError("slot name read again")


class TestTokenText:
    """A token's line is a slotted field, formatted when the token is built:
    equality, hashing, ``repr`` and freezing see only the other fields."""

    TOKENS = (
        Crossing(1, 0, SLOT_INF, 1, SLOT_0, -2),
        Conn(0, SLOT_0, SLOT_1),
        SccLoop(1, SLOT_INF, -1),
    )

    def test_shared_tokens_are_formatted_once(self, monkeypatch):
        s = stock("genus_two")
        coords = DTCoords((2, 2, 4), (2, 2, 0))
        expected = [word_to_text(c.word) for c in extract_components(s, coords)]
        monkeypatch.setattr(standardpos, "slot_name", refuse_slot_name)
        with pytest.raises(AssertionError, match="read again"):
            Conn(0, SLOT_0, SLOT_1)
        # built again from the interning caches: nothing is formatted anew
        first, second = (c.word for c in extract_components(s, coords))
        # two parallel copies: the second word holds only tokens of the first
        assert set(map(id, second.tokens)) <= set(map(id, first.tokens))
        assert [word_to_text(first), word_to_text(second)] == expected

    @pytest.mark.parametrize("tok", TOKENS, ids=lambda tok: type(tok).__name__)
    def test_text_takes_no_part_in_comparison(self, tok):
        assert not hasattr(tok, "__dict__")
        text = {f.name: f for f in dataclasses.fields(tok)}["text"]
        assert not (text.init or text.compare or text.repr)
        fresh = dataclasses.replace(tok)
        assert fresh.text == tok.text and fresh.text
        object.__setattr__(fresh, "text", "edited")
        assert tok == fresh and hash(tok) == hash(fresh) and repr(tok) == repr(fresh)

    def test_replace_renders_the_new_twist(self):
        tok = self.TOKENS[0]
        assert tok.text == "cross c=2 out=(0,inf) in=(1,0) t=-2"
        assert dataclasses.replace(tok, twist=3).text == "cross c=2 out=(0,inf) in=(1,0) t=3"

    @pytest.mark.parametrize("tok", TOKENS, ids=lambda tok: type(tok).__name__)
    def test_tokens_stay_frozen(self, tok):
        assert tok.text
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tok, dataclasses.fields(tok)[0].name, 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tok.text = "edited"


class TestTokenInterning:
    """The layout and the matching build tokens through bounded caches, so a
    token value that several calls produce is one instance, formatted once."""

    FIRST = DTCoords((4, 1, 1), (-2, -3, -3))
    SECOND = DTCoords((4, 1, 1), (-2, -1, -3))  # twists of one curve differ

    @staticmethod
    def tokens(coords):
        comps = extract_components(stock("genus_two"), coords)
        return [tok for comp in comps for tok in comp.word.tokens]

    def test_equal_tokens_are_one_instance(self):
        first = {tok: tok for tok in self.tokens(self.FIRST)}
        second = self.tokens(self.SECOND)
        shared = [tok for tok in second if tok in first]
        assert {type(tok) for tok in shared} == {Crossing, Conn, SccLoop}
        assert len(shared) < len(second)
        assert all(first[tok] is tok for tok in shared)

    def test_replace_is_not_shared(self):
        tok = self.tokens(self.FIRST)[0]
        fresh = dataclasses.replace(tok)
        assert fresh == tok and fresh is not tok
        assert self.tokens(self.FIRST)[0] is tok

    def test_text_is_formatted_once_across_calls(self, monkeypatch):
        makes = (standardpos._crossing, standardpos._conn, standardpos._scc_loop)
        for make in makes:
            make.cache_clear()
        self.tokens(self.FIRST)
        before = [make.cache_info().misses for make in makes]
        reads = []

        def counted(slot):
            reads.append(slot)
            return slot_name(slot)

        monkeypatch.setattr(standardpos, "slot_name", counted)
        self.tokens(self.SECOND)
        # only a cache miss builds a token, and building formats it: two
        # slot names per crossing or connector, one per loop
        crossings, conns, loops = (m.cache_info().misses - b for m, b in zip(makes, before))
        assert crossings and len(reads) == 2 * (crossings + conns) + loops
        monkeypatch.setattr(standardpos, "slot_name", refuse_slot_name)
        assert all(tok.text for tok in self.tokens(self.FIRST) + self.tokens(self.SECOND))

    @pytest.mark.parametrize("make", ["_crossing", "_conn", "_scc_loop"])
    def test_caches_are_bounded(self, make):
        assert getattr(standardpos, make).cache_info().maxsize == standardpos.TOKEN_CACHE
        assert isinstance(standardpos.TOKEN_CACHE, int)


# per one-variable surface: how many (q, p) with 1 <= q <= 40 and |p| <= 60
# are admissible (p even, and q even too on the sphere), and the closed-form
# component count of the curve (q, p)
CLOSED_FORM_COUNTS = [
    ("one_holed_torus", 2440, lambda q, p: math.gcd(q, p // 2)),
    ("four_holed_sphere", 1220, lambda q, p: math.gcd(q // 2, p // 2)),
]


@pytest.mark.parametrize(
    "name,admissible,count", CLOSED_FORM_COUNTS, ids=["one_holed_torus", "four_holed_sphere"]
)
def test_closed_form_component_counts(name, admissible, count):
    # an oracle that shares no code with layout, matching or the walk
    surface = stock(name)
    seen = 0
    for q in range(1, 41):
        for p in range(-60, 61):
            coords = DTCoords((q,), (p,))
            try:
                components = extract_components(surface, coords)
            except CoordError:
                continue
            seen += 1
            assert len(components) == count(q, p), coords
    assert seen == admissible
    # q = 0: p parallel copies of the pants curve
    for p in range(61):
        assert len(extract_components(surface, DTCoords((0,), (p,)))) == p


class TestSccCount:
    def test_four_holed_dual(self):
        assert scc_count(stock("four_holed_sphere"), DTCoords((2,), (0,))) == 2

    def test_one_holed_dual(self):
        assert scc_count(stock("one_holed_torus"), DTCoords((2,), (0,))) == 0

    def test_all_pairs_pattern(self):
        assert scc_count(stock("genus_two"), DTCoords((2, 2, 2), (0, 0, 0))) == 0

    def test_unbalanced_pattern(self):
        # q = (4, 0, 0) on genus two: two same-boundary arcs per pants
        assert scc_count(stock("genus_two"), DTCoords((4, 0, 0), (0, 0, 0))) == 4


def test_is_connected():
    assert len(extract_components(stock("four_holed_sphere"), DTCoords((2,), (0,)))) == 1
    assert len(extract_components(stock("one_holed_torus"), DTCoords((2,), (0,)))) == 2


def test_word_structure_on_fuzz():
    # words alternate crossing/traversal, and every between-slot traversal
    # reduces to one of the two connector classes
    s = stock("twice_holed_torus")
    for coords in random_coords(s, seed=77, max_q=4, count=30):
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
                        # a traversal exits at its entry slot's pred or succ
                        assert tok.out_slot in (pred(tok.in_slot), succ(tok.in_slot))


def test_twisted_same_slot_returns_compile():
    # regression: wraps re-bracket a same-slot return, so twisted flanks may
    # show any turn pattern; only untwisted returns are constrained
    s = stock("twice_holed_torus")
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
            check_scc_patterns(word)
    else:
        check_scc_patterns(word)
