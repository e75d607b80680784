"""Pants decompositions: construction, validation, file parsing."""

import pytest

from plumbtrace.dtcoords import CoordError
from plumbtrace.surface import (
    SLOT_0,
    SLOT_1,
    SLOT_INF,
    InputError,
    SurfaceError,
    build_surface,
    integer,
    load_surface,
    parse_slot,
    parse_surface,
)
from tests_support import ROOT, STOCK, free_slots, stock, stock_file

ALL = STOCK + ("genus_two_one_hole",)


def test_one_holed_torus_counts():
    s = stock("one_holed_torus")
    assert (s.pants_count, s.xi) == (1, 1)
    assert s.slot_curves == ((0, None, 0),)


def test_four_holed_sphere_counts():
    s = stock("four_holed_sphere")
    assert (s.pants_count, s.xi) == (2, 1)
    assert free_slots(s) == 4


def test_genus_two_from_euler_bookkeeping():
    s = stock("genus_two")
    assert (s.genus, s.boundary, s.pants_count, s.xi) == (2, 0, 2, 3)
    assert free_slots(s) == 0


@pytest.mark.parametrize("name", ALL)
def test_slot_count_invariant(name):
    s = stock(name)
    assert 3 * s.pants_count == 2 * s.xi + free_slots(s) == 2 * s.xi + s.boundary


def test_slot_curves():
    assert stock("one_holed_torus").slot_curves[0] == (0, None, 0)
    assert stock("four_holed_sphere").slot_curves[0] == (None, None, 0)
    assert stock("genus_two").slot_curves[0] == (0, 1, 2)


def test_duplicate_slot_rejected():
    with pytest.raises(SurfaceError, match="used by two gluings"):
        build_surface(
            1, 2, 2,
            [("a", (0, SLOT_INF), (1, SLOT_INF)), ("b", (0, SLOT_INF), (1, SLOT_0))],
        )


def test_self_glued_slot_rejected():
    with pytest.raises(SurfaceError, match="itself"):
        build_surface(1, 1, 1, [("a", (0, SLOT_0), (0, SLOT_0))])


def test_disconnected_rejected():
    with pytest.raises(SurfaceError, match="disconnected"):
        build_surface(
            2, 2, 2,
            [("a", (0, SLOT_INF), (0, SLOT_0)), ("b", (1, SLOT_INF), (1, SLOT_0))],
        )


def test_too_few_gluings_refused_before_any_pants_work():
    # a connected graph on P pants needs at least P - 1 gluings, so 10^12
    # pants and none is refused from the counts; a bad gluing still reports
    # itself first
    with pytest.raises(SurfaceError, match="disconnected"):
        build_surface(0, 3, 10**12, [])
    with pytest.raises(SurfaceError, match="itself"):
        build_surface(0, 3, 10**12, [("a", (0, SLOT_0), (0, SLOT_0))])


def test_declared_genus_validated():
    with pytest.raises(SurfaceError, match="pants"):
        build_surface(0, 4, 1, [("a", (0, SLOT_1), (0, SLOT_0))])
    with pytest.raises(SurfaceError, match="gluings"):
        build_surface(1, 1, 1, [])


def test_parse_round_trip_and_determinism():
    # the shipped file, comment line included, parsed twice from its text
    with open(stock_file("twice_holed_torus"), encoding="utf-8") as fh:
        text = fh.read()
    s1 = parse_surface(text)
    s2 = parse_surface(text)
    assert s1 == s2 == stock("twice_holed_torus")
    assert tuple(g.name for g in s1.gluings) == ("a", "b")


@pytest.mark.parametrize(
    "text,match",
    [
        ("pants 1", "surface"),
        ("surface g=1 b=1", "pants"),
        ("surface g=1 b=1\npants 1\nglue a (0,3) (0,0)", "slot"),
        ("surface g=1 b=1\npants 1\nfrobnicate", "unknown directive"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(SurfaceError, match=match):
        parse_surface(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("surface g=1 b=1\npants 1\nglue a (0,inf) 0,0)", "line 3: malformed glue line"),
        ("surface g=1 b=1\npants abc", "line 2: pants count must be an integer, got 'abc'"),
        # a declaration that lacks a field names the field
        ("surface g=1\npants 1", "line 1: missing 'b=' in surface declaration"),
        ("surface b=1\npants 1", "line 1: missing 'g=' in surface declaration"),
        ("surface g=1 b=1\npants", "line 2: missing count in pants declaration"),
        # a directive is its line's first word, matched whole, and a word
        # the directive does not take is refused by name, not skipped
        (
            "surfaceXYZ g=1 b=1\npantsfoo 1\nglue a (0,inf) (0,0)",
            "line 1: unknown directive 'surfaceXYZ'",
        ),
        (
            "surface g=1 b=1\npantsfoo 1\nglue a (0,inf) (0,0)",
            "line 2: unknown directive 'pantsfoo'",
        ),
        (
            "surface g=1 b=1 junk\npants 1\nglue a (0,inf) (0,0)",
            "line 1: unexpected 'junk' in surface declaration",
        ),
        (
            "surface g=1 b=1\npants 1 2 3\nglue a (0,inf) (0,0)",
            "line 2: unexpected '2' in pants declaration",
        ),
        (
            "surface g=1 b=1 x=5\npants 1\nglue a (0,inf) (0,0)",
            "line 1: unexpected 'x=5' in surface declaration",
        ),
        (
            "surface g=1 b=1 g=2\npants 1\nglue a (0,inf) (0,0)",
            "line 1: unexpected 'g=2' in surface declaration",
        ),
        # an integer is ASCII digits with an optional sign: int() alone
        # would read the underscore, the fullwidth one (U+FF11), the
        # Arabic-Indic three (U+0663) and zero (U+0660)
        ("surface g=0_1 b=1\npants 1", "line 1: g must be an integer, got '0_1'"),
        ("surface g=1 b=\uff11\npants 1", "line 1: b must be an integer, got '\uff11'"),
        ("surface g=1 b=1\npants \u0663", "line 2: pants count must be an integer, got '\u0663'"),
        (
            "surface g=1 b=1\npants 1\nglue a (\u0660,inf) (0,0)",
            "line 3: pants must be an integer, got '\u0660'",
        ),
        # a slot token is exactly 0, 1 or inf: no other case, no index
        (
            "surface g=1 b=1\npants 1\nglue a (0,INF) (0,0)",
            "line 3: bad slot 'INF' (expected 0, 1 or inf)",
        ),
        (
            "surface g=1 b=1\npants 1\nglue a (0,Inf) (0,0)",
            "line 3: bad slot 'Inf' (expected 0, 1 or inf)",
        ),
        (
            "surface g=1 b=1\npants 1\nglue a (0,2) (0,0)",
            "line 3: bad slot '2' (expected 0, 1 or inf)",
        ),
        # a gluing of a slot to itself names the slot as the file does
        (
            "surface g=1 b=1\npants 1\nglue a (0,inf) (0,inf)",
            "gluing 'a' glues slot (0,inf) to itself",
        ),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(SurfaceError) as exc:
        parse_surface(text)
    assert str(exc.value) == message


def test_parse_slot_matches_the_token_whole():
    assert [parse_slot(name) for name in ("0", "1", "inf")] == [SLOT_0, SLOT_1, SLOT_INF]
    for token in (" inf", "inf ", "1\n"):
        with pytest.raises(SurfaceError) as exc:
            parse_slot(token)
        assert str(exc.value) == f"bad slot {token!r} (expected 0, 1 or inf)"


@pytest.mark.parametrize(
    "pants,gluings,message",
    [
        (0, [], "need at least one pants"),
        (1, [("a", (0, SLOT_INF), (5, SLOT_0))], "gluing 'a' refers to missing pants 5"),
        (1, [("a", (0, SLOT_INF), (0, 7))], "gluing 'a' has bad slot 7"),
    ],
)
def test_build_errors(pants, gluings, message):
    with pytest.raises(SurfaceError) as exc:
        build_surface(1, 1, pants, gluings)
    assert str(exc.value) == message


def test_shipped_surface_files():
    # the stock surfaces are these files and nothing else; each parses to
    # the genus, holes, pants and gluings its declaration promises
    assert sorted(p.stem for p in (ROOT / "surfaces").glob("*.surf")) == list(STOCK)
    assert [p.stem for p in (ROOT / "pipebench" / "surfaces").glob("*.surf")] == [
        "genus_two_one_hole"
    ]
    for name in ALL:
        s = stock(name)
        assert s.pants_count == 2 * s.genus - 2 + s.boundary
        assert s.xi == 3 * s.genus - 3 + s.boundary
        assert free_slots(s) == s.boundary
    assert [(s.genus, s.boundary) for s in map(stock, ALL)] == [
        (0, 4), (2, 0), (1, 1), (1, 2), (2, 1)
    ]


def test_every_input_refusal_is_an_input_error(tmp_path):
    # the one type the command line reads as bad input, and still a
    # ValueError to a library caller
    assert issubclass(SurfaceError, InputError) and issubclass(CoordError, InputError)
    assert issubclass(InputError, ValueError)
    with pytest.raises(InputError, match="^count must be an integer, got '1_0'$"):
        integer("1_0", "count")
    path = tmp_path / "latin1.surf"
    path.write_bytes(b"surface g=1 b=1 # caf\xe9\n")
    with pytest.raises(SurfaceError) as exc:
        load_surface(str(path))
    assert str(exc.value) == (
        "'utf-8' codec can't decode byte 0xe9 in position 21: invalid continuation byte"
    )
