"""Pants decompositions: construction, validation, file parsing."""

import pytest

from plumbtrace.surface import (
    SLOT_0,
    SLOT_1,
    SLOT_INF,
    SurfaceError,
    build_surface,
    four_holed_sphere,
    genus_two,
    genus_two_one_hole,
    one_holed_torus,
    parse_surface,
    twice_holed_torus,
)

ALL = [one_holed_torus, four_holed_sphere, twice_holed_torus, genus_two, genus_two_one_hole]


def test_one_holed_torus_counts():
    s = one_holed_torus()
    assert (s.pants_count, s.xi) == (1, 1)
    assert s.unglued == ((0, SLOT_1),)


def test_four_holed_sphere_counts():
    s = four_holed_sphere()
    assert (s.pants_count, s.xi) == (2, 1)
    assert len(s.unglued) == 4


def test_genus_two_from_euler_bookkeeping():
    s = genus_two()
    assert (s.genus, s.boundary, s.pants_count, s.xi) == (2, 0, 2, 3)
    assert s.unglued == ()


@pytest.mark.parametrize("factory", ALL)
def test_slot_count_invariant(factory):
    s = factory()
    assert 3 * s.pants_count == 2 * s.xi + len(s.unglued)


def test_slot_curves():
    assert one_holed_torus().slot_curves[0] == (0, None, 0)
    assert four_holed_sphere().slot_curves[0] == (None, None, 0)
    assert genus_two().slot_curves[0] == (0, 1, 2)


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
        build_surface(0, 4, 1, [("a", (0, SLOT_INF), (0, SLOT_0))])
    with pytest.raises(SurfaceError, match="gluings"):
        build_surface(1, 1, 1, [])


def test_parse_round_trip_and_determinism():
    text = """
    # comment
    surface g=1 b=2
    pants 2
    glue a (0,inf) (1,inf)
    glue b (0,1) (1,1)
    """
    s1 = parse_surface(text)
    s2 = parse_surface(text)
    assert s1 == s2 == twice_holed_torus()
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
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(SurfaceError) as exc:
        parse_surface(text)
    assert str(exc.value) == message


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
    from pathlib import Path

    from plumbtrace.surface import load_surface

    repo = Path(__file__).resolve().parent.parent
    root = repo / "surfaces"
    assert load_surface(str(root / "one_holed_torus.surf")) == one_holed_torus()
    assert load_surface(str(root / "four_holed_sphere.surf")) == four_holed_sphere()
    assert load_surface(str(root / "genus_two.surf")) == genus_two()
    assert load_surface(str(root / "twice_holed_torus.surf")) == twice_holed_torus()
    assert sorted(p.name for p in root.glob("*.surf")) == [
        "four_holed_sphere.surf",
        "genus_two.surf",
        "one_holed_torus.surf",
        "twice_holed_torus.surf",
    ]
    # the surface the benchmark's deep workload loads
    deep = repo / "pipebench" / "surfaces" / "genus_two_one_hole.surf"
    assert load_surface(str(deep)) == genus_two_one_hole()
