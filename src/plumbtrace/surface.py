"""Combinatorial pants decompositions.

A surface is a list of pants (three-holed spheres) whose boundary slots are
labelled 0, 1, inf, plus a list of gluings.  Each gluing joins two distinct
slots, carries one plumbing variable, and is the combinatorial shadow of a
pants curve.  Slots are stored as ints 0, 1, 2 with 2 standing for inf; the
cyclic successor of a slot is ``(slot + 1) % 3``, matching the cyclic label
order 0 -> 1 -> inf -> 0.

Surface file grammar (one directive per line, '#' comments):

    surface g=<genus> b=<boundary>
    pants <count>
    glue <name> (<pants>,<slot>) (<pants>,<slot>)

Slot tokens are ``0``, ``1``, ``inf``.  Curve indices are assigned in file
order, so the k-th ``glue`` line owns variable t<k+1>.  Genus and boundary
are declared, not inferred, and validated against the pants/gluing counts so
a misconfigured file fails loudly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

SLOT_0, SLOT_1, SLOT_INF = 0, 1, 2
SLOT_NAMES = {SLOT_0: "0", SLOT_1: "1", SLOT_INF: "inf"}
_SLOT_VALUES = {"0": SLOT_0, "1": SLOT_1, "inf": SLOT_INF, "2": SLOT_INF}


class SurfaceError(ValueError):
    """Invalid pants decomposition or unparseable surface description."""


def slot_name(slot: int) -> str:
    return SLOT_NAMES[slot]


def parse_slot(token: str) -> int:
    token = token.strip().lower()
    if token not in _SLOT_VALUES:
        raise SurfaceError(f"bad slot {token!r} (expected 0, 1 or inf)")
    return _SLOT_VALUES[token]


def succ(slot: int) -> int:
    """Cyclic successor of a slot label (0 -> 1 -> inf -> 0)."""
    return (slot + 1) % 3


def pred(slot: int) -> int:
    return (slot + 2) % 3


@dataclass(frozen=True, slots=True)
class Gluing:
    """One pants curve: two glued slot ends, unordered as a pair.

    End order only fixes the bookkeeping direction used by strand
    enumeration; the gluing itself is symmetric.
    """

    curve: int  # 0-based curve index; variable t{curve+1}
    name: str
    end_a: tuple[int, int]  # (pants, slot)
    end_b: tuple[int, int]


@dataclass(frozen=True, slots=True)
class PantsDecomposition:
    genus: int
    boundary: int
    pants_count: int
    gluings: tuple[Gluing, ...]
    # slot_curves[pants][slot]: index of the curve glued at that slot, or
    # None for a free boundary; derived from `gluings`
    slot_curves: tuple[tuple[int | None, ...], ...] = field(compare=False, repr=False)

    @property
    def xi(self) -> int:
        """Number of pants curves (= number of plumbing variables)."""
        return len(self.gluings)

    @property
    def unglued(self) -> tuple[tuple[int, int], ...]:
        """Free (pants, slot) pairs in pants-then-slot order."""
        return tuple(
            (p, s)
            for p, curves in enumerate(self.slot_curves)
            for s, c in enumerate(curves)
            if c is None
        )


def build_surface(
    genus: int,
    boundary: int,
    pants_count: int,
    gluings: list[tuple[str, tuple[int, int], tuple[int, int]]],
) -> PantsDecomposition:
    """Validate and freeze a pants decomposition.

    ``gluings`` entries are (name, (pants, slot), (pants, slot)); curve
    indices are assigned in list order.
    """
    if pants_count < 1:
        raise SurfaceError("need at least one pants")
    used: dict[tuple[int, int], int] = {}  # (pants, slot) -> curve
    frozen = []
    for k, (name, end_a, end_b) in enumerate(gluings):
        for p, s in (end_a, end_b):
            if not 0 <= p < pants_count:
                raise SurfaceError(f"gluing {name!r} refers to missing pants {p}")
            if s not in (SLOT_0, SLOT_1, SLOT_INF):
                raise SurfaceError(f"gluing {name!r} has bad slot {s}")
        if end_a == end_b:
            raise SurfaceError(f"gluing {name!r} glues slot {end_a} to itself")
        for p, s in (end_a, end_b):
            if (p, s) in used:
                raise SurfaceError(f"slot ({p},{slot_name(s)}) used by two gluings")
            used[p, s] = k
        frozen.append(Gluing(k, name, end_a, end_b))

    # gluing graph (pants = nodes) must be connected; it has too few edges
    # for that when there are more pants than gluings plus one, refused
    # before any work per pants, so a huge declared count costs nothing
    if pants_count > len(frozen) + 1:
        raise SurfaceError("gluing graph is disconnected")
    adj: dict[int, set[int]] = {p: set() for p in range(pants_count)}
    for g in frozen:
        adj[g.end_a[0]].add(g.end_b[0])
        adj[g.end_b[0]].add(g.end_a[0])
    reach = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in reach:
                reach.add(nxt)
                stack.append(nxt)
    if len(reach) != pants_count:
        raise SurfaceError("gluing graph is disconnected")

    xi = len(frozen)
    if pants_count != 2 * genus - 2 + boundary:
        raise SurfaceError(
            f"declared genus {genus}, boundary {boundary} needs "
            f"{2 * genus - 2 + boundary} pants, got {pants_count}"
        )
    if xi != 3 * genus - 3 + boundary:
        raise SurfaceError(
            f"declared genus {genus}, boundary {boundary} needs "
            f"{3 * genus - 3 + boundary} gluings, got {xi}"
        )
    slot_curves = tuple(
        tuple(used.get((p, s)) for s in (SLOT_0, SLOT_1, SLOT_INF)) for p in range(pants_count)
    )
    # each gluing fills two distinct slots, so the counts above leave
    # 3 * pants - 2 * xi = 3(2g - 2 + b) - 2(3g - 3 + b) = b slots unglued
    return PantsDecomposition(genus, boundary, pants_count, tuple(frozen), slot_curves)


_GLUE_RE = re.compile(
    r"glue\s+(\S+)\s+\(\s*(\d+)\s*,\s*(\w+)\s*\)\s+\(\s*(\d+)\s*,\s*(\w+)\s*\)$"
)


def parse_surface(text: str) -> PantsDecomposition:
    """Parse the surface file grammar documented in the module docstring."""
    genus = boundary = pants_count = None
    gluings = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("surface"):
                fields = dict(
                    part.split("=", 1) for part in line.split()[1:] if "=" in part
                )
                genus = int(fields["g"])
                boundary = int(fields["b"])
            elif line.startswith("pants"):
                pants_count = int(line.split()[1])
            elif line.startswith("glue"):
                m = _GLUE_RE.match(line)
                if not m:
                    raise SurfaceError("malformed glue line")
                name, pa, sa, pb, sb = m.groups()
                gluings.append(
                    (name, (int(pa), parse_slot(sa)), (int(pb), parse_slot(sb)))
                )
            else:
                raise SurfaceError(f"unknown directive {line.split()[0]!r}")
        except SurfaceError as exc:
            raise SurfaceError(f"line {lineno}: {exc}") from None
        except (KeyError, ValueError, IndexError) as exc:
            raise SurfaceError(f"line {lineno}: {exc}") from None
    if genus is None or boundary is None:
        raise SurfaceError("missing 'surface g=.. b=..' declaration")
    if pants_count is None:
        raise SurfaceError("missing 'pants <count>' declaration")
    return build_surface(genus, boundary, pants_count, gluings)


def load_surface(path: str) -> PantsDecomposition:
    with open(path, encoding="utf-8") as fh:
        return parse_surface(fh.read())


# Stock decompositions used across tests and docs.

def one_holed_torus() -> PantsDecomposition:
    """One pants, slots inf and 0 glued; slot 1 is the boundary."""
    return build_surface(1, 1, 1, [("a", (0, SLOT_INF), (0, SLOT_0))])


def four_holed_sphere() -> PantsDecomposition:
    """Two pants glued along their inf slots; four free boundaries."""
    return build_surface(0, 4, 2, [("a", (0, SLOT_INF), (1, SLOT_INF))])


def twice_holed_torus() -> PantsDecomposition:
    """Two pants, two gluings (inf-inf and 1-1); two free boundaries."""
    return build_surface(
        1,
        2,
        2,
        [
            ("a", (0, SLOT_INF), (1, SLOT_INF)),
            ("b", (0, SLOT_1), (1, SLOT_1)),
        ],
    )


def genus_two() -> PantsDecomposition:
    """Closed genus-two surface: two pants glued along all three slot pairs."""
    return build_surface(
        2,
        0,
        2,
        [
            ("a", (0, SLOT_0), (1, SLOT_0)),
            ("b", (0, SLOT_1), (1, SLOT_1)),
            ("c", (0, SLOT_INF), (1, SLOT_INF)),
        ],
    )


def genus_two_one_hole() -> PantsDecomposition:
    """Genus two with one boundary: three pants, four gluings."""
    return build_surface(
        2,
        1,
        3,
        [
            ("a", (0, SLOT_INF), (0, SLOT_0)),
            ("b", (0, SLOT_1), (1, SLOT_INF)),
            ("c", (1, SLOT_0), (2, SLOT_INF)),
            ("d", (1, SLOT_1), (2, SLOT_0)),
        ],
    )
