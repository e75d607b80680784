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

A line's first word names its directive and must match it whole.  A word
the directive does not take (a second count, a key other than ``g`` and
``b``, a key given twice) is refused by name, so a typo is not read as
something else.  Every integer is ASCII digits with an optional sign
(``integer``, which reads every integer of an option or a curve too).
Slot tokens are exactly ``0``, ``1`` and ``inf``.  Curve indices are
assigned in file order, so the k-th ``glue`` line owns variable t<k+1>.
Genus and boundary are declared, not inferred, and validated against the
pants/gluing counts so a misconfigured file fails loudly.

Every refusal of input is an ``InputError`` (a ``ValueError``), which
``SurfaceError`` and ``dtcoords.CoordError`` derive from; the command line
reports it, and no other ``ValueError``, as bad input (exit 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

SLOT_0, SLOT_1, SLOT_INF = 0, 1, 2
SLOT_NAMES = {SLOT_0: "0", SLOT_1: "1", SLOT_INF: "inf"}
_SLOT_VALUES = {name: slot for slot, name in SLOT_NAMES.items()}


class InputError(ValueError):
    """Input that plumbtrace refuses, as opposed to a fault in plumbtrace."""


class SurfaceError(InputError):
    """Invalid pants decomposition or unparseable surface description."""


# [0-9], not the Unicode digit class, which matches other scripts' digits;
# int() alone reads those, '1_0' and ' 7' too
_INTEGER = re.compile(r"[+-]?[0-9]+")


def integer(text: str, name: str = "value") -> int:
    """`text` as an integer: ASCII digits with an optional sign, nothing else."""
    if not _INTEGER.fullmatch(text):
        raise InputError(f"{name} must be an integer, got {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # more digits than int() converts
        raise InputError(str(exc)) from None


def slot_name(slot: int) -> str:
    return SLOT_NAMES[slot]


def parse_slot(token: str) -> int:
    """The slot a token names: exactly ``0``, ``1`` or ``inf``."""
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
            p, s = end_a
            raise SurfaceError(f"gluing {name!r} glues slot ({p},{slot_name(s)}) to itself")
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
    r"glue\s+(\S+)\s+\(\s*([^\s,()]+)\s*,\s*(\w+)\s*\)\s+\(\s*([^\s,()]+)\s*,\s*(\w+)\s*\)$"
)


def parse_surface(text: str) -> PantsDecomposition:
    """Parse the surface file grammar documented in the module docstring."""
    genus = boundary = pants_count = None
    gluings = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *words = line.split()
        try:
            if directive == "surface":
                fields = {}
                for word in words:
                    key, eq, value = word.partition("=")
                    if not eq or key not in ("g", "b") or key in fields:
                        raise SurfaceError(f"unexpected {word!r} in surface declaration")
                    fields[key] = value
                for key in ("g", "b"):
                    if key not in fields:
                        raise SurfaceError(f"missing '{key}=' in surface declaration")
                genus = integer(fields["g"], "g")
                boundary = integer(fields["b"], "b")
            elif directive == "pants":
                if not words:
                    raise SurfaceError("missing count in pants declaration")
                if len(words) > 1:
                    raise SurfaceError(f"unexpected {words[1]!r} in pants declaration")
                pants_count = integer(words[0], "pants count")
            elif directive == "glue":
                m = _GLUE_RE.match(line)
                if not m:
                    raise SurfaceError("malformed glue line")
                name, pa, sa, pb, sb = m.groups()
                end_a = integer(pa, "pants"), parse_slot(sa)
                end_b = integer(pb, "pants"), parse_slot(sb)
                gluings.append((name, end_a, end_b))
            else:
                raise SurfaceError(f"unknown directive {directive!r}")
        except InputError as exc:  # SurfaceError included
            raise SurfaceError(f"line {lineno}: {exc}") from None
    if genus is None or boundary is None:
        raise SurfaceError("missing 'surface g=.. b=..' declaration")
    if pants_count is None:
        raise SurfaceError("missing 'pants <count>' declaration")
    return build_surface(genus, boundary, pants_count, gluings)


def load_surface(path: str) -> PantsDecomposition:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # not a text file
            raise SurfaceError(str(exc)) from None
    return parse_surface(text)
