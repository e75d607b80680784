"""Parser for the word text that ``plumbtrace word`` prints.

``standardpos.word_to_text`` writes one token per line; ``word_from_text``
reads those lines back into a ``Word``, so tests can round-trip a compiled
word and write unusual words by hand.  Blank lines and ``#`` comment lines
are skipped; a malformed line raises ``CoordError``.
"""

from __future__ import annotations

from plumbtrace.dtcoords import CoordError
from plumbtrace.standardpos import Conn, Crossing, SccLoop, Token, Word
from plumbtrace.surface import parse_slot


def _parse_end(text: str) -> tuple[int, int]:
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ValueError(text)
    pants, slot = inner[1:-1].split(",")
    return int(pants), parse_slot(slot)


# per kind of token line: the fields it must carry, in token order, each
# with its reader
_TOKEN_FIELDS = {
    "cross": {"c": int, "out": _parse_end, "in": _parse_end, "t": int},
    "conn": {"p": int, "in": parse_slot, "out": parse_slot},
    "loop": {"p": int, "slot": parse_slot, "s": int},
}


def word_from_text(arity: int, text: str) -> Word:
    tokens: list[Token] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *parts = line.split()
        if kind not in _TOKEN_FIELDS:
            raise CoordError(f"unknown word token {kind!r}")
        spec = _TOKEN_FIELDS[kind]
        fields = {}
        for part in parts:
            key, eq, value = part.partition("=")
            if not eq:
                raise CoordError(f"{kind} token: bad part {part!r}, expected key=value")
            if key not in spec:
                raise CoordError(f"{kind} token: unknown field {key!r}")
            if key in fields:
                raise CoordError(f"{kind} token: repeated field {key!r}")
            fields[key] = value
        values = []
        for key, read in spec.items():
            if key not in fields:
                raise CoordError(f"{kind} token: missing field {key!r}")
            try:
                values.append(read(fields[key]))
            except ValueError:
                raise CoordError(
                    f"{kind} token: field {key!r} has bad value {fields[key]!r}"
                ) from None
        if kind == "cross":
            curve, out, into, twist = values
            tokens.append(Crossing(curve - 1, *out, *into, twist))
        elif kind == "conn":
            tokens.append(Conn(*values))
        else:
            tokens.append(SccLoop(*values))
    return Word(arity, tuple(tokens))
