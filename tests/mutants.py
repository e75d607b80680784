"""The mutation census: one-line faults that the tests must notice.

Each mutant names a module of the package, one whole line of it as it
stands (indentation included), the line that replaces it, and the test
file that must fail once that replacement is made.  ``test_mutants.py``
checks that every listed line occurs exactly once in its module, so an
edit to the code cannot leave the census pointing at nothing;
``run_mutants.py`` applies the mutants one at a time to a copy of
``src/`` and reports each as killed or survived.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    module: str  # dotted name, as plumbtrace.verifier
    line: str  # one whole source line, as it stands
    replacement: str  # the whole line that replaces it
    test: str  # the test file that must fail, relative to the repository root

    @property
    def path(self) -> str:
        """The module's file, relative to ``src/``."""
        return self.module.replace(".", "/") + ".py"


def apply(mutant: Mutant, source: str) -> str:
    """`source` with the mutant's line replaced; refuses a line that does
    not occur exactly once."""
    lines = source.split("\n")
    hits = [i for i, line in enumerate(lines) if line == mutant.line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.module}: {len(hits)} copies of {mutant.line.strip()!r}")
    lines[hits[0]] = mutant.replacement
    return "\n".join(lines)


MUTANTS = [
    # verifier: the magnitude half of the leading clause, twice, and the
    # one-copy case of the parallel-copies refusal
    Mutant(
        "plumbtrace.verifier",
        "    leading_ok = trace.imag == bool(q_tot & 1) and abs(lead) == 1 << h",
        "    leading_ok = trace.imag == bool(q_tot & 1) and abs(lead) >= 1 << h",
        "tests/test_verifier.py",
    ),
    Mutant(
        "plumbtrace.verifier",
        "    leading_ok = trace.imag == bool(q_tot & 1) and abs(lead) == 1 << h",
        "    leading_ok = trace.imag == bool(q_tot & 1) and abs(lead) in (1 << h, 2 << h)",
        "tests/test_verifier.py",
    ),
    Mutant(
        "plumbtrace.verifier",
        "    if parallel > 1 or (parallel and any(coords.q)):",
        "    if parallel > 1:",
        "tests/test_verifier.py",
    ),
    # kernel: slot width, leading sign, column step, slot read
    Mutant(
        "plumbtrace.holonomy",
        "    width = _slot_width(max(b00 + b11, b01, b10))",
        "    width = _slot_width(max(b00, b11, b01, b10))",
        "tests/test_holonomy.py",
    ),
    Mutant(
        "plumbtrace.holonomy",
        "    bits = bound.bit_length() + 1  # bound < 2^(bits - 1)",
        "    bits = bound.bit_length()",
        "tests/test_holonomy.py",
    ),
    Mutant(
        "plumbtrace.gausspoly",
        "    if packed.bit_length() >= (size - 1) * width:",
        "    if packed.bit_length() > (size - 1) * width:",
        "tests/test_verifier.py",
    ),
    Mutant(
        "plumbtrace.holonomy",
        "    return ax - t if k == 1 else ax + t if k == -1 else ax - k * t",
        "    return ax - t if k == 1 else ax - t if k == -1 else ax - k * t",
        "tests/test_holonomy.py",
    ),
    Mutant(
        "plumbtrace.gausspoly",
        '    bias = int.from_bytes((bytes(nbytes - 1) + b"\\x80") * size, "little")',
        '    bias = int.from_bytes((bytes(nbytes - 1) + b"\\x40") * size, "little")',
        "tests/test_gausspoly.py",
    ),
    # layout: a forbidden return pattern, the strand count of a walk, the
    # stop of the returning block's descending id slice and its guard at
    # id 0, and the start of one matching slice of the ids
    Mutant(
        "plumbtrace.standardpos",
        '_FORBIDDEN = (("succ", "succ", -2), ("pred", "pred", 2))',
        '_FORBIDDEN = (("succ", "succ", -2),)',
        "tests/test_reference_layout.py",
    ),
    Mutant(
        "plumbtrace.standardpos",
        "        k = seen.count(1, lo, hi) // 2",
        "        k = seen.count(1, lo, hi)",
        "tests/test_standardpos.py",
    ),
    Mutant(
        "plumbtrace.standardpos",
        "                back = slice(w0 + d * (2 * s + n - 1), w0 + d * (s + n - 1), -d)",
        "                back = slice(w0 + d * (2 * s + n - 1), w0 + d * (s + n), -d)",
        "tests/test_reference_layout.py",
    ),
    Mutant(
        "plumbtrace.standardpos",
        "                there = slice(o0 + e * (first + n - 1), stop if stop >= 0 else None, -e)",
        "                there = slice(o0 + e * (first + n - 1), stop if stop > 0 else None, -e)",
        "tests/test_reference_layout.py",
    ),
    Mutant(
        "plumbtrace.standardpos",
        "        mate[b:b + r] = ids[b - r:b]",
        "        mate[b:b + r] = ids[b - r + 1:b + 1]",
        "tests/test_standardpos.py",
    ),
    # verifier: the box shortcut's guard, the axis clause, both degree
    # bounds, the parallel component's slot check
    Mutant(
        "plumbtrace.verifier",
        "    if q_tot and all(map(le, trace.counts, q)):",
        "    if all(map(le, trace.counts, q)):",
        "tests/test_verifier.py",
    ),
    Mutant(
        "plumbtrace.verifier",
        "    leading_ok = trace.imag == bool(q_tot & 1) and abs(lead) == 1 << h",
        "    leading_ok = abs(lead) == 1 << h",
        "tests/test_verifier.py",
    ),
    Mutant(
        "plumbtrace.verifier",
        "    report.remainder_degree_ok = max(map(sum, rest), default=-1) <= q_tot - 2",
        "    report.remainder_degree_ok = max(map(sum, rest), default=-1) <= q_tot - 1",
        "tests/test_verifier.py",
    ),
    Mutant(
        "plumbtrace.verifier",
        "        max(map(itemgetter(i), monos), default=-1) <= q[i] for i in range(arity)",
        "        max(map(itemgetter(i), monos), default=-1) <= q[i] + 1 for i in range(arity)",
        "tests/test_verifier.py",
    ),
    Mutant(
        "plumbtrace.verifier",
        "        ok = lead == 2 and not trace.imag and not any(trace.slots[1:])",
        "        ok = lead == 2 and not trace.imag",
        "tests/test_verifier.py",
    ),
    # sampler (the same-boundary arc sum lives in scc_count, below)
    Mutant(
        "plumbtrace.fuzz",
        "                out[i] += 1",
        "                out[i] += 0",
        "tests/test_fuzz_oracle.py",
    ),
    # the one-pass _factor: in-slot of the current crossing, run not
    # cleared, closing step dropped, first crossing not counted
    Mutant(
        "plumbtrace.holonomy",
        "                (k00, k01), (k10, k11) = joint_matrix(prev.in_slot, run, tok.out_slot)",
        "                (k00, k01), (k10, k11) = joint_matrix(tok.in_slot, run, tok.out_slot)",
        "tests/test_holonomy.py",
    ),
    Mutant(
        "plumbtrace.holonomy",
        "            prev, run = tok, ()",
        "            prev = tok",
        "tests/test_holonomy.py",
    ),
    Mutant(
        "plumbtrace.holonomy",
        "    steps.append((prev.curve, k00 - twice * k10, k10, k01 - twice * k11, k11))",
        "    pass",
        "tests/test_holonomy.py",
    ),
    Mutant(
        "plumbtrace.holonomy",
        "            counts[tok.curve] += 1",
        "            counts[tok.curve] += prev is not None",
        "tests/test_holonomy.py",
    ),
    # the turn read from a traversal's slots, and the one integer grammar
    Mutant(
        "plumbtrace.standardpos",
        '    turns = (None, "succ", "pred")',
        '    turns = (None, "pred", "succ")',
        "tests/test_standardpos.py",
    ),
    Mutant(
        "plumbtrace.surface",
        '_INTEGER = re.compile(r"[+-]?[0-9]+")',
        '_INTEGER = re.compile(r"[+-]?\\d+")',
        "tests/test_surface.py",
    ),
    # slot tokens named once, and kra's value grammar
    Mutant(
        "plumbtrace.surface",
        "_SLOT_VALUES = {name: slot for slot, name in SLOT_NAMES.items()}",
        '_SLOT_VALUES = {name: slot for slot, name in SLOT_NAMES.items()} | {"2": SLOT_INF}',
        "tests/test_surface.py",
    ),
    Mutant(
        "plumbtrace.cli",
        '    if not text.isascii() or "_" in text:',
        "    if False:",
        "tests/test_cli.py",
    ),
    # the per-curve bookkeeping as plain loops: the parity test of one
    # pants, the successor slot whose dcc counts an end's arcs, the sum of
    # same-boundary arcs, the parallel-copies pre-count, one subleading
    # monomial, |K_0| in the L1 bound; and an off-by-one slice of the
    # matching, which makes the walk from node 0 open and must fail fast
    Mutant(
        "plumbtrace.dtcoords",
        "        if (x + y + z) % 2:",
        "        if (x + y) % 2:",
        "tests/test_dtcoords.py",
    ),
    Mutant(
        "plumbtrace.dtcoords",
        "    return pattern[pants_a].dcc[(slot_a + 1) % 3] + pattern[pants_b].dcc[(slot_b + 1) % 3]",
        "    return pattern[pants_a].dcc[(slot_a + 1) % 3] + pattern[pants_b].dcc[(slot_b + 2) % 3]",
        "tests/test_dtcoords.py",
    ),
    Mutant(
        "plumbtrace.standardpos",
        "        h += a + b + c",
        "        h += a + b",
        "tests/test_standardpos.py",
    ),
    Mutant(
        "plumbtrace.verifier",
        "            parallel += pi",
        "            parallel += 1",
        "tests/test_verifier.py",
    ),
    Mutant(
        "plumbtrace.verifier",
        "        mono = lead_mono[:i] + (q[i] - 1,) + lead_mono[i + 1:]",
        "        mono = lead_mono[:i] + (q[i],) + lead_mono[i + 1:]",
        "tests/test_verifier.py",
    ),
    Mutant(
        "plumbtrace.holonomy",
        "    x0, y0, x1, y1 = abs(x0), abs(y0), abs(x1), abs(y1)",
        "    x0, y0, x1, y1 = x0, y0, abs(x1), abs(y1)",
        "tests/test_holonomy.py",
    ),
    Mutant(
        "plumbtrace.standardpos",
        "        mate[b:b + r] = ids[b - r:b]",
        "        mate[b:b + r] = ids[b - r + 1:b + 1]",
        "tests/test_reference_layout.py",
    ),
    # byte-granular slots: the sign threshold of the fill table, the byte
    # a spread slot is sign-extended from, the 32-bit floor (bits < 32
    # would be equivalent: 32 bits round to 32) and the rounding to whole
    # bytes
    Mutant(
        "plumbtrace.gausspoly",
        "_SIGN_FILL = bytes(0xFF if b >= 0x80 else 0 for b in range(256))",
        "_SIGN_FILL = bytes(0xFF if b >= 0x40 else 0 for b in range(256))",
        "tests/test_gausspoly.py",
    ),
    Mutant(
        "plumbtrace.gausspoly",
        "        sign = raw[nbytes - 1 :: nbytes].translate(_SIGN_FILL)",
        "        sign = raw[nbytes - 2 :: nbytes].translate(_SIGN_FILL)",
        "tests/test_gausspoly.py",
    ),
    Mutant(
        "plumbtrace.holonomy",
        "    if bits <= 32:",
        "    if bits <= 16:",
        "tests/test_holonomy.py",
    ),
    Mutant(
        "plumbtrace.holonomy",
        "    return -(-bits // 8) * 8",
        "    return bits // 8 * 8",
        "tests/test_holonomy.py",
    ),
    # exit 2 is bad input alone: the catch widened back to every
    # ValueError, the complex() refusal left unwrapped, and both refusals
    # of a count no list can index dropped
    Mutant(
        "plumbtrace.cli",
        "    except (OSError, InputError) as exc:  # SurfaceError and CoordError included",
        "    except (OSError, ValueError) as exc:  # SurfaceError and CoordError included",
        "tests/test_cli.py",
    ),
    Mutant(
        "plumbtrace.cli",
        "        raise InputError(str(exc)) from None",
        "        raise",
        "tests/test_cli.py",
    ),
    Mutant(
        "plumbtrace.standardpos",
        "        if nodes > sys.maxsize:  # more ids than a list can index",
        "        if False:",
        "tests/test_cli.py",
    ),
    Mutant(
        "plumbtrace.standardpos",
        "            if coords.p[i] > sys.maxsize:  # more copies than a list can index",
        "            if False:",
        "tests/test_cli.py",
    ),
    # the sampler's twist where q = 0, the per-slot read above 64 bits,
    # the wraps and remainder of a window twist, and a same-slot return's
    # loop in the joint matrix
    Mutant(
        "plumbtrace.fuzz",
        "            out[i] = abs(out[i])",
        "            out[i] = out[i]",
        "tests/test_fuzz_oracle.py",
    ),
    Mutant(
        "plumbtrace.gausspoly",
        '        return tuple(int.from_bytes(raw[i : i + nbytes], "little", signed=True) for i in step)',
        '        return tuple(int.from_bytes(raw[i : i + nbytes], "little", signed=False) for i in step)',
        "tests/test_gausspoly.py",
    ),
    Mutant(
        "plumbtrace.standardpos",
        "        w, r = divmod(phat[i], q)",
        "        w, r = divmod(abs(phat[i]), q)",
        "tests/test_standardpos.py",
    ),
    Mutant(
        "plumbtrace.holonomy",
        "        loop = _int_matmul(((1, 0), (2 * sign, 1)), _SLOT_TO_TOP[slot])",
        "        loop = _int_matmul(((1, 0), (2, 1)), _SLOT_TO_TOP[slot])",
        "tests/test_holonomy.py",
    ),
]
