"""Command-line front end.

Subcommands: trace, verify, word, convert-twist, random, kra.  Every
subcommand that reads a surface validates it before touching coordinates.
Output is plain text or, for every subcommand but word, JSON lines
(--format jsonl); JSON field names are part of the stable interface.
Exit codes: 0 success, 1 verification failure, 2 input error (an
``OSError`` or ``surface.InputError``, one ``error:`` line; a curve too
large for memory, ``error: out of memory``), 3 internal error (any other
exception, a plain ``ValueError`` too: a fault in plumbtrace itself,
reported as one ``internal error:`` line, never as a traceback), 141
standard output closed by its reader before the run ended (nothing on
stderr).
``--seed`` defaults to the PLUMBTRACE_SEED environment variable, read only
by the subcommands that draw curves.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dtcoords import CoordError, DTCoords, window_twists
from .holonomy import (
    annulus_from_gluing_parameter,
    component_trace,
    evaluate_word,
    gluing_parameter_from_annulus,
)
from .standardpos import extract_components, word_to_text
from .surface import InputError, integer, load_surface
from .verifier import verify
from .fuzz import random_coords

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3
# the reader closed standard output; a shell reports 128 + SIGPIPE for a
# process that the signal ends, and Python ignores the signal
EXIT_BROKEN_PIPE = 141


def _parse_vector(flag: str, text: str) -> tuple[int, ...]:
    """The entries of `text`, separated by commas with optional spaces
    around each, the whole optionally in one pair of brackets as the
    output prints a vector; anything else is refused, not read as some
    other vector."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    entries = [entry.strip() for entry in body.split(",")]
    if entries == [""]:
        return ()
    try:
        return tuple(map(integer, entries))
    except InputError:
        raise CoordError(f"{flag} must be integers separated by commas, got {text!r}") from None


def _coords_from_args(args) -> DTCoords:
    return DTCoords(_parse_vector("--q", args.q), _parse_vector("--p", args.p))


def _emit(args, record: dict, text: str) -> None:
    if args.format == "jsonl":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _check_non_negative(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise CoordError(f"--{name.replace('_', '-')} must be non-negative, got {value}")


def _seed(args) -> int:
    """--seed, else the PLUMBTRACE_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    return integer(os.environ.get("PLUMBTRACE_SEED", "0"), "PLUMBTRACE_SEED")


def _add_format_arg(sub):
    sub.add_argument("--format", choices=("text", "jsonl"), default="text")


def _add_surface_coord_args(sub):
    sub.add_argument("--surface", required=True, help="surface description file")
    sub.add_argument("--q", required=True, help="intersection numbers, e.g. 2,0")
    sub.add_argument("--p", required=True, help="twists, e.g. 0,4")


def _add_sample_args(sub, max_q: int):
    """The options of the subcommands that draw curves (``_sample``)."""
    _add_format_arg(sub)
    sub.add_argument("--seed", type=integer, help="default: $PLUMBTRACE_SEED or 0")
    sub.add_argument("--max-q", type=integer, default=max_q)
    sub.add_argument("--max-abs-p", type=integer, default=8)


def _sample(args, surface, count: int, connected_only: bool) -> list[DTCoords]:
    return random_coords(
        surface, seed=_seed(args), max_q=args.max_q, max_abs_p=args.max_abs_p,
        count=count, connected_only=connected_only,
    )


def cmd_trace(args) -> int:
    surface = load_surface(args.surface)
    coords = _coords_from_args(args)
    results = []  # every trace is computed before the first line is printed
    for comp in extract_components(surface, coords):
        if args.matrix and comp.word is not None:
            matrix = evaluate_word(comp.word)  # one evaluation for both
            results.append((comp, matrix.trace(), matrix))
        else:
            results.append((comp, component_trace(comp), None))
    for idx, (comp, trace, matrix) in enumerate(results):
        record = {
            "kind": "trace",
            "component": idx,
            "q": list(comp.q),
            "phat": list(comp.phat),
            "parallel_to": None if comp.parallel_to is None else comp.parallel_to + 1,
            "trace": str(trace),
        }
        text = f"component {idx} q={list(comp.q)} trace={record['trace']}"
        if matrix is not None:
            record["matrix"] = str(matrix)
            text += f" matrix={record['matrix']}"
        _emit(args, record, text)
    return EXIT_OK


def cmd_word(args) -> int:
    surface = load_surface(args.surface)
    coords = _coords_from_args(args)
    for idx, comp in enumerate(extract_components(surface, coords)):
        if comp.word is None:
            print(f"# component {idx}: parallel to curve {comp.parallel_to + 1}")
            continue
        print(f"# component {idx}: q={list(comp.q)} phat={list(comp.phat)}")
        print(word_to_text(comp.word))
    return EXIT_OK


def cmd_convert_twist(args) -> int:
    surface = load_surface(args.surface)
    coords = _coords_from_args(args)
    phat = window_twists(surface, coords)
    _emit(
        args,
        {"kind": "window-twist", "q": list(coords.q), "p": list(coords.p), "phat": list(phat)},
        f"phat={list(phat)}",
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_non_negative(args, "fuzz", "max_q", "max_abs_p")
    if args.fuzz is not None and (args.q is not None or args.p is not None):
        raise CoordError("pass --q and --p, or --fuzz N, not both")
    surface = load_surface(args.surface)
    if args.fuzz is not None:
        curves = _sample(args, surface, args.fuzz, connected_only=True)
    elif args.q is None or args.p is None:
        raise CoordError("verify needs --q and --p, or --fuzz N")
    else:
        curves = [_coords_from_args(args)]
    ok = True
    for coords in curves:
        report = verify(surface, coords)
        record = report.to_record()
        record["kind"] = "verify"
        status = "PASS" if report.passed else "FAIL"
        text = f"{status} q={list(coords.q)} p={list(coords.p)} trace={record['trace']}"
        if not report.passed:
            text += " | " + "; ".join(report.failures())
            ok = False
        _emit(args, record, text)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_random(args) -> int:
    _check_non_negative(args, "count", "max_q", "max_abs_p")
    surface = load_surface(args.surface)
    for coords in _sample(args, surface, args.count, args.connected_only):
        _emit(
            args,
            {"kind": "coords", "q": list(coords.q), "p": list(coords.p)},
            f"q={list(coords.q)} p={list(coords.p)}",
        )
    return EXIT_OK


def _complex(flag: str, text: str) -> complex:
    """`text` as complex() reads it, once it is known to be ASCII with no
    '_': complex() alone reads '1_0' as 10, and a fullwidth '\uff11' as 1."""
    if not text.isascii() or "_" in text:
        raise CoordError(f"{flag} must be ASCII with no '_', got {text!r}")
    try:
        return complex(text)
    except ValueError as exc:  # complex() arg is a malformed string
        raise InputError(str(exc)) from None


def cmd_kra(args) -> int:
    if (args.to_tau is None) == (args.from_tau is None):
        raise CoordError("pass exactly one of --to-tau / --from-tau")
    if args.to_tau is not None:
        value = gluing_parameter_from_annulus(_complex("--to-tau", args.to_tau))
        record = {"kind": "kra", "direction": "annulus->tau", "value": str(value)}
    else:
        value = annulus_from_gluing_parameter(_complex("--from-tau", args.from_tau))
        record = {"kind": "kra", "direction": "tau->annulus", "value": str(value)}
    _emit(args, record, str(value))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbtrace",
        description="Exact holonomy trace polynomials from Dehn-Thurston coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace polynomial per component")
    _add_surface_coord_args(p)
    _add_format_arg(p)
    p.add_argument("--matrix", action="store_true", help="also print the 2x2 matrix")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("word", help="print the compiled holonomy word")
    _add_surface_coord_args(p)
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("convert-twist", help="symmetric twist -> window twist")
    _add_surface_coord_args(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_convert_twist)

    p = sub.add_parser("verify", help="check the top-term shape of the trace")
    p.add_argument("--surface", required=True)
    p.add_argument("--q", help="intersection numbers (omit with --fuzz)")
    p.add_argument("--p", help="twists (omit with --fuzz)")
    p.add_argument("--fuzz", type=integer, help="verify N random connected curves")
    _add_sample_args(p, max_q=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="emit random admissible coordinates")
    p.add_argument("--surface", required=True)
    p.add_argument("--count", type=integer, default=10)
    _add_sample_args(p, max_q=6)
    p.add_argument("--connected-only", action="store_true")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser(
        "kra",
        help="convert between annulus and gluing parameters",
        description="Convert between the annulus parameter t_K and the gluing "
        "parameter tau.  A value that starts with '-' must be joined to its "
        "flag with '=', as in --from-tau=-1e308j: as a separate word, "
        "-1e308j would be read as an option.",
    )
    p.add_argument("--to-tau", help="annulus parameter t_K, e.g. 0.5+0.1j or --to-tau=-0.5+0.1j")
    p.add_argument("--from-tau", help="gluing parameter tau, e.g. 1+4j or --from-tau=-1e308j")
    _add_format_arg(p)
    p.set_defaults(func=cmd_kra)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed standard output, as `| head` does: no input
        # error, but no success either, since the curves not yet printed
        # were not checked
        return EXIT_BROKEN_PIPE
    except (OSError, InputError) as exc:  # SurfaceError and CoordError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:  # an input too large to hold, such as 10^12 copies
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a fault in plumbtrace, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # what is still buffered would raise again in the flush at exit:
        # send it to the null device, so that stderr stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
