"""Command-line interface: output formats, exit codes, round trips."""

import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from plumbtrace import cli, gausspoly, holonomy, standardpos
from plumbtrace.fuzz import random_coords
from plumbtrace.standardpos import SccLoop
from plumbtrace.surface import load_surface
from tests_support import clear_shared_tables, stock_file

SURFACES = Path(__file__).resolve().parent.parent / "surfaces"
S04 = str(SURFACES / "four_holed_sphere.surf")
S11 = str(SURFACES / "one_holed_torus.surf")
S12 = str(SURFACES / "twice_holed_torus.surf")
SRC = str(Path(cli.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trace_golden(capsys):
    code, out, _ = run(capsys, "trace", "--surface", S04, "--q", "2", "--p", "0")
    assert code == 0
    assert out.strip() == "component 0 q=[2] trace=4*t1^2 - 8*t1 + 6"


def test_trace_matrix_flag(capsys):
    code, out, _ = run(
        capsys, "trace", "--surface", S11, "--q", "1", "--p", "0", "--matrix"
    )
    assert code == 0
    assert "matrix=[[-i*t1 + i, -i], [-i, 0]]" in out


@pytest.mark.parametrize(
    "argv,words",
    [
        (("--surface", S11, "--q", "2", "--p", "0"), 2),  # two copies of one word
        (("--surface", str(SURFACES / "genus_two.surf"), "--q=1,8,1", "--p=-11,-18,9"), 1),
        (("--surface", S04, "--q", "0", "--p", "1"), 0),  # parallel: no word
    ],
)
def test_trace_matrix_evaluates_each_word_once(capsys, monkeypatch, argv, words):
    # the printed trace and the printed matrix come from one evaluation;
    # `cli` binds `evaluate_word` itself, so count the kernel's first step
    calls = []

    def counted(word):
        calls.append(word)
        return factor(word)

    factor = holonomy._factor
    monkeypatch.setattr(holonomy, "_factor", counted)
    code, out, _ = run(capsys, "trace", *argv, "--matrix")
    assert code == 0
    assert len(calls) == out.count(" matrix=") == words


@pytest.mark.parametrize(
    "flags,expected",
    [((), "4802383a235a6999"), (("--matrix",), "9fade5e3a4278875")],
)
def test_trace_wide_slot_golden(capsys, monkeypatch, flags, expected):
    # 72-bit slots, which no 32- or 64-bit word cast reads: the 686-char
    # trace, and the matrix, pinned by the sha256 prefix of the output
    widths = []

    def recorded(packed, size, width):
        widths.append(width)
        return read(packed, size, width)

    read = gausspoly._slots
    monkeypatch.setattr(gausspoly, "_slots", recorded)
    code, out, _ = run(capsys, "trace", "--surface", S11, "--q", "52", "--p", "54", *flags)
    assert code == 0
    assert set(widths) == {72}
    assert len(out.splitlines()[0].split(" trace=")[1].split(" matrix=")[0]) == 686
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected


def test_trace_jsonl_schema(capsys):
    code, out, _ = run(
        capsys,
        "trace", "--surface", S11, "--q", "2", "--p", "0", "--format", "jsonl",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 2
    assert set(records[0]) == {"kind", "component", "q", "phat", "parallel_to", "trace"}
    assert records[0]["trace"] == "i*t1 - i"


def test_convert_twist_golden(capsys):
    # once-crossing configuration with twist -1 converts to window twist 0
    code, out, _ = run(
        capsys,
        "convert-twist", "--surface", S12, "--q=1,1", "--p=-1,-1",
    )
    assert code == 0
    assert out.strip() == "phat=[0, -1]"


def test_word_round_trip(capsys):
    from oracle import canonical_sign, lift
    from plumbtrace.holonomy import evaluate_word
    from word_text import word_from_text

    code, word_out, _ = run(capsys, "word", "--surface", S04, "--q", "2", "--p", "4")
    assert code == 0
    body = "\n".join(l for l in word_out.splitlines() if not l.startswith("#"))
    word = word_from_text(1, body)

    code, trace_out, _ = run(capsys, "trace", "--surface", S04, "--q", "2", "--p", "4")
    reparsed = str(canonical_sign(lift(evaluate_word(word)).trace()))
    assert f"trace={reparsed}" in trace_out


def test_verify_single_curve(capsys):
    code, out, _ = run(capsys, "verify", "--surface", S04, "--q", "2", "--p", "0")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_fuzz_campaign(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--surface", S12, "--fuzz", "20", "--seed", "7",
        "--max-q", "4", "--format", "jsonl",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 20
    assert all(r["passed"] for r in records)


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a failing report through the CLI path
    class FailingReport:
        passed = False
        trace = "0"

        def to_record(self):
            return {"passed": False, "trace": self.trace}

        def failures(self):
            return ["forced failure"]

    monkeypatch.setattr(cli, "verify", lambda s, c: FailingReport())
    code, out, _ = run(capsys, "verify", "--surface", S04, "--q", "2", "--p", "0")
    assert code == 1
    assert out.startswith("FAIL")


def test_closed_stdout_in_run(capsys, monkeypatch):
    # `verify --fuzz ... | head -1`: the reader goes away after one line;
    # that is no input error and prints nothing, but the curves not yet
    # printed were not checked, so it is no success either; `run` leaves the
    # process's descriptors alone, so a stdout without one is fine
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = cli.run(["verify", "--surface", S04, "--fuzz", "3", "--seed", "7", "--max-q", "4"])
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        # the whole output fits the buffer: the flush in `main` meets the
        # closed pipe
        ("verify", "--surface", S04, "--fuzz", "3", "--seed", "7", "--max-q", "4"),
        # more than a buffer: a write inside the command meets it
        ("random", "--surface", S04, "--count", "1000"),
    ],
    ids=["at_exit", "while_running"],
)
def test_closed_stdout_process(argv):
    # a pipe whose read end is closed before the process starts, so every
    # write to it fails; the buffered rest must not raise again at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as a pipe is by default
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "plumbtrace.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert proc.stderr == b""


def run_capped(*argv):
    """`python -m plumbtrace.cli` on `argv` inside a 1 GiB address space."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "plumbtrace.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=60,
    )


def test_oversized_pants_count_is_refused_up_front(tmp_path):
    # 10^12 declared pants and no gluing: refused from the counts alone,
    # before any work per pants, inside a 1 GiB address space
    surface = tmp_path / "huge.surf"
    surface.write_text("surface g=0 b=3\npants 1000000000000\n")
    proc = run_capped("trace", "--surface", str(surface), "--q", "1", "--p", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: gluing graph is disconnected\n"


@pytest.mark.parametrize("command", ["word", "trace"])
def test_out_of_memory_is_an_input_error(command):
    # 10^12 parallel copies of one pants curve do not fit in 1 GiB: one
    # error line and exit 2, as for any input too large, and no traceback
    curve = ("--surface", str(SURFACES / "genus_two.surf"), "--q=0,0,0", "--p=1000000000000,0,0")
    proc = run_capped(command, *curve)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


G2_CURVE = ("--surface", str(SURFACES / "genus_two.surf"), "--q=1,1,2", "--p=1,1,0")
G2_TRACE = "t1*t2*t3^2 - 2*t1*t2*t3 + 2*t2*t3 + 2*t1*t3 + t1*t2 - 2*t2 - 2*t1 + 2"
FUZZ_5 = ("--surface", S12, "--fuzz", "5", "--seed", "0", "--max-q", "3")


@pytest.mark.parametrize(
    "argv,lines,expected",
    [
        (("trace", *G2_CURVE), 1, f"component 0 q=[1, 1, 2] trace={G2_TRACE}\n"),
        (
            ("trace", *G2_CURVE, "--format", "jsonl"),
            1,
            '{"component": 0, "kind": "trace", "parallel_to": null, "phat": [1, 0, 0], '
            f'"q": [1, 1, 2], "trace": "{G2_TRACE}"}}\n',
        ),
        (("verify", *G2_CURVE), 1, f"PASS q=[1, 1, 2] p=[1, 1, 0] trace={G2_TRACE}\n"),
        (
            ("verify", *G2_CURVE, "--format", "jsonl"),
            1,
            '{"h": 0, "kind": "verify", "leading": "1", "leading_ok": true, '
            '"p": [1, 1, 0], "passed": true, "per_variable_degree_ok": true, '
            '"q": [1, 1, 2], "remainder_degree_ok": true, "subleading": ['
            '{"curve": 1, "observed": "0", "ok": true, "predicted": "0"}, '
            '{"curve": 2, "observed": "0", "ok": true, "predicted": "0"}, '
            '{"curve": 3, "observed": "-2", "ok": true, "predicted": "-2"}], '
            f'"trace": "{G2_TRACE}"}}\n',
        ),
        (("verify", *FUZZ_5), 5, "9262903721d32b6e"),
        (("verify", *FUZZ_5, "--format", "jsonl"), 5, "445d055e924f7b5c"),
    ],
)
def test_each_trace_line_renders_its_trace_once(capsys, monkeypatch, argv, lines, expected):
    # one slot render per printed trace, and the same bytes as before the
    # string was reused (long outputs are pinned by their sha256 prefix)
    calls = []

    def counted(*args):
        calls.append(args)
        return render(*args)

    render = gausspoly._render_slots
    monkeypatch.setattr(gausspoly, "_render_slots", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == len(calls) == lines
    if len(expected) == 16:
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected
    else:
        assert out == expected


G21 = str(SURFACES.parent / "pipebench" / "surfaces" / "genus_two_one_hole.surf")


def test_verify_golden_on_the_imaginary_axis(capsys):
    # odd q_tot: every coefficient, and each one the record prints, is
    # imaginary; both outputs are pinned byte for byte
    argv = ("--surface", S11, "--q", "1", "--p", "0", "--format", "jsonl")
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert out == (
        '{"h": 0, "kind": "verify", "leading": "i", "leading_ok": true, "p": [0], '
        '"passed": true, "per_variable_degree_ok": true, "q": [1], '
        '"remainder_degree_ok": true, "subleading": [{"curve": 1, "observed": "-i", '
        '"ok": true, "predicted": "-i"}], "trace": "i*t1 - i"}\n'
    )
    argv = ("--surface", G21, "--q=1,2,0,2", "--p=8,-1,0,-8", "--format", "jsonl")
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "60d22c4e5dbaae9f7d64c734715dd8c165d2f32655775037a5373d4b2a4ec36e"
    )
    record = json.loads(out)
    assert record["passed"] and record["leading"] == "2i"
    assert [c["observed"] for c in record["subleading"]] == ["14i", "-6i", "-20i"]


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "trace", "--surface", S04, "--q", "1", "--p", "0")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "trace", "--surface", "no-such-file", "--q", "1", "--p", "0")
    assert code == 2


def test_verify_without_coordinates_is_input_error(capsys):
    code, out, err = run(capsys, "verify", "--surface", str(SURFACES / "genus_two.surf"))
    assert code == 2
    assert out == ""
    assert err == "error: verify needs --q and --p, or --fuzz N\n"
    code, _, _ = run(capsys, "verify", "--surface", S11, "--q", "1")
    assert code == 2


@pytest.mark.parametrize(
    "named", [("--q", "1", "--p", "0"), ("--q", "1"), ("--p", "0")], ids=["q-and-p", "q", "p"]
)
def test_verify_refuses_fuzz_with_a_named_curve(capsys, named):
    # the named curve would never be checked: refused, nothing sampled
    argv = ("verify", "--surface", str(SURFACES / "genus_two.surf"), "--fuzz", "2")
    code, out, err = run(capsys, *argv, *named)
    assert code == 2
    assert out == ""
    assert err == "error: pass --q and --p, or --fuzz N, not both\n"


def test_verify_fuzz_zero_verifies_no_curve(capsys):
    # an empty sample, as `random --count 0` prints: nothing, exit 0
    code, out, err = run(capsys, "verify", "--surface", G2, "--fuzz", "0")
    assert (code, out, err) == (0, "", "")


def test_verify_refuses_fuzz_zero_with_a_named_curve(capsys):
    argv = ("verify", "--surface", G2, "--fuzz", "0", "--q", "1", "--p", "0")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: pass --q and --p, or --fuzz N, not both\n")


def test_word_takes_no_format(capsys):
    # word prints text only: argparse refuses --format before any work
    with pytest.raises(SystemExit) as exc:
        run(capsys, "word", "--surface", S04, "--q", "2", "--p", "0", "--format", "jsonl")
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit):
        run(capsys, "word", "--help")
    assert "--format" not in capsys.readouterr().out


def test_verify_refuses_multicomponent(capsys):
    code, _, err = run(capsys, "verify", "--surface", S11, "--q", "2", "--p", "0")
    assert code == 2
    assert "connected" in err


def test_verify_refuses_parallel_copies_up_front(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("curve laid out")

    monkeypatch.setattr("plumbtrace.verifier.extract_components", refuse)
    code, out, err = run(capsys, "verify", "--surface", S11, "--q", "0", "--p", str(10**12))
    assert (code, out) == (2, "")
    assert err == "error: verification needs a connected curve; got 1000000000000 components\n"


def test_random_deterministic(capsys):
    args = ("random", "--surface", S12, "--count", "5", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 5


def test_random_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("PLUMBTRACE_SEED", "99")
    args = ("random", "--surface", S12, "--count", "4")
    _, out1, _ = run(capsys, *args)
    monkeypatch.setenv("PLUMBTRACE_SEED", "100")
    _, out2, _ = run(capsys, *args)
    assert out1 != out2


def test_kra_round_trip(capsys):
    code, out, _ = run(capsys, "kra", "--from-tau", "1+4j")
    assert code == 0
    t_k = complex(out.strip())
    code, out, _ = run(capsys, "kra", "--to-tau", str(t_k))
    assert code == 0
    assert abs(complex(out.strip()) - (1 + 4j)) < 1e-12


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--from-tau", "0-1000j"),  # exp overflows
        ("--from-tau", "0+1000j"),  # exp underflows to 0, which --to-tau refuses
        ("--to-tau", "nan"),
        ("--to-tau", "inf"),
        ("--from-tau", "inf"),
    ],
)
def test_kra_refuses_values_outside_the_domain(capsys, flag, value):
    code, out, err = run(capsys, "kra", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("flag", ["--from-tau", "--to-tau"])
def test_kra_takes_a_negative_value_in_the_equals_form(capsys, flag):
    code, out, err = run(capsys, "kra", f"{flag}=-1+4j")
    assert code == 0 and complex(out.strip()) and err == ""
    # a separate "-1+4j" is read as an option, as the kra help says
    with pytest.raises(SystemExit) as exc:
        run(capsys, "kra", flag, "-1+4j")
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--from-tau", "--to-tau"])
@pytest.mark.parametrize("value", ["1_0", "\uff11"])
def test_kra_refuses_underscores_and_non_ascii(capsys, flag, value):
    # complex() alone reads 1_0 as 10 and the fullwidth one (U+FF11) as 1
    code, out, err = run(capsys, "kra", flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be ASCII with no '_', got {value!r}\n"


def test_kra_refuses_a_negative_value_out_of_range(capsys):
    code, out, err = run(capsys, "kra", "--from-tau=-1e308j")
    assert code == 2
    assert out == ""
    assert err.startswith("error: gluing parameter")


def test_kra_help_names_the_equals_form(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "kra", "--help")
    assert "--from-tau=-1e308j" in capsys.readouterr().out


def test_kra_requires_exactly_one_direction(capsys):
    code, _, err = run(capsys, "kra")
    assert code == 2


NEGATIVE_COUNTS = [
    ("verify", "--fuzz"),
    ("verify", "--max-q"),
    ("verify", "--max-abs-p"),
    ("random", "--count"),
    ("random", "--max-q"),
    ("random", "--max-abs-p"),
]


@pytest.mark.parametrize("command,flag", NEGATIVE_COUNTS)
def test_negative_count_is_input_error(capsys, command, flag):
    extra = ("--fuzz", "2") if command == "verify" and flag != "--fuzz" else ()
    code, out, err = run(capsys, command, "--surface", S12, *extra, flag, "-1")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be non-negative, got -1\n"


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(surface, coords):
        raise KeyError("lost slot")

    monkeypatch.setattr(cli, "extract_components", broken)
    code, out, err = run(capsys, "trace", "--surface", S04, "--q", "2", "--p", "0")
    assert code == cli.EXIT_INTERNAL_ERROR == 3
    assert out == ""
    assert err == "internal error: KeyError: 'lost slot'\n"


def test_bad_env_seed_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("PLUMBTRACE_SEED", "abc")
    code, out, err = run(capsys, "random", "--surface", S12, "--count", "2")
    assert code == 2
    assert out == ""
    assert err == "error: PLUMBTRACE_SEED must be an integer, got 'abc'\n"
    # an explicit --seed, or a subcommand that draws nothing, never reads it
    code, out, _ = run(capsys, "random", "--surface", S12, "--count", "2", "--seed", "3")
    assert code == 0 and len(out.splitlines()) == 2
    code, _, _ = run(capsys, "kra", "--from-tau", "1+4j")
    assert code == 0


# an integer is ASCII digits with an optional sign; int() alone would also
# read the underscore form, the fullwidth seven (U+FF17) and the
# Arabic-Indic three (U+0663)
NOT_INTEGERS = ["1_0", "\uff17", "\u0663"]


@pytest.mark.parametrize("text", NOT_INTEGERS)
@pytest.mark.parametrize(
    "command,flag", [("verify", "--seed"), ("random", "--seed")] + NEGATIVE_COUNTS
)
def test_integer_option_refuses_other_grammars(capsys, command, flag, text):
    extra = ("--fuzz", "2") if command == "verify" and flag != "--fuzz" else ()
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, "--surface", S12, *extra, f"{flag}={text}")
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid integer value: {text!r}\n")


@pytest.mark.parametrize("text", NOT_INTEGERS)
def test_env_seed_refuses_other_grammars(capsys, monkeypatch, text):
    monkeypatch.setenv("PLUMBTRACE_SEED", text)
    code, out, err = run(capsys, "random", "--surface", S12, "--count", "2")
    assert (code, out) == (2, "")
    assert err == f"error: PLUMBTRACE_SEED must be an integer, got {text!r}\n"


@pytest.mark.parametrize("text,value", [("7", 7), ("-1", -1), ("+1", 1), ("007", 7)])
def test_integer_forms_read(capsys, monkeypatch, text, value):
    # a sign and leading zeros read as before, in an option and in
    # PLUMBTRACE_SEED alike
    coords = random_coords(load_surface(S12), seed=value, count=abs(value))
    want = "".join(f"q={list(c.q)} p={list(c.p)}\n" for c in coords)
    args = ("random", "--surface", S12, f"--count={abs(value)}")
    assert run(capsys, *args, f"--seed={text}") == (0, want, "")
    monkeypatch.setenv("PLUMBTRACE_SEED", text)
    assert run(capsys, *args) == (0, want, "")
    if value > 0:
        assert run(capsys, *args[:-1], f"--count={text}", f"--seed={value}") == (0, want, "")


def test_sampler_stall_is_input_error(capsys):
    # with q = 0 and p = 0 every curve is empty, so none is connected
    code, _, err = run(
        capsys,
        "random", "--surface", str(SURFACES / "genus_two.surf"), "--count", "1",
        "--max-q", "0", "--max-abs-p", "0", "--connected-only",
    )
    assert code == 2
    assert err == "error: rejection sampling stalled; relax the config\n"


def test_runtime_error_is_internal_error(capsys, monkeypatch):
    def broken(surface, coords):
        raise RuntimeError("layout and arc counts disagree")

    monkeypatch.setattr(cli, "extract_components", broken)
    code, out, err = run(capsys, "trace", "--surface", S04, "--q", "2", "--p", "0")
    assert code == cli.EXIT_INTERNAL_ERROR
    assert out == ""
    assert err == "internal error: RuntimeError: layout and arc counts disagree\n"


def test_layout_bug_is_internal_error(capsys, monkeypatch, request):
    # every same-slot loop built with the opposite sign: the layout check
    # rejects this curve's untwisted return before any word is printed
    argv = ("word", "--surface", str(SURFACES / "genus_two.surf"), "--q=1,2,9", "--p=15,-10,5")
    assert run(capsys, *argv)[0] == cli.EXIT_OK
    monkeypatch.setattr(
        standardpos, "_scc_loop", lambda pants, slot, sign: SccLoop(pants, slot, -sign)
    )
    # the first run's layout is shared by every curve with this q: build it
    # again with the patched loops, and drop that corrupted one at the end
    clear_shared_tables()
    request.addfinalizer(clear_shared_tables)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_INTERNAL_ERROR
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal error: AssertionError: non-embeddable same-slot return")


G2 = str(SURFACES / "genus_two.surf")

# (q, p) on closed genus two, whose two pants both meet all three curves,
# and the one error line every coordinate-reading subcommand prints; pairs
# of faults pin which check reports first
COORD_ERRORS = [
    ("1,0,0", "0,0,0", "pants 0: odd intersection total 1"),
    ("0,2,2", "-1,0,0", "curve 0: q=0 needs twist >= 0"),
    ("2,2", "0,0", "coordinate length 2 does not match 3 pants curves"),
    ("2,2,2", "0,0", "q and p have different lengths"),
    (
        "2,2,2",
        "1,0,0",
        "curve 0: twist 1 is not realizable with these intersection numbers "
        "(window twist would be 1/2)",
    ),
    ("1,0", "0,0", "coordinate length 2 does not match 3 pants curves"),
    ("0,1,0", "-1,0,0", "curve 0: q=0 needs twist >= 0"),
    ("1,0,0", "1,0,0", "pants 0: odd intersection total 1"),
    ("0,2,2", "-1,1,0", "curve 0: q=0 needs twist >= 0"),
    # malformed vectors, refused before any check of the curve, --q first
    ("1,1,2", "1,,1,0", "--p must be integers separated by commas, got '1,,1,0'"),
    ("1;1", "0;0", "--q must be integers separated by commas, got '1;1'"),
] + [
    # a lenient parser reads the first three as q=(1, 1, 2), the next two
    # as 10 and 0, and refuses the last with int()'s own message
    (q, "1,1,0", f"--q must be integers separated by commas, got {q!r}")
    for q in ("1,,1,2", "[1,1,2", "[[1,1,2]]", "1_0", "\uff10", "1;1;2")
]


@pytest.mark.parametrize("command", ["trace", "word", "verify", "convert-twist"])
@pytest.mark.parametrize("q,p,message", COORD_ERRORS)
def test_coordinate_error_precedence(capsys, command, q, p, message):
    code, out, err = run(capsys, command, "--surface", G2, f"--q={q}", f"--p={p}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


NOT_REALIZABLE = "twist {} is not realizable with these intersection numbers (window twist would be {})"

# the same three refusals on the stock surfaces with a free boundary, whose
# slot_curves hold None there: an odd pants total, a negative twist where
# q = 0, and a twist that cannot be realised.  The one-holed torus's pants
# meets its one curve at two slots, so every pants total there is even and
# only the last two can arise.
FREE_SLOT_ERRORS = [
    ("one_holed_torus", "0", "-1", "curve 0: q=0 needs twist >= 0"),
    ("one_holed_torus", "1", "1", "curve 0: " + NOT_REALIZABLE.format(1, "1/2")),
    ("four_holed_sphere", "1", "0", "pants 0: odd intersection total 1"),
    ("four_holed_sphere", "0", "-1", "curve 0: q=0 needs twist >= 0"),
    ("four_holed_sphere", "2", "1", "curve 0: " + NOT_REALIZABLE.format(1, "-1/2")),
    ("twice_holed_torus", "1,0", "0,0", "pants 0: odd intersection total 1"),
    ("twice_holed_torus", "0,2", "-1,0", "curve 0: q=0 needs twist >= 0"),
    ("twice_holed_torus", "2,2", "0,1", "curve 1: " + NOT_REALIZABLE.format(1, "-1/2")),
    ("genus_two_one_hole", "0,0,1,0", "0,0,0,0", "pants 1: odd intersection total 1"),
    ("genus_two_one_hole", "0,2,2,0", "-1,0,0,0", "curve 0: q=0 needs twist >= 0"),
    ("genus_two_one_hole", "0,2,2,0", "0,0,1,0", "curve 2: " + NOT_REALIZABLE.format(1, "1/2")),
]


@pytest.mark.parametrize("command", ["trace", "word", "verify", "convert-twist"])
@pytest.mark.parametrize("surface,q,p,message", FREE_SLOT_ERRORS)
def test_coordinate_errors_with_free_slots(capsys, command, surface, q, p, message):
    code, out, err = run(capsys, command, "--surface", stock_file(surface), f"--q={q}", f"--p={p}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_open_walk_is_internal_error(capsys, monkeypatch):
    # every node crosses to one node whose pants arc leads away from node 0:
    # the walk from node 0 never closes, and stops after half the 8 nodes
    real = standardpos.match_strands

    def broken(layout, coords):
        matching = real(layout, coords)
        node = next(n for n, far in enumerate(layout.arc_mate) if far != 0)
        return standardpos.Matching(matching.shifts, [node] * len(matching.mate), matching.crossing)

    monkeypatch.setattr(standardpos, "match_strands", broken)
    code, out, err = run(capsys, "trace", *G2_CURVE)
    assert (code, out) == (cli.EXIT_INTERNAL_ERROR, "")
    assert err == (
        "internal error: RuntimeError: the walk from node 0 does not close after 4"
        " crossings: the strand matching is not a permutation\n"
    )


# faults that only plumbtrace can raise from the command line, though
# each is a ValueError to a library caller, and a curve that meets each:
# exit 3, not an input error
FACTOR = (holonomy, "_factor", holonomy.WordError, "word contains no crossing")
ZERO_TRACE = (gausspoly.Mat2, "trace", ValueError, "the trace polynomial is zero")
ARITY = (gausspoly.GaussPoly, "coefficient", ValueError, "monomial length does not match arity")
G2_SPLIT = ("trace", "--surface", G2, "--q=2,1,1", "--p=2,1,3")
G2_FUZZ = ("verify", "--surface", G2, "--fuzz", "3")


@pytest.mark.parametrize(
    "fault,argv",
    [
        (FACTOR, G2_SPLIT),
        (FACTOR, G2_FUZZ),
        (ZERO_TRACE, G2_SPLIT),
        (ZERO_TRACE, G2_FUZZ),
        (ARITY, ("verify", *G2_CURVE)),
        (ARITY, G2_FUZZ),
    ],
)
def test_injected_value_error_is_internal_error(capsys, monkeypatch, fault, argv):
    owner, name, kind, message = fault

    def broken(*args):
        raise kind(message)

    monkeypatch.setattr(owner, name, broken)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_INTERNAL_ERROR, "")
    assert err == f"internal error: {kind.__name__}: {message}\n"


def test_non_utf8_surface_is_input_error(capsys, tmp_path):
    text = Path(S04).read_bytes()
    surface = tmp_path / "latin1.surf"
    surface.write_bytes(text + b"# caf\xe9\n")
    code, out, err = run(capsys, "word", "--surface", str(surface), "--q", "2", "--p", "0")
    assert (code, out) == (2, "")
    position = len(text) + len(b"# caf")
    assert err == (
        f"error: 'utf-8' codec can't decode byte 0xe9 in position {position}:"
        " invalid continuation byte\n"
    )


@pytest.mark.parametrize("flag", ["--from-tau", "--to-tau"])
def test_kra_refuses_a_malformed_value(capsys, flag):
    # complex()'s own refusal, word for word, as an input error
    assert run(capsys, "kra", flag, "abc") == (2, "", "error: complex() arg is a malformed string\n")


BEYOND_INDEX = str(10**19)  # above sys.maxsize on every supported platform


@pytest.mark.parametrize(
    "argv",
    [
        ("word", "--q", BEYOND_INDEX, "--p", "0"),
        ("trace", "--q", BEYOND_INDEX, "--p", "0"),
        ("verify", "--q", BEYOND_INDEX, "--p", "0"),
        ("word", "--q", "0", "--p", BEYOND_INDEX),
        ("trace", "--q", "0", "--p", BEYOND_INDEX),
    ],
)
def test_too_many_ids_or_copies_to_index_is_out_of_memory(capsys, argv):
    # a list cannot hold 10^19 node ids or copies: refused as too large for
    # memory, before anything is allocated, not as an OverflowError
    command, *curve = argv
    assert run(capsys, command, "--surface", S11, *curve) == (2, "", "error: out of memory\n")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any number of digits"
)
def test_env_seed_past_the_digit_limit_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("PLUMBTRACE_SEED", "1" * (sys.get_int_max_str_digits() + 1))
    code, out, err = run(capsys, "random", "--surface", S12, "--count", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, vector",
    [
        ("2", (2,)),
        ("1,1,2", (1, 1, 2)),
        ("-1,-1", (-1, -1)),
        ("+1,0", (1, 0)),
        ("[1, 1, 2]", (1, 1, 2)),  # as the output prints q
        (" 1 , 2 ", (1, 2)),
        ("", ()),
        ("[]", ()),
    ],
)
def test_vector_forms_accepted(text, vector):
    assert cli._parse_vector("--q", text) == vector


@pytest.mark.parametrize("argv", [("random", "--connected-only"), ("verify", "--fuzz", "10")])
def test_sampler_stall_prints_no_partial_sample(capsys, argv):
    # some of the sample is drawn before the stall; none of it may be printed
    command, *extra = argv
    code, out, err = run(capsys, command, "--surface", G2, "--seed", "0", "--max-q", "0", *extra)
    assert (code, out, err) == (2, "", "error: rejection sampling stalled; relax the config\n")


# every sha256 that the CI step "CLI as a process" checks and no other test
# here pins, run in-process; the full digests, as the CI lines compare them
CI_GOLDENS = [
    (
        ("trace", "--surface", G2, "--q=1,8,1", "--p=-11,-18,9", "--matrix"),
        "552da3dec8dc06ab8c87a9927dff3c227cdc2e37a1f0d0e476cf9ab806f91c21",
    ),
    (
        ("trace", "--surface", S12, "--q=2,6", "--p=40,-34", "--matrix"),
        "27a556e779503ebd99346f25d9dbcbde8fd5126425d1761213127f6e18f52541",
    ),
    (
        ("trace", "--surface", G2, "--q=6,1,1", "--p=6,5,-7", "--matrix"),
        "e76204b464d996cf9a40eaa3c61b0265af0d449c6831bd8edaebad5b4eea243b",
    ),
    (
        ("word", "--surface", G2, "--q=6,1,1", "--p=6,5,-7"),
        "f9002746e9c541acb93283c12150ba776a3b68bd9d76bea0c433c9f4dd834d9a",
    ),
    (
        ("word", "--surface", G2, "--q=128,128,128", "--p=-128,0,0"),
        "8ea2144d3985ace8fd69ff81468c687614723c9cf5f6a44d3a04d84cf9f2bbba",
    ),
    (
        # one component parallel to curve 1, printed as such
        ("word", "--surface", G2, "--q=0,2,4", "--p=1,-8,-6"),
        "0f5233fa34df761c29f8b70d761278be1c2460fd5728b0595f3b686da8ae1399",
    ),
    (
        ("verify", "--surface", G2, "--fuzz", "200", "--seed", "7", "--max-q", "5",
         "--format", "jsonl"),
        "c5e23099c2f30b7e462b593f8c28d69bfd1bfe42ee4c24e3d606f5d4cdb19870",
    ),
]


@pytest.mark.parametrize("argv,digest", CI_GOLDENS, ids=[d[:8] for _, d in CI_GOLDENS])
def test_ci_golden(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- argv drawn from the real options: every run ends in 0, 1 or 2 -----------

STOCK = sorted(map(str, SURFACES.glob("*.surf"))) + [G21]


def _subcommand_options() -> dict:
    """Per subcommand, the option actions its parser holds, --help aside."""
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: [a for a in sub._actions if a.option_strings and a.dest != "help"]
        for name, sub in subparsers.choices.items()
    }


SUBCOMMANDS = _subcommand_options()
STOCK_SURFACES = {path: load_surface(path) for path in STOCK}
# process argv cannot carry NUL, so no drawn text holds one
junk = st.text(st.characters(exclude_characters="\x00"), max_size=6)
malformed = st.sampled_from(["1_0", "\uff17", "\u0663", "+", "-", "1.5", " 7", "0x1", "1e3", ""])
small = st.integers(-2, 5).map(str)
# options of which a run takes one set: drawn so most often
EXCLUSIVE = {"kra": [{"to_tau"}, {"from_tau"}], "verify": [{"q", "p"}, {"fuzz"}]}
complexes = st.one_of(
    st.sampled_from(["1+4j", "0.5+0.1j", "abc", "0", "nan", "inf", "0-1000j", "1e400", "j"]),
    st.text("0123456789+-.ejn", max_size=6),  # malformed, most of them
)


@st.composite
def surface_paths(draw, directory: Path) -> str:
    """A shipped surface, most often, a copy with a few bytes replaced, or
    no file."""
    kind = draw(st.sampled_from(["stock", "stock", "stock", "corrupt", "missing"]))
    if kind == "missing":
        return str(directory / "missing.surf")
    path = draw(st.sampled_from(STOCK))
    if kind == "stock":
        return path
    data = bytearray(Path(path).read_bytes())
    byte = st.one_of(st.integers(0x20, 0x7E), st.integers(0, 255))
    for at, value in draw(st.lists(st.tuples(st.integers(0, 10**4), byte), min_size=1, max_size=3)):
        data[at % len(data)] = value
    corrupt = directory / "corrupt.surf"
    corrupt.write_bytes(data)
    return str(corrupt)


@st.composite
def vectors(draw, xi: int, low: int) -> str:
    """Entries low .. 6, most often 0 .. 6 and as many as the surface has
    curves."""
    size = xi if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
    entry = st.one_of(st.integers(0, 6), st.integers(low, 6))
    entries = draw(st.lists(entry, min_size=size, max_size=size))
    form = draw(st.sampled_from(["{}", "{}", "{}", "[{}]", "{},"]))
    return form.format(",".join(map(str, entries)))


@st.composite
def argvs(draw, directory: Path) -> list[str]:
    """A subcommand and some of its options, each value of the kind the
    option reads, most often well formed, and half the time on a shipped
    surface an admissible curve as the sampler draws it; --max-q always,
    so that no default above 6 sets the size of a trace."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv, xi, curve = [command], draw(st.integers(1, 4)), None
    sets = EXCLUSIVE.get(command, [])
    chosen = draw(st.sampled_from(sets)) if sets and draw(st.integers(0, 3)) else None
    for action in SUBCOMMANDS[command]:
        if chosen is not None and any(action.dest in one for one in sets):
            if action.dest not in chosen:
                continue
        elif not (action.required or action.dest == "max_q" or draw(st.booleans())):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
            continue
        if not draw(st.integers(0, 7)):
            value = draw(st.one_of(malformed, junk))
        elif action.dest == "surface":
            value = draw(surface_paths(directory))
            surface = STOCK_SURFACES.get(value)
            if surface is not None:
                xi = surface.xi
                if draw(st.booleans()):
                    seed, max_q = draw(st.integers(0, 99)), draw(st.integers(0, 6))
                    (curve,) = random_coords(surface, seed=seed, max_q=max_q, count=1)
        elif action.dest in ("q", "p") and curve is not None:
            value = ",".join(map(str, getattr(curve, action.dest)))
        elif action.dest in ("q", "p"):
            value = draw(vectors(xi, -1 if action.dest == "q" else -6))
        elif action.choices:
            value = draw(st.sampled_from(action.choices))
        elif action.dest in ("to_tau", "from_tau"):
            value = draw(complexes)
        else:  # --fuzz, --count, --seed, --max-q, --max-abs-p
            value = draw(small)
        argv += [f"{flag}={value}"] if draw(st.integers(0, 3)) else [flag, value]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_argv_never_ends_in_an_internal_error(tmp_path_factory, data):
    argv = data.draw(argvs(tmp_path_factory.getbasetemp()))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse refused the argv
            code = ("usage", exc.code)
    out, err = out.getvalue(), err.getvalue()
    assert "internal error" not in err and "Traceback" not in err
    if code == ("usage", 2):
        assert out == "" and err.startswith("usage: ") and "error:" in err
    elif code == cli.EXIT_INPUT_ERROR:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")
    else:
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED) and err == ""
