"""Run the mutation census of ``mutants.py``.

    python3 tests/run_mutants.py

Each mutant is applied alone to a fresh copy of ``src/`` in a temporary
directory, and its test file runs against that copy in a subprocess
(``pytest -x -q``).  One line per mutant says ``killed`` (the test file
failed), ``survived`` (it passed), ``error`` (pytest could not run it) or
``timeout`` (after TIMEOUT seconds).  The exit status is 1 when any
mutant was not killed.
Standard library only, besides the pytest the tests need.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS, Mutant, apply

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per mutant; the slowest test file takes about 5


def run_mutant(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="plumbtrace-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        target.write_text(apply(mutant, target.read_text()))
        # the copy, not the checkout's src/, goes on the path: pytest's
        # pythonpath setting is overridden, and no bytecode is written
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", mutant.test,
        ]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")


def main() -> int:
    survivors = 0
    for i, mutant in enumerate(MUTANTS):
        status = run_mutant(mutant)
        survivors += status != "killed"
        print(f"{i:3d} {status:9s} {mutant.module}: {mutant.replacement.strip()}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
