"""Tests of the pipeline benchmark itself: tiny runs of every workload, the
output check and the seeded curve lists.

Run from the repository root:

    python3 -m pytest pipebench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = ["--seed", "3", "--seconds", "0"]
TINY_STRATA = 12

# runs the benchmark on the cheapest strata of each workload's pool
SMALL_POOL = """
import sys
sys.path.insert(0, {here!r})
import run
load_pool = run.load_pool
run.load_pool = lambda workload: load_pool(workload)[:{strata}]
{patch}
sys.exit(run.main(sys.argv[1:]))
"""

# alters the layout workload's output
CORRUPTED = """
layout = run.OPS["layout"]
run.OPS["layout"] = lambda pt, surface, coords: (layout(pt, surface, coords)[0] + " ", True)
"""


def bench(*args, cwd=ROOT, patch=""):
    code = SMALL_POOL.format(here=str(Path(cwd) / HERE.name), strata=TINY_STRATA, patch=patch)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, meta, last = proc.stdout.strip().splitlines()
    assert meta.startswith("meta ")
    return json.loads(last), json.loads(meta[len("meta "):])


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    res, meta = result(bench("--workload", workload, *TINY, "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= TINY_STRATA
    assert {name: m["unit"] for name, m in res["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["metrics"]["ok_ratio"]["value"] == 1.0
    assert meta["curves"] == meta["samples"] == TINY_STRATA


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    first, _ = result(bench("--workload", workload, *TINY, "--trace", "1"))
    second, _ = result(bench("--workload", workload, *TINY, "--trace", "1"))
    assert first["correct"] and first["failed"] == 0
    assert {name: m["unit"] for name, m in first["metrics"].items()} == declared("per_layer")
    counts = [name for name, unit in declared("per_layer").items() if unit in ("count", "bits")]
    assert [first["metrics"][n]["value"] for n in counts] == [second["metrics"][n]["value"] for n in counts]
    evaluated = first["metrics"]["holonomy.evaluate_s"]["value"] > 0
    assert evaluated == (workload != "layout")
    checked = first["metrics"]["verifier.pass_ratio"]["value"]
    assert checked == (1.0 if workload == "campaign" else 0.0)
    spans = (ROOT / ".pipebench" / f"spans-{workload}.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["meta"]["workload"] == workload
    assert {json.loads(line)[3] for line in spans[1:]} >= {"curve", "surface.load"}


def test_corrupted_output_counts_as_failed():
    res, _ = result(bench("--workload", "layout", *TINY, patch=CORRUPTED))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0
    assert res["metrics"]["ok_ratio"]["value"] == 0.0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "layout", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_draw_is_seeded_and_takes_one_curve_per_stratum(workload):
    strata = run.load_pool(workload)
    curves = run.draw(strata, workload, 5)
    assert run.list_digest(curves) == run.list_digest(run.draw(strata, workload, 5))
    assert run.list_digest(curves) != run.list_digest(run.draw(strata, workload, 6))
    assert len(curves) == len(strata)
    assert all(any(c in stratum for c in curves) for stratum in strata)
