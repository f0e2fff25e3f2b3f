"""Tests of the benchmark itself: run with

    python3 -m pytest perfbench/tests

from the root of the repository.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

HOMOLOGY = run.invocations("homology", seed=0)[0]


def _cli(argv):
    return subprocess.run(argv, cwd=run.ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def homology_report():
    done = _cli(run.cli_argv(HOMOLOGY))
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("cli_args", [
    HOMOLOGY,
    ["partition", "--algebra", run.ALGEBRA, "--vertices", "2",
     "--edges", "1:4", "--format", "structured"],
    ["verify", "kontsevich", "--edges", "3", "--order", "6", "--seed", "3",
     "--format", "structured"],
])
def test_traced_run_gives_the_untraced_report(cli_args, tmp_path):
    plain = _cli(run.cli_argv(cli_args))
    summary_path = str(tmp_path / "trace.json")
    traced = _cli([sys.executable, os.path.join(run.HERE, "tracing.py"),
                   summary_path, "--"] + cli_args)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    with open(summary_path) as fh:
        summary = json.load(fh)
    assert summary["calls"]["cli.main"] == 1
    assert sum(summary["self_s"].values()) > 0


def test_traced_homology_counts_the_rank_layer(homology_report, tmp_path):
    summary_path = str(tmp_path / "trace.json")
    traced = _cli([sys.executable, os.path.join(run.HERE, "tracing.py"),
                   summary_path, "--"] + HOMOLOGY)
    assert traced.stdout == homology_report
    with open(summary_path) as fh:
        summary = json.load(fh)
    # the largest boundary matrix of the window, (3,5) -> (2,4)
    assert summary["maxima"]["scalars.rank_rows_max"] == 1146
    assert summary["counts"]["graphs.classes"] > 0
    assert summary["caches"]["complexes.boundary_cache_misses"] > 0


def test_pinned_check_accepts_the_seed_report(homology_report):
    pinned = checks.load_pinned()
    assert checks.mismatch(pinned, HOMOLOGY, 0, homology_report) is None
    # one row per line instead of one indented document: same numbers
    rows = json.loads(homology_report)["rows"]
    lines = "\n".join(json.dumps(r) for r in reversed(rows))
    assert checks.mismatch(pinned, HOMOLOGY, 0, lines) is None


def test_pinned_check_rejects_one_changed_betti_number(homology_report):
    report = json.loads(homology_report)
    row = next(r for r in report["rows"] if r["kind"] == "betti")
    row["dim"] += 1
    reason = checks.mismatch(checks.load_pinned(), HOMOLOGY, 0,
                             json.dumps(report))
    assert reason is not None and f"{row['v']},{row['e']}" in reason


def test_pinned_check_rejects_a_failing_exit_code(homology_report):
    assert checks.mismatch(checks.load_pinned(), HOMOLOGY, 1,
                           homology_report) == "exit code 1"


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracing.inclusive_times(spans) == {"a": 10.0, "b": 4.0, "c": 1.0}


def test_benchmark_json_names_what_the_driver_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == [(name, unit) for name, unit, _ in run.PER_LAYER]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
