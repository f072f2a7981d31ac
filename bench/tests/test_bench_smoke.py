"""Tier-1 smoke test of the contributor-loop benchmark (``--scale smoke``).

Runs the whole suite once -- all four workloads, untraced and traced, each in
its own subprocess -- with every output under ``tmp_path``, and checks what a
later perf PR relies on: every metric ``BENCHMARK.json`` declares is reported
with its unit, the in-run output checks pass, digests follow the seed, the
comparison tool reads what the runner writes, and the working tree is left as
it was found.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "bench" / "run.py"), "--scale", "smoke",
       "--seconds", "0"]
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
SEED = 3


def _git_status() -> str | None:
    try:
        return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout (the benchmark driver's copy)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-smoke")
    before = _git_status()
    completed = subprocess.run([*RUN, "--seed", str(SEED), "--out", str(out)], cwd=out,
                               capture_output=True, text=True, timeout=180)
    return out, completed, before, _git_status()


def _result(out: Path, workload: str, seed: int, traced: bool) -> dict:
    return json.loads(
        (out / f"result-{workload}-seed{seed}-trace{int(traced)}.json").read_text())


def test_contract_names_the_workloads_the_benchmark_has():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from bench.workloads import RUN_SECONDS, WORKLOADS as specs
    finally:
        del sys.path[:2]
    assert list(specs) == WORKLOADS
    assert CONTRACT["paths"] == ["bench"]
    assert CONTRACT["run_seconds"] == RUN_SECONDS
    assert any(metric["name"] == "setup_s" for metric in CONTRACT["end_to_end"])


def test_every_workload_passes_its_output_checks(suite):
    out, completed, _, _ = suite
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for workload in WORKLOADS:
        for traced in (False, True):
            document = _result(out, workload, SEED, traced)
            assert document["correct"] and not document["problems"], document["problems"]
            assert document["failed"] == 0 and document["attempted"] >= 1
            assert set(document["fingerprint"]) == {"cpu_count", "python", "numpy",
                                                    "sqlite", "commit"}


def test_every_declared_metric_is_reported_with_its_unit(suite):
    out, _, _, _ = suite
    for workload in WORKLOADS:
        for traced, declared in ((False, CONTRACT["end_to_end"]),
                                 (True, CONTRACT["per_layer"])):
            metrics = _result(out, workload, SEED, traced)["metrics"]
            assert sorted(metrics) == sorted(metric["name"] for metric in declared)
            for metric in declared:
                reported = metrics[metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert math.isfinite(reported["value"])
                if not traced:  # an end-to-end metric is never 0
                    assert reported["value"] > 0, (workload, metric["name"])
        assert (out / f"trace-{workload}.jsonl").read_text().count("\n") > 10


def test_traced_run_attributes_the_runner_threads(suite):
    out, _, _, _ = suite
    for workload in WORKLOADS:
        metrics = _result(out, workload, SEED, True)["metrics"]
        assert metrics["bench.unattributed_share"]["value"] < 0.10
        assert metrics["runner.batches"]["value"] >= 2


def test_digest_follows_the_seed_and_only_the_seed(suite):
    out, _, _, _ = suite
    for workload in WORKLOADS:
        assert (_result(out, workload, SEED, False)["workload_digest"]
                == _result(out, workload, SEED, True)["workload_digest"])
    other = subprocess.run(
        [*RUN, "--workload", "q1-pool", "--seed", str(SEED + 1), "--trace", "0",
         "--out", str(out)], cwd=out, capture_output=True, text=True, timeout=60)
    assert other.returncode == 0, other.stderr
    assert (_result(out, "q1-pool", SEED + 1, False)["workload_digest"]
            != _result(out, "q1-pool", SEED, False)["workload_digest"])
    # q1-pool and q1-pool-telemetry are the same inputs by design
    assert (_result(out, "q1-pool", SEED, False)["workload_digest"]
            == _result(out, "q1-pool-telemetry", SEED, False)["workload_digest"])
    # the last line of a single run is the result object, with exactly these keys
    last = json.loads(other.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_compare_reads_the_runs_and_refuses_what_it_cannot_compare(suite, tmp_path):
    out, _, _, _ = suite
    # a verdict needs four runs a side: the smoke run under four seed labels
    sets = [tmp_path / "a", tmp_path / "b"]
    for directory in sets:
        directory.mkdir()
        for path in out.glob(f"result-*-seed{SEED}-trace*.json"):
            for seed in range(4):
                document = json.loads(path.read_text())
                document["seed"] = seed
                (directory / path.name.replace(f"seed{SEED}", f"seed{seed}")
                 ).write_text(json.dumps(document))

    def compare(*directories):
        return subprocess.run([sys.executable, str(ROOT / "bench" / "compare.py"),
                               *map(str, directories)], capture_output=True, text=True)

    same = compare(*sets)
    assert same.returncode == 0, same.stdout + same.stderr
    rows = [line for line in same.stdout.splitlines() if "  same (4)" in line]
    assert len(rows) == len(WORKLOADS) * len(CONTRACT["end_to_end"])

    empty = tmp_path / "empty"
    empty.mkdir()
    assert compare(sets[0], empty).returncode == 2
    assert compare(empty, empty).returncode == 2
    too_few = compare(out, out)
    assert too_few.returncode == 2 and "a verdict needs" in too_few.stderr

    name = "result-q1-pool-seed0-trace0.json"
    original = (sets[1] / name).read_text()
    for field, value, complaint in (("workload_digest", "0" * 64, "digests differ"),
                                    ("seconds", 99.0, "--seconds")):
        (sets[1] / name).write_text(json.dumps({**json.loads(original), field: value}))
        refused = compare(*sets)
        assert refused.returncode == 2 and complaint in refused.stderr
    (sets[1] / name).unlink()
    assert compare(*sets).returncode == 2  # a run that left no result


def test_a_run_leaves_the_working_tree_as_it_found_it(suite):
    _, _, before, after = suite
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before
