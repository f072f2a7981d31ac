"""Compare two sets of benchmark runs: ``python3 bench/compare.py A B``.

``A`` and ``B`` are ``--out`` directories of ``bench/run.py`` (A = parent or
first set, B = change or second set), each holding the same seeds.  Prints one
row per workload x end-to-end metric -- both medians, the change (positive =
worse), the run-to-run spread (distance between the quartiles as a share of
the median, the larger of the two sets) and the metric's bound from
``BENCHMARK.json`` -- with a verdict:

    better / worse   the median moved by more than the bound
    moved            by less than the bound but more than the spread: not a
                     regression by the contract, and not noise either
    same             by less than both
    unresolved       the spread is wider than the bound, so nothing can be said

followed by the per-layer metrics that moved most.  Runs pair up by workload
and seed.  Comparison is refused (exit code 2) unless every workload of the
contract has the same seeds on both sides, at least four of them, run at the
same scale, ``--seconds`` and round count on the same machine and libraries;
and when a pair's ``workload_digest`` differs: it did not run the same inputs
(the morpher, renderer or extractor changed them).  Exit code 1 when any row
is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

CONTRACT_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: runs per side under which quartiles, and so a verdict, mean nothing.
MIN_RUNS = 4
#: per-layer movers listed.
MOVERS = 15


def load(directory: Path) -> dict[tuple[str, int, bool], dict]:
    runs = {}
    for path in sorted(directory.glob("result-*.json")):
        document = json.loads(path.read_text())
        runs[document["workload"], document["seed"], document["traced"]] = document
    return runs


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else 0.0


def conditions(run: dict) -> tuple:
    """What two runs must share for their times to be comparable."""
    machine = {key: value for key, value in run["fingerprint"].items() if key != "commit"}
    return run["scale"], run["seconds"], run["rounds"], sorted(machine.items())


def refusal(contract: dict, runs_a: dict, runs_b: dict) -> str | None:
    """Why the two sets cannot be compared, or None when they can."""
    for workload in (entry["name"] for entry in contract["workloads"]):
        seeds_a, seeds_b = ({seed for name, seed, traced in runs
                             if name == workload and not traced}
                            for runs in (runs_a, runs_b))
        if seeds_a != seeds_b:
            return (f"{workload}: seeds {sorted(seeds_a)} on one side, "
                    f"{sorted(seeds_b)} on the other")
        if len(seeds_a) < MIN_RUNS:
            return f"{workload}: {len(seeds_a)} runs per side, a verdict needs {MIN_RUNS}"
    for key in runs_a.keys() & runs_b.keys():
        a, b = runs_a[key], runs_b[key]
        if a["workload_digest"] != b["workload_digest"]:
            return (f"{key[0]} seed {key[1]}: workload digests differ; the two sets "
                    "did not run the same inputs")
        if conditions(a) != conditions(b):
            return (f"{key[0]} seed {key[1]}: scale, --seconds, rounds or machine "
                    f"differ: {conditions(a)} vs {conditions(b)}")
    return None


def worsening(before: float, after: float, better: str) -> float:
    """Relative change of the median, signed so that positive is worse."""
    if not before:
        return 0.0 if not after else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def paired(runs_a: dict, runs_b: dict, workload: str, traced: bool) -> list[tuple[dict, dict]]:
    seeds = sorted(seed for name, seed, kind in runs_a
                   if name == workload and kind == traced
                   and (name, seed, kind) in runs_b)
    return [(runs_a[workload, seed, traced], runs_b[workload, seed, traced])
            for seed in seeds]


def compare(directory_a: Path, directory_b: Path) -> int:
    contract = json.loads(CONTRACT_PATH.read_text())
    runs_a, runs_b = load(directory_a), load(directory_b)
    refused = refusal(contract, runs_a, runs_b)
    if refused:
        print(f"refused: {refused}", file=sys.stderr)
        return 2
    status = 0

    print(f"{'workload':18s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'spread':>8s} {'bound':>6s}  verdict (runs)")
    for workload in (entry["name"] for entry in contract["workloads"]):
        pairs = paired(runs_a, runs_b, workload, traced=False)
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values_a = [a["metrics"][name]["value"] for a, _ in pairs]
            values_b = [b["metrics"][name]["value"] for _, b in pairs]
            change = worsening(statistics.median(values_a), statistics.median(values_b),
                               metric["better"])
            widest = max(spread(values_a), spread(values_b))
            if widest > metric["bound"]:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict = "worse"
            elif change < -metric["bound"]:
                verdict = "better"
            elif abs(change) > widest:
                verdict = "moved"
            else:
                verdict = "same"
            if verdict in ("worse", "unresolved"):
                status = 1
            print(f"{workload:18s} {name:22s} {statistics.median(values_a):12.5g} "
                  f"{statistics.median(values_b):12.5g} {change:+9.1%} {widest:8.1%} "
                  f"{metric['bound']:6.0%}  {verdict} ({len(pairs)})")

    better_of = {metric["name"]: metric["better"] for metric in contract["per_layer"]}
    moved = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        pairs = paired(runs_a, runs_b, workload, traced=True)
        for name in better_of if pairs else ():
            before = statistics.median(a["metrics"][name]["value"] for a, _ in pairs)
            after = statistics.median(b["metrics"][name]["value"] for _, b in pairs)
            if before != after:
                moved.append((abs(worsening(before, after, "lower")), workload, name,
                              before, after, worsening(before, after, better_of[name])))
    if moved:
        print(f"\nlargest per-layer movers (of {len(moved)} that moved; positive = worse)")
        for _, workload, name, before, after, change in sorted(moved, reverse=True)[:MOVERS]:
            print(f"{workload:18s} {name:36s} {before:12.5g} -> {after:12.5g} {change:+9.1%}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
