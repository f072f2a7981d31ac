"""Run the contributor-loop benchmark.

One run -- what ``BENCHMARK.json``'s command asks for::

    python3 bench/run.py --workload q1-pool --seed 1 --seconds 20 --trace 0

measures one workload in this process and prints every metric by name with
its unit; the last line is the result object.  ``--trace 0`` gives the
end-to-end metrics with no wrapper installed, ``--trace 1`` the per-layer
metrics from the wrappers of :mod:`bench.layers`.

The whole suite -- leave ``--trace`` out::

    python3 bench/run.py [--workload NAME] [--seed N] [--runs K]
                         [--scale full|smoke] [--seconds S] [--out DIR]

runs every workload in its own subprocess (fresh memo caches, its own peak
RSS), untraced and then traced, for seeds ``N .. N+K-1``, and keeps one result
document per run plus ``trace-<workload>.jsonl`` under ``--out`` (default
``bench-artifacts/``, which git ignores).  Compare two such directories with
``python3 bench/compare.py A B``.
"""

from __future__ import annotations

import argparse
import functools
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


@functools.cache
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_path(out: Path, workload: str, seed: int, traced: bool) -> Path:
    return out / f"result-{workload}-seed{seed}-trace{int(traced)}.json"


def run_one(args) -> int:
    try:
        from bench import harness
    except ImportError as exc:
        print(f"bench: the program under test is not importable: {exc}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    out = Path(args.out or "bench-artifacts")
    document = harness.run_workload(args.workload, args.seed, args.seconds, traced,
                                    args.scale, scratch=out)
    spans = document.pop("spans")
    values = document.pop("values")
    declared = contract()["per_layer" if traced else "end_to_end"]
    # a layer metric that has no meaning on this workload (pool.* for fixed
    # texts, obs.* with telemetry off) reads 0; an end-to-end one must exist.
    document["metrics"] = {
        metric["name"]: {"value": values[metric["name"]] if not traced
                         else values.get(metric["name"], 0.0),
                         "unit": metric["unit"]}
        for metric in declared}
    document["other_values"] = {name: value for name, value in values.items()
                                if name not in document["metrics"]}
    if args.out:
        out.mkdir(parents=True, exist_ok=True)
        result_path(out, args.workload, args.seed, traced).write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n")
        if traced:
            with open(out / f"trace-{args.workload}.jsonl", "w") as sink:
                for span in spans:
                    sink.write(json.dumps(span) + "\n")

    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={int(traced)} "
          f"rounds={document['rounds']} digest={document['workload_digest'][:16]} "
          f"samples={document['samples']}")
    for name, metric in document["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for line in document["problems"]:
        print(f"CHECK FAILED: {line}")
    for line in document["notes"]:
        print(f"note: type split, values agree: {line}")
    print(json.dumps({key: document[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if document["correct"] else 1


def run_suite(args) -> int:
    out = Path(args.out or "bench-artifacts")
    names = [args.workload] if args.workload else [w["name"] for w in contract()["workloads"]]
    status = 0
    for seed in range(args.seed, args.seed + args.runs):
        for name in names:
            drains = []
            for trace in (0, 1):
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", str(trace),
                           "--scale", args.scale, "--out", str(out)]
                status |= subprocess.run(command, check=False).returncode
                path = result_path(out, name, seed, bool(trace))
                if path.exists():
                    drains.append(json.loads(path.read_text())
                                  ["other_values" if trace == 0 else "metrics"]
                                  ["bench.drain_s"])
            if len(drains) == 2:
                untraced, traced = drains[0], drains[1]["value"]
                print(f"{'bench.trace_overhead_share':40s} "
                      f"{(traced - untraced) / untraced:>16.6g} share  ({name})\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--runs", type=int, default=1, help="suite: how many seeds")
    parser.add_argument("--out", help="directory for result documents and traces")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_suite(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
