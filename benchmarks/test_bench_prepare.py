"""Prepare benchmark: the Python calls a fresh variant pays before its first
execution, on the contributor loop's two engines.

SQALPEL's contributor claims fresh query variants and prepares each on the
row and the column engine (lex, parse, plan, then each engine's own
generated pipelines, kernels and scans).  ``prepare`` is gated on counts,
not on timings, the way ``test_bench_kernels.py`` gates a warm execution:
the Python function calls under ``src/repro`` (as ``obs.metrics.python_calls``
counts them) one ``prepare`` of each ``tpch-mix`` text makes on fresh row and column
engines over one database at the workload's SF 0.004, summed per engine.
The counts are the interpreter's, so the gates hold on CPython 3.11, the CI
version.

The database holds one plan cache for its engines, keyed by the normalised
text and ``predicate_pushdown``.  The row engine prepares each text first and
plans it.  The column engine then finds the plan: its ``prepare`` makes no
call into ``repro.sqlparser``'s lexer and parser and none to
``Planner.plan``, and builds only its kernels and scans (reading the AST,
whose nodes' methods are the rest of ``repro.sqlparser``).  A second ``prepare`` of a text on one engine is a
cache hit: a dictionary lookup, at most :data:`HIT_CALLS` calls.

Each gate is its count with 10 % of headroom.  A run writes
``BENCH_prepare.json`` (into the shared ``artifact_dir``: ``BENCH_ARTIFACT_DIR``,
else the git-ignored ``bench-artifacts/``) with the counts per text.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.engine import ColumnEngine, Planner, RowEngine
from repro.tpch import QUERIES
from repro.workflow import build_tpch_database

#: bench/workloads.py's ``tpch-mix`` texts.
TPCH_MIX = (3, 5, 6, 7, 8, 9, 10, 12, 14)

#: the row engine's ``src/repro`` calls of one ``prepare`` of each text on an
#: empty cache, summed: lexing, parsing, planning, the generated pipelines.
#: 23 706 measured, 10 % of headroom (32 720 when the lexer walked the text
#: a character at a time and every lowering rebuilt its column lookups).
ROW_CALLS_GATE = 26_077
#: the column engine's, on the plans the row engine made: its kernels and
#: scans only.  6 862 measured, 10 % of headroom (31 717 when it parsed and
#: planned every text again).
COLUMN_CALLS_GATE = 7_548
#: a same-engine cache hit: ``prepare``, the text's normalisation, the cache
#: lookup and the hit's counter -- 7 calls, measured.
HIT_CALLS = 7

SRC = str(Path(sys.modules["repro"].__file__).resolve().parent) + "/"
PARSING = (SRC + "sqlparser/lexer.py", SRC + "sqlparser/parser.py")


def _calls_by_code(run) -> Counter:
    """The Python calls ``run()`` makes on this thread, per code object."""
    counts: Counter = Counter()

    def profile(frame, event, _arg) -> None:
        if event == "call":
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


def _own(codes: Counter) -> int:
    """Of calls by code object, those of code under ``src/repro``."""
    return sum(count for code, count in codes.items() if code.co_filename.startswith(SRC))


@pytest.fixture(scope="module")
def prepared() -> dict:
    """Per engine and text, the ``src/repro`` calls of its first ``prepare``
    (the row engine's first, as a contributor's runners take them) and of a
    second one; and the column engine's first ones by code object."""
    database = build_tpch_database(scale_factor=0.004)
    engines = {"row": RowEngine(database), "column": ColumnEngine(database)}
    engines["row"].clear_plan_cache()
    found: dict = {"first": {}, "hit": {}, "column_codes": Counter()}
    for kind, engine in engines.items():
        found["first"][kind], found["hit"][kind] = {}, {}
        for number in TPCH_MIX:
            prepare = functools.partial(engine.prepare, QUERIES[number])
            codes = _calls_by_code(prepare)
            found["first"][kind][number] = _own(codes)
            found["hit"][kind][number] = _own(_calls_by_code(prepare))
            if kind == "column":
                found["column_codes"] += codes
    return found


def test_prepare_calls_stay_within_their_gates(prepared, artifact_dir):
    totals = {kind: sum(per_text.values()) for kind, per_text in prepared["first"].items()}
    print(f"prepare calls over the nine tpch-mix texts: row {totals['row']}, "
          f"column {totals['column']}")
    (artifact_dir / "BENCH_prepare.json").write_text(json.dumps({
        "scale_factor": 0.004,
        "gates": {"row": ROW_CALLS_GATE, "column": COLUMN_CALLS_GATE, "hit": HIT_CALLS},
        "totals": totals,
        "per_text": {kind: {f"Q{number}": calls for number, calls in per_text.items()}
                     for kind, per_text in prepared["first"].items()},
    }, indent=2))
    assert totals["row"] <= ROW_CALLS_GATE, prepared["first"]["row"]
    assert totals["column"] <= COLUMN_CALLS_GATE, prepared["first"]["column"]


def test_the_second_engine_neither_parses_nor_plans(prepared):
    codes = prepared["column_codes"]
    parsing = sum(count for code, count in codes.items() if code.co_filename in PARSING)
    assert parsing == 0
    assert codes[Planner.plan.__code__] == 0
    assert sum(codes.values()) > 0


def test_a_cache_hit_is_a_lookup(prepared):
    for kind, per_text in prepared["hit"].items():
        assert max(per_text.values()) <= HIT_CALLS, (kind, per_text)
