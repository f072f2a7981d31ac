"""Repository-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (e.g. in offline environments where ``pip install -e .`` cannot
resolve build requirements); an installed package takes precedence.

Also drops the validity-kernel memo caches before every test (both the
``tests/`` and ``benchmarks/`` suites) so the differential fuzzer's
shrinking stays deterministic: identity-keyed decode memos could otherwise
survive an id reuse across test boundaries and make a replayed query take a
different (cached) path than its first run.  Instrumentation counters need
no reset any more -- they live on the per-query metrics context attached to
each ``QueryResult`` (see :mod:`repro.obs`), not on process-global state.

``artifact_dir`` is where the micro-gates under ``benchmarks/`` and the chaos
run under ``tests/`` leave their ``BENCH_*.json`` / ``CHAOS_summary.json``:
never the checkout root, so a test run leaves the tree clean.
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture(autouse=True)
def _reset_memo_caches():
    """Drop the validity-kernel memo caches per test."""
    from repro.engine.mask import reset_mask_caches

    reset_mask_caches()
    yield


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    """``BENCH_ARTIFACT_DIR`` (CI uploads it), else the git-ignored
    ``bench-artifacts/`` of the checkout; created on first use."""
    target = Path(os.environ.get("BENCH_ARTIFACT_DIR")
                  or Path(__file__).resolve().parent / "bench-artifacts")
    target.mkdir(parents=True, exist_ok=True)
    return target
