"""Repository-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (e.g. in offline environments where ``pip install -e .`` cannot
resolve build requirements); an installed package takes precedence.

No fixture resets anything between tests: the engines keep no process-wide
memo (a decoded NULL view lives on the :class:`~repro.engine.mask.Nullable`
it decodes, instrumentation counters on the per-query metrics context
attached to each ``QueryResult``), so the suite passes in any file order.

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


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    """``BENCH_ARTIFACT_DIR`` (CI uploads it), else the git-ignored
    ``bench-artifacts/`` of the checkout; created on first use."""
    target = Path(os.environ.get("BENCH_ARTIFACT_DIR")
                  or Path(__file__).resolve().parent / "bench-artifacts")
    target.mkdir(parents=True, exist_ok=True)
    return target
