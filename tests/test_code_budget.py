"""The code budget: the engine and the whole package stay within the line
counts they were last brought down to.

Counted as ``find <dir> -name '*.py' | xargs cat | wc -l`` counts them: every
newline of every ``.py`` file under the directory.  A change that raises a
budget says so in CHANGES.md, with the reason; one that deletes code lowers
it to the new count.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: directory (relative to the repository root) -> the most lines it may hold.
BUDGETS = {
    "src/repro/engine": 10_489,
    "src/repro": 22_690,
}


def _lines(directory: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in directory.rglob("*.py"))


@pytest.mark.parametrize("directory", BUDGETS)
def test_the_code_stays_within_its_budget(directory):
    lines = _lines(ROOT / directory)
    assert lines <= BUDGETS[directory], \
        f"{directory} holds {lines} lines, over its budget of {BUDGETS[directory]}"
