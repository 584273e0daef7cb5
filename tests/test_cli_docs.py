"""The docs name only commands the CLI has.

Every ``python -m repro WORD`` in the prose docs must still run: WORD
is a subcommand, an experiment id (any case) or ``all``.  Flags the CLI
accepts before the word (``python -m repro --chart FIG5``) are skipped,
and a command wrapped across lines still counts.  A verb deleted from
the CLI but left in a doc fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.__main__ import _VERBS
from repro.experiments.registry import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]

DOCS = sorted(
    [ROOT / "README.md", ROOT / "CONTRIBUTING.md", ROOT / "DESIGN.md",
     ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
     *(ROOT / "docs").glob("*.md")]
)

COMMAND = re.compile(
    r"python3?\s+-m\s+repro((?:\s+--?[\w-]+)*)\s+([A-Za-z][\w-]*)"
)


def _known(word: str) -> bool:
    return (word in _VERBS or word.upper() in EXPERIMENTS
            or word == "all")


def _stale(text: str) -> list[str]:
    return [match.group(2) for match in COMMAND.finditer(text)
            if not _known(match.group(2))]


@pytest.mark.parametrize("doc", [p for p in DOCS if p.exists()],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_documented_command_exists(doc):
    assert _stale(doc.read_text(encoding="utf-8")) == []


def test_the_scan_sees_every_form():
    text = ("run `python -m repro conformance --quick`, then "
            "`python -m repro --chart FIG5` and `python -m\nrepro "
            "all`; `python -m repro noverb` is stale, and so is "
            "`python3 -m repro --quick bench`.")
    assert _stale(text) == ["noverb", "bench"]
    assert len(COMMAND.findall(text)) == 5

