"""The CI workflow runs scripts that exist, and runs no inline Python program."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def test_every_script_passed_to_python_exists():
    scripts = set(re.findall(r"\bpython3?\b[^|;&\n]*?\s([\w./-]+\.py)\b", WORKFLOW))
    assert {"tests/golden.py", "tools/stages.py", "perfbench/run.py"} <= scripts
    assert [s for s in sorted(scripts) if not (ROOT / s).is_file()] == []


def test_no_step_pipes_a_heredoc_into_python():
    assert re.findall(r"\bpython3?\s+(?:-\S+\s+)*-(?:\s|$)", WORKFLOW, re.M) == []
    assert "<<" not in WORKFLOW
