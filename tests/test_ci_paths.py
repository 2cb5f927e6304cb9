"""Every file or directory the CI workflow names must exist.

A deleted script or test file would otherwise leave a step that fails
only on the CI runner.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: A repository path under benchmarks/ or tests/, up to a test id's
#: ``::`` or the end of the word.
_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|tests)/[\w./-]*\w)")


def ci_paths():
    return sorted(set(_PATH.findall(WORKFLOW.read_text())))


def test_every_path_the_workflow_names_exists():
    paths = ci_paths()
    assert "tests/faultsim" in paths  # the pattern still finds steps
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert not missing, f"{WORKFLOW.name} names missing paths: {missing}"
