"""Every line of CHANGES.md stays short enough to read.

CHANGES.md is one line per change (plus ``FOUND:`` lines); a line past
the bound is a report, not a log entry, and belongs in the docs it
cites.
"""

from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"

#: Longest CHANGES.md line allowed, in UTF-8 bytes.
MAX_LINE_BYTES = 1500


def test_no_changes_line_exceeds_the_bound():
    lines = CHANGES.read_text(encoding="utf-8").splitlines()
    assert lines  # the file is still there and read
    long = [(number, len(line.encode("utf-8")))
            for number, line in enumerate(lines, 1)
            if len(line.encode("utf-8")) > MAX_LINE_BYTES]
    assert not long, f"CHANGES.md lines over {MAX_LINE_BYTES} bytes: {long}"
