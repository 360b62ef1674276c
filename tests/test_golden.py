"""Rendered generating functions stay byte-identical.

`golden_gf.json` holds the exit code and stdout of 166 `patgf` calls: `gf`
on every catalog family, `gf recurrence` on every verify battery query, and
one `table` call per family, each in text and in `--json` form.  Its "doc"
field says how it was recorded.  The test replays every call through
`cli.main` and compares byte for byte.
"""

import json
from pathlib import Path

from patgf.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_gf.json").read_text())


def test_golden_gf_outputs(capsys):
    mismatches = []
    for case in GOLDEN["cases"]:
        code = main(case["argv"])
        out = capsys.readouterr().out
        if (code, out) != (case["exit"], case["stdout"]):
            mismatches.append(" ".join(case["argv"]))
    assert not mismatches, mismatches
