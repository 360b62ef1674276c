"""Rendered generating functions and census series stay as recorded.

`golden_gf.json` holds the exit code and stdout of 166 `patgf` calls: `gf`
on every catalog family, `gf recurrence` on every verify battery query, and
one `table` call per family, each in text and in `--json` form.  Its "doc"
field says how it was recorded.  The test replays every call through
`cli.main` and compares byte for byte.

`golden_census.json` holds `census_series(query, 10)` for the 25 distinct
queries that the oracle and recurrence suites send to `CensusReader`,
recorded at commit bc67f29, before the census answered length-3 patterns in
closed form, dropped redundant avoided patterns and carried each node's
live and hit gaps.  The verify suites count these queries to n = 8; this
reaches two lengths further.

`golden_verify.json` is the stdout of `patgf verify --suite all --json
--max-n 9`, recorded at commit fa15b42: 74 checks, exit code 1 for the
known k = 5 closed-sum check.  The report stays byte-identical.
"""

import json
from pathlib import Path

from patgf import PatternQuery, census_series, parse_pattern_set
from patgf.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_gf.json").read_text())
GOLDEN_CENSUS = json.loads(Path(__file__).with_name("golden_census.json").read_text())
GOLDEN_VERIFY = Path(__file__).with_name("golden_verify.json").read_text()


def test_golden_gf_outputs(capsys):
    mismatches = []
    for case in GOLDEN["cases"]:
        code = main(case["argv"])
        out = capsys.readouterr().out
        if (code, out) != (case["exit"], case["stdout"]):
            mismatches.append(" ".join(case["argv"]))
    assert not mismatches, mismatches


def test_golden_census_series():
    cases = GOLDEN_CENSUS["cases"]
    assert len(cases) == 25
    for case in cases:
        query = PatternQuery(*(parse_pattern_set(case[role])
                               for role in ("avoid", "exactly_once", "at_least_once")))
        assert census_series(query, 10) == case["series"], case


def test_golden_verify_report(capsys):
    code = main(["verify", "--suite", "all", "--json", "--max-n", "9"])
    assert (code, capsys.readouterr().out) == (1, GOLDEN_VERIFY)
