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

`golden_census_deep.json` holds `census_series(query, 14)` for the same 25
queries.  Its "doc" field says how it was recorded.  Two rational functions
of degrees (a, b) that agree on a + b + 1 terms are equal, and 15 terms
exceed that for each of the 38 functions that `verify` holds to the census,
so tier-1 holds each of them to the recorded series, in series arithmetic
only.  Recounting the file takes about 13 s of CPU, so that test is marked
`deep` and runs only under `pytest -m deep`.

`golden_verify.json` is the stdout of `patgf verify --suite all --json
--max-n 9`, recorded at commit fa15b42: 74 checks, exit code 1 for the
known k = 5 closed-sum check.  The report stays byte-identical.
"""

import json
from pathlib import Path

import pytest

from patgf import PatternQuery, avoid_contain_gf, avoid_set_gf, census_series, parse_pattern_set
from patgf.cli import main
from patgf.perms import PATTERN_132
from patgf.verify import AVOID_BATTERY, EXACT_BATTERY, EXTRA_EXACT_BATTERY, oracle_catalog_cases

GOLDEN = json.loads(Path(__file__).with_name("golden_gf.json").read_text())
GOLDEN_CENSUS = json.loads(Path(__file__).with_name("golden_census.json").read_text())
GOLDEN_CENSUS_DEEP = json.loads(Path(__file__).with_name("golden_census_deep.json").read_text())
GOLDEN_VERIFY = Path(__file__).with_name("golden_verify.json").read_text()


def _query(case):
    return PatternQuery(*(parse_pattern_set(case[role])
                          for role in ("avoid", "exactly_once", "at_least_once")))


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
        assert census_series(_query(case), 10) == case["series"], case


def _census_held_functions():
    """The functions that the oracle and recurrence suites hold to the
    census: (name, generating function, avoid set, exactly-once set)."""
    yield from oracle_catalog_cases()
    for pats in AVOID_BATTERY:
        yield f"avoid {pats}", avoid_set_gf(pats), pats, ()
    for avoid, once in EXACT_BATTERY + EXTRA_EXACT_BATTERY:
        yield f"avoid {avoid} once {once}", avoid_contain_gf(avoid, once), avoid, once


def test_census_held_functions_match_the_deep_golden():
    deep = {_query(case): case["series"] for case in GOLDEN_CENSUS_DEEP["cases"]}
    shallow = {_query(case): case["series"] for case in GOLDEN_CENSUS["cases"]}
    assert len(deep) == 25 and all(deep[q][:11] == shallow[q] for q in shallow)
    functions = list(_census_held_functions())
    assert len(functions) == 38
    for name, f, avoid, once in functions:
        # 15 terms pin a function of degrees (a, b) with a + b + 1 <= 15
        assert f.num.degree + f.den.degree + 1 <= 15, name
        query = PatternQuery(avoid=tuple(avoid) + (PATTERN_132,), exactly_once=tuple(once))
        assert f.series(14).as_ints() == deep[query], name


@pytest.mark.deep
def test_deep_golden_census_series():
    for case in GOLDEN_CENSUS_DEEP["cases"]:
        assert census_series(_query(case), 14, bound=14) == case["series"], case


def test_golden_verify_report(capsys):
    code = main(["verify", "--suite", "all", "--json", "--max-n", "9"])
    assert (code, capsys.readouterr().out) == (1, GOLDEN_VERIFY)
