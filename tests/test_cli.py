"""Command-line interface: verbs, exit codes, JSON round trips."""

import gc
import json
import pathlib
import re
import shlex

import pytest

from patgf import cli, perms
from patgf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_examples(capsys):
    code, out, _ = run(capsys, "count", "--avoid", "123;213", "--n", "4", "--implicit-132")
    assert (code, out.strip()) == (0, "5")
    code, out, _ = run(capsys, "count", "--n", "4")
    assert (code, out.strip()) == (0, "24")
    code, out, _ = run(capsys, "count", "--avoid", "eps", "--n", "1")
    assert (code, out.strip()) == (0, "0")


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--avoid", "132", "--n", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"count": "5"}


def test_count_at_least_once(capsys):
    code, out, _ = run(capsys, "count", "--at-least-once", "12", "--n", "3")
    assert (code, out.strip()) == (0, "5")


def test_count_bound_overrides(capsys):
    code, out, _ = run(capsys, "count", "--avoid", "12", "--n", "11", "--max-n", "11")
    assert (code, out.strip()) == (0, "1")


def test_verify_max_n_is_its_own_bound(capsys, monkeypatch):
    # verify --max-n past the default bound runs; count still needs --max-n
    monkeypatch.setattr(perms, "DEFAULT_MAX_N", 5)
    code, out, _ = run(capsys, "verify", "--suite", "recurrence", "--max-n", "6")
    assert code == 0 and "all checks passed" in out
    code, out, err = run(capsys, "count", "--n", "6")
    assert (code, out) == (3, "") and "feasibility" in err


def test_series(capsys):
    code, out, _ = run(capsys, "series", "--avoid", "123;213", "--implicit-132",
                       "--order", "5")
    assert (code, out.strip()) == (0, "1,1,2,3,5,8")
    code, out, _ = run(capsys, "series", "--exactly-once", "12", "--order", "4")
    assert (code, out.strip()) == (0, "0,0,1,2,3")
    code, out, _ = run(capsys, "series", "--avoid", "132", "--order", "4", "--json")
    assert json.loads(out) == {"coefficients": ["1", "1", "2", "5", "14"]}


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "count", "--avoid", "122", "--n", "3")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "count", "--n", "3", "--no-such-flag")
    assert code == 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["series", "--avoid", "123", "--order", "-2"],
    ["table", "--family", "ulk", "--k", "3", "--l", "2", "--order", "-1"],
    ["count", "--avoid", "123", "--n", "5", "--workers", "0"],
    ["count", "--avoid", "123", "--n", "5", "--workers", "-3"],
    ["count", "--avoid", "123", "--n", "-1"],
    ["series", "--avoid", "123", "--order", "4", "--workers", "0"],
    ["verify", "--suite", "catalog", "--workers", "0"],
    ["verify", "--suite", "chebyshev", "--order", "-1"],
    ["verify", "--suite", "chebyshev", "--order", "0"],
    ["table", "--family", "ulk", "--k", "5", "--k-max", "3", "--l", "2"],
    ["count", "--n", "3", "--max-n", "-1"],
    ["series", "--avoid", "123", "--order", "4", "--max-n", "-4"],
    ["count", "--avoid", "123", "--n", "abc"],
])
def test_exit_code_bad_counts(capsys, argv):
    code, out, err = run(capsys, *argv)
    reason = "is not an integer" if "abc" in argv else "must be at least"
    assert (code, out) == (2, "") and reason in err


@pytest.mark.parametrize("argv", [
    ["count", "--n", "10", "--workers", "1000"],
    ["series", "--avoid", "123", "--order", "4", "--workers", "65"],
    ["verify", "--suite", "oracle", "--workers", "65"],
])
def test_exit_code_too_many_workers(capsys, argv):
    # refused while parsing, before any census starts a process
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "must be at most 64" in err


def test_most_workers_accepted(capsys):
    # a frontier of 2 nodes is far below a pool's 8 per worker: no process starts
    assert run(capsys, "count", "--n", "3", "--workers", "64")[:2] == (0, "6\n")


@pytest.mark.parametrize("argv,flag", [
    (["gf", "catalog:u2k-both", "--k", "5", "--l", "3"], "--l"),
    (["gf", "recurrence", "--avoid", "231", "--k", "3", "--t", "12"], "--k"),
    (["gf", "catalog:ulk", "--k", "4", "--l", "2", "--t", "123"], "--t"),
    (["gf", "catalog:ulk", "--k", "4", "--l", "2", "--avoid", "12"], "--avoid"),
    (["table", "--family", "u2k-both", "--k", "3", "--l", "9"], "--l"),
])
def test_exit_code_unread_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and f"{flag} is not used" in err


def test_exit_code_empty_pattern_flag(capsys):
    code, out, err = run(capsys, "gf", "catalog:ulk-once", "--k", "3", "--l", "2", "--t", "")
    assert (code, out) == (2, "") and "empty pattern text" in err


def test_exit_code_unwritable_out(capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "verify", "--suite", "algebra", "--out", str(target))
    assert (code, out) == (2, "") and not target.exists()
    assert err.count("\n") == 1 and "cannot write" in err


def test_exit_code_unexpected_exception(capsys, monkeypatch):
    def overflow(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._DISPATCH, "gf", overflow)
    code, out, err = run(capsys, "gf", "catalog:ulk", "--k", "3000", "--l", "1")
    assert code == cli.EXIT_INTERNAL != cli.EXIT_VERIFY_FAILED
    assert out == "" and "error: internal error: RecursionError" in err


class _ClosedStdout:
    """A stdout whose reader has gone away, with no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_exit_code_closed_output(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedStdout())
    code = main(["table", "--family", "ulk", "--l", "2", "--k", "2", "--order", "5"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL != cli.EXIT_VERIFY_FAILED
    assert err == "error: output closed\n"


def test_main_leaves_no_cyclic_garbage(capsys):
    argv = ["gf", "catalog:ulk", "--k", "3", "--l", "2"]
    main(argv)  # the parser is built on the first call
    gc.collect()
    gc.disable()
    try:
        main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == "1/(1 - x - x^2)\n" * 2


def test_exit_code_too_large(capsys):
    code, _, err = run(capsys, "count", "--n", "11")
    assert code == 3 and "feasibility" in err


def test_exit_code_engine_error(capsys):
    # inside the 132 class, avoiding 132 restricts as little as no pattern
    unrestricted = ("error: PreconditionViolated: constraints reduce to the unrestricted "
                    "class, which is not rational\n")
    for avoid in ("132", ""):
        assert run(capsys, "gf", "recurrence", "--avoid", avoid) == (4, "", unrestricted), avoid


def test_gf_recurrence_reduces_patterns_that_hold_132(capsys):
    # an avoided 132-holder excludes nothing; one required once makes the count 0
    assert run(capsys, "gf", "recurrence", "--avoid", "1432;123") \
        == run(capsys, "gf", "recurrence", "--avoid", "123") == (0, "(1 - x)/(1 - 2*x)\n", "")
    assert run(capsys, "gf", "recurrence", "--exactly-once", "1432") == (0, "0\n", "")
    assert run(capsys, "gf", "recurrence", "--avoid", "12", "--exactly-once", "1432") \
        == (0, "0\n", "")


def test_gf_examples(capsys):
    code, out, _ = run(capsys, "gf", "catalog:ulk", "--k", "4", "--l", "2")
    assert (code, out.strip()) == (0, "(1 - x - x^2)/(1 - 2*x - x^2)")
    code, out, _ = run(capsys, "gf", "recurrence", "--avoid", "231")
    assert (code, out.strip()) == (0, "(1 - x)/(1 - 2*x)")
    code, out, _ = run(capsys, "gf", "catalog:ulk-once", "--k", "3", "--l", "1")
    assert (code, out.strip()) == (0, "x^3/(1 - 4*x + 4*x^2)")
    code, out, _ = run(capsys, "gf", "catalog:u2k-both", "--k", "4")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, "gf", "recurrence", "--avoid", "213",
                       "--exactly-once", "123")
    assert (code, out.strip()) == (0, "x^3/(1 - 2*x - x^2 + 2*x^3 + x^4)")


def test_gf_missing_parameter(capsys):
    # the message names the caller: a source for gf, a family for table
    for argv, user in ((["gf", "catalog:ulk", "--k", "4"], "catalog:ulk"),
                       (["table", "--family", "ulk", "--k", "3"], "--family ulk")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.rstrip().endswith(f"--l is required by {user}")


def _read_gf(payload):
    """The RatFunc of the int strings that `gf --json` writes."""
    from patgf import Poly, RatFunc
    return RatFunc(*(Poly([int(c) for c in payload[part]]) for part in ("num", "den")))


def test_gf_json_round_trip(capsys):
    code, out, _ = run(capsys, "gf", "catalog:ulk", "--k", "4", "--l", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"] == "catalog"
    # re-rendering the parsed JSON is byte-identical
    parsed = _read_gf(payload)
    again = parsed.to_json_dict()
    again["provenance"] = payload["provenance"]
    assert json.dumps(again) == out.strip()


def test_gf_provenance(capsys):
    from patgf import avoid_contain_gf, avoid_set_gf
    code, out, _ = run(capsys, "gf", "recurrence", "--avoid", "231", "--json")
    payload = json.loads(out)
    assert (code, payload.pop("provenance")) == (0, "recurrence")
    assert _read_gf(payload) == avoid_set_gf([(2, 3, 1)])
    code, out, _ = run(capsys, "gf", "recurrence", "--exactly-once", "12", "--json")
    payload = json.loads(out)
    assert (code, payload.pop("provenance")) == (0, "recurrence")
    assert _read_gf(payload) == avoid_contain_gf([], [(1, 2)])


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--family", "ulk", "--l", "1", "--k", "3",
                       "--order", "5")
    assert (code, out.strip()) == (0, "k=3,l=1: 1,1,2,4,8,16")
    code, out, _ = run(capsys, "table", "--family", "ulk", "--l", "2", "--k", "3",
                       "--order", "5")
    assert (code, out.strip()) == (0, "k=3,l=2: 1,1,2,3,5,8")
    code, out, _ = run(capsys, "table", "--family", "u2k-both", "--k", "3",
                       "--order", "6")
    assert (code, out.strip()) == (0, "k=3: 0,0,0,0,0,0,0")
    code, out, _ = run(capsys, "table", "--family", "ulk", "--l", "2", "--k", "2",
                       "--k-max", "4", "--order", "3", "--json")
    rows = json.loads(out)["rows"]
    assert [row["params"]["k"] for row in rows] == [2, 3, 4]
    assert rows[1]["coefficients"] == ["1", "1", "2", "3"]


def test_verify_passing_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra")
    assert code == 0 and "all checks passed" in out
    code, out, _ = run(capsys, "verify", "--suite", "catalog", "--json")
    report = json.loads(out)
    assert report["passed"] is True
    assert all(c["status"] == "pass" for c in report["suites"]["catalog"])
    code, out, _ = run(capsys, "verify", "--suite", "chebyshev")
    assert code == 0 and "all checks passed" in out and "[PASS] chebyshev:" in out


def test_verify_oracle_reports_known_defect(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "8",
                       "--json", "--out", str(out_file))
    assert code == 1  # the k=5 closed-sum defect is reported honestly
    report = json.loads(out)
    assert report["passed"] is False
    failing = [c for c in report["suites"]["oracle"] if c["status"] == "fail"]
    assert len(failing) == 1
    assert "k=5" in failing[0]["name"]
    assert json.loads(out_file.read_text()) == report
    # the text report shows the failing check's expected, actual and note lines
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "8")
    assert code == 1
    lines = out.splitlines()
    fail = failing[0]
    at = lines.index(f"[FAIL] oracle: {fail['name']}")
    assert lines[at + 1:at + 4] == [f"       expected: {fail['expected']}",
                                    f"       actual:   {fail['actual']}",
                                    f"       note: {fail['note']}"]
    assert [line for line in lines if line.startswith("[FAIL]")] == [lines[at]]
    assert lines[-1] == "some checks FAILED"


def test_verify_text_and_json_agree(capsys):
    code_t, text, _ = run(capsys, "verify", "--suite", "catalog")
    code_j, blob, _ = run(capsys, "verify", "--suite", "catalog", "--json")
    assert code_t == code_j == 0
    report = json.loads(blob)
    for check in report["suites"]["catalog"]:
        assert check["name"] in text


def _readme_examples():
    """Each `patgf ...  # output` line of the README's sh blocks: the
    arguments and the literal stdout that the comment states."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    for line in "".join(blocks).splitlines():
        command, _, stated = line.partition("  # ")
        if command.startswith("patgf ") and stated:
            yield shlex.split(command)[1:], stated.strip()


def test_readme_examples(capsys):
    examples = list(_readme_examples())
    assert len(examples) >= 5
    for argv, stated in examples:
        assert run(capsys, *argv)[:2] == (0, stated + "\n"), argv
