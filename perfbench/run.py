"""patgf benchmark: one workload, timed in CPU seconds, outputs checked.

    python3 perfbench/run.py --workload census-avoid --seed 1 --seconds 16 --trace 0

Workloads: census-avoid, census-once, gf-engine, verify-all (see README.md).
With --trace 0 it prints the end-to-end metrics (cpu_s, op_p50_s, op_tail_s,
setup_s, peak_rss_mb); with --trace 1 the per-layer metrics of one traced
round, and trace.overhead_s against one untraced round.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

This runner imports nothing from patgf: the timed operations run in a
worker process (worker.py) with PYTHONHASHSEED fixed, and every output is
checked here afterwards against reference.py, so the checks add nothing to
the worker's CPU time or memory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
START = time.monotonic()
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 30         # set-up is measured this many times; the largest is reported
RUN_LIMIT_S = 175         # a run that has not ended by then is stopped with an error
KNOWN_FAILING_CHECK = "both-once k=5: formula series matches census"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    left = RUN_LIMIT_S - (time.monotonic() - START)
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                              timeout=max(left, 1.0), check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker stopped after the run's {RUN_LIMIT_S} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return proc


def timed_run(args, tag: str, *extra) -> dict:
    path = OUT / f"{args.workload}-{args.seed}-{tag}.json"
    run_worker(args, "--out", str(path), *extra)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(args) -> list[float]:
    """Set-up CPU seconds of fresh worker processes; the first, which may
    compile bytecode, is discarded."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc = run_worker(args, "--setup-probe")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples[1:]


# ---------------------------------------------------------------------------
# Output checks (outside every timed section)
# ---------------------------------------------------------------------------

def _fracs(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


def _check_gf(spec, out, brute, problems) -> None:
    num, den = _fracs(out["num"]), _fracs(out["den"])
    label = spec["label"]
    if not den or den[0] != 1:
        problems.append(f"{label}: den(0) is not 1")
        return
    if any(c.denominator != 1 for c in num + den):
        problems.append(f"{label}: non-integer coefficient in {out}")
    n = workloads.REFERENCE_N
    series = reference.series_div(num, den, n)
    if any(c.denominator != 1 or c < 0 for c in series):
        problems.append(f"{label}: series {series} is not a list of counts")
    want_c0 = 0 if spec["once"] else 1
    if series[0] != want_c0:
        problems.append(f"{label}: constant term {series[0]}, want {want_c0}")
    ref = reference.gf_reference(spec, brute, n)
    if series != ref:
        problems.append(f"{label}: series {[int(c) for c in series]} != reference {ref}")
    if "series" in out:
        own = reference.series_div(num, den, spec["order"])
        if _fracs(out["series"]) != own:
            problems.append(f"{label}: returned series disagrees with its num/den")


def _check_cf(spec, out, problems) -> None:
    num, den = _fracs(out["num"]), _fracs(out["den"])
    if not den or den[0] != 1:
        problems.append(f"{spec['label']}: den(0) is not 1")
        return
    order = spec["order"]
    want = reference.unrolled_fraction([int(Fraction(c)) for c in out["e"]], spec["k"], order)
    if reference.series_div(num, den, order) != want:
        problems.append(f"{spec['label']}: series differs from the unrolled fraction")


def _check_verify(spec, out, brute, problems) -> None:
    label = spec["label"]
    if out["exit"] != spec["exit"]:
        problems.append(f"{label}: exit code {out['exit']}, want {spec['exit']}")
    report = json.loads(out["stdout"])
    checks = report["suites"][spec["suite"]]
    for check in checks:
        must_fail = check["name"] == KNOWN_FAILING_CHECK
        if (check["status"] == "fail") != must_fail:
            problems.append(f"{label}: check {check['name']!r} is {check['status']}")
        if must_fail:
            census = json.loads(check["expected"])
            want = brute.series(workloads.REFERENCE_N, (), reference.ulk_members(5, 2))
            if census[:len(want)] != want:
                problems.append(f"{label}: census side {census} disagrees with {want}")
    if spec["suite"] == "oracle" and not any(c["name"] == KNOWN_FAILING_CHECK for c in checks):
        problems.append(f"{label}: the known failing check is missing")


def check_outputs(specs, outputs) -> list[str]:
    problems: list[str] = []
    brute = None
    if any(s["op"] in ("gf", "catalog", "verify") or s.get("ref", "").startswith("brute")
           for s in specs):
        brute = reference.Brute(workloads.REFERENCE_N)
    for spec, out in zip(specs, outputs):
        if "error" in out:
            continue  # counted as failed, not as wrong
        if spec["op"] == "census":
            want = reference.census_reference(spec, brute)
            if out["series"] != want:
                problems.append(f"{spec['label']}: census {out['series']} != reference {want}")
        elif spec["op"] in ("gf", "catalog"):
            _check_gf(spec, out, brute, problems)
        elif spec["op"] == "cf":
            _check_cf(spec, out, problems)
        else:
            _check_verify(spec, out, brute, problems)
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(result: dict, setup: list[float]) -> tuple[dict, str]:
    """Each operation's CPU time is its largest over the run's rounds, and
    setup_s the largest over the set-up probes.

    On a shared host identical work runs either in a common contended state
    or in spells about 1.6 times faster.  The contended state recurs in every
    run, so the largest reading is steady, while a median or a mean moves
    with the share of faster spells in the run."""
    per_op = [max(col) for col in zip(*result["times"])]
    ranked = sorted(per_op)
    n = len(ranked)
    if n >= 40:
        tail, tail_note = ranked[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} ops"
    else:
        tail, tail_note = ranked[-1], f"slowest of {n} ops"
    metrics = {
        "cpu_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail,
        "setup_s": max(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    units = {"cpu_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, tail_note


SPAN_GROUPS = {
    "perms.census": ["perms.census"],
    "perms.census_series": ["perms.census_series"],
    "perms.count_occurrences": ["perms.count_occurrences"],
    "perms.contains": ["perms.contains"],
    "perms.flatten": ["perms.flatten"],
    "decompose.decompose": ["decompose.decompose"],
    "decompose.cuts": ["decompose.head", "decompose.prefix", "decompose.suffix"],
    "ratfunc.ratfunc_new": ["ratfunc.ratfunc_new"],
    "ratfunc.poly_gcd": ["ratfunc.poly_gcd"],
    "ratfunc.poly_mul": ["ratfunc.poly_mul"],
    "ratfunc.series": ["ratfunc.ratfunc_series"],
    "chebyshev.cf_closed": ["chebyshev.cf_closed"],
    "engine.gf": ["engine.avoid_set_gf", "engine.avoid_contain_gf"],
    "engine.state_make": ["engine.gfstate_make"],
    "engine.catalog": ["engine.ulk_avoid_gf", "engine.ulk_exact_once_gf",
                       "engine.u2k_both_once_gf", "engine.lift_by_largest", "engine.ulk_members"],
    "cli.main": ["cli.main"],
}


def _span_sum(spans: dict, group: str, field: str) -> float:
    return sum(spans.get(name, {}).get(field, 0) for name in SPAN_GROUPS[group])


def output_size(outputs) -> tuple[int, int]:
    """Largest degree and coefficient bit length among the rational functions."""
    degree = bits = 0
    for out in outputs:
        for side in ("num", "den"):
            coeffs = _fracs(out.get(side, ()))
            degree = max(degree, len(coeffs) - 1)
            for c in coeffs:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return degree, bits


def per_layer(traced: dict, untraced: dict, declared: list[dict]) -> dict:
    spans = traced["spans"]
    values: dict[str, float] = {}
    for metric in declared:
        name = metric["name"]
        group, _, field = name.rpartition(".")
        if group in SPAN_GROUPS and field in ("calls", "self_s"):
            values[name] = _span_sum(spans, group, field)
    make_calls = _span_sum(spans, "engine.state_make", "calls")
    degree, bits = output_size(traced["outputs"])
    values.update({
        "ratfunc.max_degree": degree,
        "ratfunc.max_coeff_bits": bits,
        "chebyshev.reduced_chebyshev.hits": traced["lru"]["hits"],
        "chebyshev.reduced_chebyshev.misses": traced["lru"]["misses"],
        "engine.state_zero.calls": traced["state_zero"],
        "engine.state_zero_ratio": traced["state_zero"] / make_calls if make_calls else 0.0,
        "verify.census_series.distinct": traced["verify_census"]["distinct"],
        "verify.census_repeat_cpu_s": traced["verify_census"]["repeat_cpu_s"],
        "trace.overhead_s": sum(traced["times"][0]) - sum(untraced["times"][0]),
    })
    for suite in workloads.SUITES:
        values[f"verify.{suite}.s"] = spans.get(f"verify.suite_{suite}", {}).get("total_s", 0.0)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="patgf benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "patgf" / "__init__.py").is_file():
        print(f"error: no patgf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    OUT.mkdir(exist_ok=True)
    specs = workloads.build(args.workload, args.seed)

    if args.trace:
        untraced = timed_run(args, "base", "--rounds", "1")
        traced = timed_run(args, "traced", "--rounds", "1", "--trace")
        results = [untraced, traced]
        metrics = per_layer(traced, untraced, declared["per_layer"])
        note = f"traced round of {len(specs)} ops; spans in {OUT.name}/"
    else:
        setup = setup_seconds(args)
        result = timed_run(args, "run", "--seconds", str(args.seconds))
        results = [result]
        metrics, tail_note = end_to_end(result, setup)
        note = (f"{len(result['times'])} round(s) of {len(specs)} ops in "
                f"{result['wall_s']:.2f} s wall; op_tail_s is the {tail_note}")

    problems = []
    for result in results:
        problems += check_outputs(specs, result["outputs"])
    for line in problems[:20]:
        print("CHECK FAILED:", line, file=sys.stderr)
    attempted = sum(len(r["times"]) * len(specs) for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{args.workload} seed {args.seed}: {note}")
    print(f"operations: {attempted} attempted, {failed} failed; "
          f"outputs {'correct' if not problems else 'WRONG'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
