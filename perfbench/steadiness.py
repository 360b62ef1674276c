"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/steadiness.py

Makes two sets of ten runs of every workload in BENCHMARK.json: set 1 on
seeds 1-10, set 2 on seeds 11-20.  Each run is `run.py --trace 0` with its
own seed and BENCHMARK.json's run_seconds.  Runs are made one at a time,
cycling through the workloads so that a slow spell of the machine is shared
among them.  For every workload and end-to-end metric it reports each set's
median and spread (the distance between the first and third quartile as a
share of the median) and checks them against BENCHMARK.json:

* every spread is within the metric's bound;
* the second set's median is not worse than the first's by more than the bound;
* the share of failed operations is the same in both sets.

The runs and the verdict are written to perfbench/out/steadiness.json.
Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per workload in each of the two sets
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    chosen = [w["name"] for w in bench["workloads"]]

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in chosen}
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in chosen:
                result = one_run(w, seed, bench["run_seconds"])
                runs[w][s].append(result)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"set {s + 1} seed {seed} {w}: {values}"
                      f"{'' if result['correct'] else '  WRONG OUTPUT'}", flush=True)

    ok = True
    report: dict = {"runs": runs, "verdict": {}}
    for w in chosen:
        print(f"\n{w}")
        sets = runs[w]
        if not all(r["correct"] for rs in sets for r in rs):
            print("  outputs wrong in some run")
            ok = False
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        if len(set(shares)) > 1:
            print(f"  failed share differs between sets: {shares}")
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            problems = []
            if max(spreads) > bound:
                problems.append("spread over bound")
            drift = worse_by(medians[0], medians[1], metric["better"])
            if drift > bound:
                problems.append("second set worse by more than bound")
            ok = ok and not problems
            report["verdict"][f"{w}/{name}"] = {"medians": medians, "spreads": spreads,
                                                "worse_by": drift, "bound": bound,
                                                "problems": problems}
            print(f"  {name:12} median {' / '.join(f'{m:.5g}' for m in medians)} "
                  f"spread {' / '.join(f'{s:.3f}' for s in spreads)} "
                  f"(bound {bound}, third {bound / 3:.3f}) worse_by {drift:+.3f} "
                  f"{'; '.join(problems) or 'ok'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
