"""Times one workload of patgf in this process; started by run.py.

Imports patgf from the checkout's `src` directory, builds the workload's
operations from workloads.py, and runs whole rounds of them, timing every
operation in process CPU seconds (this process plus any children it waited
for).  After two rounds it stops before a round that would end past
--seconds of wall time; it stops in any case after --rounds rounds, and
before a round that would end past LIMIT_S, so that a program several times
slower still gives its figures, from fewer rounds.  The outputs of the first
round, the per-operation times and the peak resident memory go to the JSON
file named by --out.

With --trace, the wrappers of tracing.py are installed after set-up and the
per-layer counts of the round are written out as well.  With --setup-probe,
only the set-up is measured and printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (the benchmark's own, standard library only)

MIN_ROUNDS = 2  # every operation is timed at least twice, so its largest reading is taken
LIMIT_S = 120  # no round is started that would end past this much wall time


def cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def import_patgf():
    sys.path.insert(0, str(SRC))
    import patgf
    import patgf.cli

    where = Path(patgf.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"patgf was imported from {where}, not from {SRC}")
    return patgf


def _frac(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _rf(f) -> dict:
    return {"num": [_frac(c) for c in f.num.coeffs], "den": [_frac(c) for c in f.den.coeffs]}


def build_ops(specs: list[dict]) -> list[tuple]:
    """(run, dump) per operation: run() is timed, dump(result) makes the
    JSON-ready output that run.py checks.  Calls go through the module
    attributes at call time, so the traced run sees the wrapped functions."""
    from patgf import chebyshev, cli, engine, perms, verify

    battery = None
    ops = []
    for spec in specs:
        kind = spec["op"]
        avoid = tuple(tuple(t) for t in spec.get("avoid", ()))
        once = tuple(tuple(t) for t in spec.get("once", ()))
        if kind == "census":
            query = perms.PatternQuery(avoid=avoid, exactly_once=once,
                                       at_least_once=tuple(tuple(t) for t in spec["atleast"]))
            ops.append((lambda q=query, n=spec["order"]: perms.census_series(q, n),
                        lambda out: {"series": out}))
        elif kind == "gf":
            if once:
                run = lambda a=avoid, b=once: engine.avoid_contain_gf(a, b)
            else:
                run = lambda a=avoid: engine.avoid_set_gf(a)
            ops.append((run, _rf))
        elif kind == "cf":
            if battery is None:
                battery = verify.e_battery()
            e = battery[spec["e"]]
            ops.append((lambda k=spec["k"], e=e: chebyshev.cf_closed(k, e),
                        lambda out, e=e: dict(_rf(out), e=[_frac(c) for c in e.coeffs])))
        elif kind == "catalog":
            form = engine.ulk_avoid_gf if spec["form"] == "ulk" else engine.ulk_exact_once_gf
            name = form.__name__

            def run(k=spec["k"], l=spec["l"], n=spec["order"], name=name):
                f = getattr(engine, name)(k, l)
                return f, f.series(n)

            ops.append((run, lambda out: dict(_rf(out[0]), series=[_frac(c) for c in out[1].coeffs])))
        elif kind == "verify":
            argv = ["verify", "--suite", spec["suite"], "--json", "--max-n", str(spec["max_n"])]

            def run(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                return code, buf.getvalue()

            ops.append((run, lambda out: {"exit": out[0], "stdout": out[1]}))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return ops


def peak_rss_mb() -> float:
    """High-water resident set of this process image, from VmHWM (which exec
    resets, unlike ru_maxrss, which keeps the parent's peak across exec)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(ops, seconds: float, max_rounds: int) -> dict:
    times: list[list[float]] = []
    outputs: list = []
    failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        row = []
        first = not times
        for run, dump in ops:
            error = None
            t0 = cpu_seconds()
            try:
                result = run()
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            row.append(cpu_seconds() - t0)
            if error is not None:
                failed += 1
            if first:
                outputs.append({"error": error} if error is not None else dump(result))
        times.append(row)
        now = time.perf_counter()
        if len(times) >= max_rounds:
            break
        end_of_next = (now - start) + (now - round_start)
        if end_of_next > LIMIT_S or (len(times) >= MIN_ROUNDS and end_of_next > seconds):
            break
    return {"times": times, "outputs": outputs, "failed": failed,
            "wall_s": time.perf_counter() - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=1000)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", dest="setup_probe")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    specs = workloads.build(args.workload, args.seed)
    t0 = cpu_seconds()
    import_patgf()
    ops = build_ops(specs)
    setup_s = cpu_seconds() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        from patgf import chebyshev

        cache_before = chebyshev.reduced_chebyshev.cache_info()
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = run_rounds(ops, args.seconds, args.rounds)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        cache_after = tracer.lru_functions["chebyshev.reduced_chebyshev"].cache_info()
        result["spans"] = tracer.aggregate()
        result["lru"] = {"hits": cache_after.hits - cache_before.hits,
                         "misses": cache_after.misses - cache_before.misses}
        census = [(i, key) for i, key in tracer.notes.items()
                  if tracer.names[tracer.name[i]] == "perms.census_series"
                  and tracer.has_ancestor(i, "verify.")]
        seen, repeat_s = set(), 0.0
        for i, key in sorted(census):
            if key in seen:
                repeat_s += tracer.end[i] - tracer.start[i]
            seen.add(key)
        result["verify_census"] = {"calls": len(census), "distinct": len(seen),
                                   "repeat_cpu_s": repeat_s}
        result["state_zero"] = sum(1 for i, note in tracer.notes.items()
                                   if tracer.names[tracer.name[i]] == "engine.gfstate_make")
        tracer.dump(str(Path(args.out).with_suffix("")) + "-spans")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
