"""The benchmark's inputs, made from the workload name and the seed alone.

Standard library only: both the runner (which checks outputs) and the worker
(which times the program) build the same operation list from here.  Each
operation is a plain dict; the program receives only these inputs.

Operation kinds:
  census   perms.census_series on a PatternQuery; `ref` names the reference
  gf       engine.avoid_set_gf, or engine.avoid_contain_gf with a once set
  cf       chebyshev.cf_closed(k, E) for entry `e` of the package's E battery
  catalog  engine.ulk_avoid_gf / ulk_exact_once_gf and their series
  verify   cli.main(["verify", "--suite", suite, "--json", "--max-n", 9])
"""

from __future__ import annotations

import random

from reference import P132, patterns_avoiding_132, ulk_members

WORKLOADS = ("census-avoid", "census-once", "gf-engine", "verify-all")

CENSUS_ORDER = 7     # census series length; the brute-force reference covers it
REFERENCE_N = 8      # brute-force reference length for engine and catalog series
SERIES_ORDER = 16    # series length of the catalog forms and cf_closed checks
CF_DEPTH = 16        # cf_closed depths 1..CF_DEPTH on every E of the battery
E_BATTERY_SIZE = 23  # verify.e_battery(): 0, 1, 1+x and 20 seeded polynomials
VERIFY_MAX_N = 9
SUITES = ("algebra", "chebyshev", "catalog", "oracle", "recurrence")


def _census(label, avoid=(), once=(), atleast=(), ref="brute"):
    return {"op": "census", "label": label, "avoid": [list(t) for t in avoid],
            "once": [list(t) for t in once], "atleast": [list(t) for t in atleast],
            "order": CENSUS_ORDER, "ref": ref}


def _gf(label, avoid=(), once=()):
    return {"op": "gf", "label": label, "avoid": [list(t) for t in avoid],
            "once": [list(t) for t in once]}


def _fmt(t) -> str:
    return "".join(map(str, t)) if max(t) <= 9 else ",".join(map(str, t))


def _census_avoid(rng: random.Random) -> list[dict]:
    ops = [_census("{132}", [P132], ref="catalan")]
    # Tail families ulk(k, l) with 132; l = 1 is {132, 12...k} (Chow-West).
    for l in range(1, 5):
        for k in range(max(l, 3), 8):
            if (k, l) == (3, 3):
                continue  # {132} and all of S_3: empty from length 3 on
            ref = "brute"
            if l == 1:
                ref = "pow2" if k == 3 else "chow-west"
            ops.append(_census(f"ulk({k},{l})+132", ulk_members(k, l) + [P132], ref=ref))
    ops.append(_census("{123}", [(1, 2, 3)], ref="catalan"))
    ops.append(_census("{1234}", [(1, 2, 3, 4)], ref="gessel"))
    ops.append(_census("{231,1234}", [(2, 3, 1), (1, 2, 3, 4)], ref="brute-reversed"))
    pool = patterns_avoiding_132(4) + patterns_avoiding_132(5)
    for t in rng.sample(pool, 18):
        ops.append(_census(f"{{132,{_fmt(t)}}}", [P132, t]))
    return ops


def _census_once(rng: random.Random) -> list[dict]:
    ops = [_census("132, 123 once", [P132], once=[(1, 2, 3)], ref="once-123")]
    for k in (4, 5):
        ops.append(_census(f"132, ulk({k},2) both once", [P132], once=ulk_members(k, 2)))
    for k, l in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)):
        members = ulk_members(k, l)
        t = members[0]
        ops.append(_census(f"ulk({k},{l}) with {_fmt(t)} once", members[1:] + [P132], once=[t]))
    pool = [t for length in (3, 4, 5) for t in patterns_avoiding_132(length)]
    for t in rng.sample(pool, 15):
        ops.append(_census(f"132, {_fmt(t)} once", [P132], once=[t]))
    for t in rng.sample(pool, 15):
        ops.append(_census(f"132, {_fmt(t)} at least once", [P132], atleast=[t]))
    return ops


def _random_engine_query(rng: random.Random, pool: list) -> tuple[list, list]:
    """One or two avoided patterns of length 4-6, and with even odds one
    exactly-once pattern, at most 10 entries in all.  Larger queries make the
    cost of a run depend on the seed far more than on the program."""
    while True:
        avoid = sorted(rng.sample(pool, rng.randint(1, 2)))
        once = []
        if rng.random() < 0.5:
            t = rng.choice(pool)
            if t in avoid:
                continue
            once = [t]
        if sum(map(len, avoid + once)) <= 10:
            return avoid, once


def _gf_engine(rng: random.Random) -> list[dict]:
    ops = []
    core = {l: patterns_avoiding_132(l) for l in range(1, 5)}
    pool = [t for length in (4, 5, 6) for t in patterns_avoiding_132(length)]
    for _ in range(40):
        avoid, once = _random_engine_query(rng, pool)
        label = "avoid " + ";".join(map(_fmt, avoid)) + (" once " + _fmt(once[0]) if once else "")
        ops.append(_gf(label, avoid, once))
    ulk64 = [t for t in ulk_members(6, 4) if t[:4] in core[4]]
    ops.append(_gf("ulk(6,4), its 14 132-avoiding members", ulk64))
    for k in range(3, 11):
        ops.append(_gf(f"ulk({k},2) both once", (), ulk_members(k, 2)))
    for l in (2, 3):
        for k in range(l + 1, 9):
            members = [t for t in ulk_members(k, l) if t[:l] in core[l]]
            for t in members:
                ops.append(_gf(f"ulk({k},{l}) with {_fmt(t)} once",
                               [m for m in members if m != t], [t]))
    for e in range(E_BATTERY_SIZE):
        for k in range(1, CF_DEPTH + 1):
            ops.append({"op": "cf", "label": f"cf_closed({k}, E[{e}])", "k": k, "e": e,
                        "order": SERIES_ORDER})
    for l in range(1, 5):
        for k in range(l, 13):
            tail = tuple(range(l + 1, k + 1))
            members = [t + tail for t in core[l]]
            ops.append({"op": "catalog", "label": f"ulk_avoid_gf({k},{l})", "form": "ulk",
                        "k": k, "l": l, "order": SERIES_ORDER,
                        "avoid": [list(t) for t in members], "once": []})
            if l < k:
                t = members[0]
                ops.append({"op": "catalog", "label": f"ulk_exact_once_gf({k},{l})",
                            "form": "ulk-once", "k": k, "l": l, "order": SERIES_ORDER,
                            "avoid": [list(m) for m in members if m != t],
                            "once": [list(t)]})
    return ops


def _verify_all(rng: random.Random) -> list[dict]:
    return [{"op": "verify", "label": f"verify --suite {s}", "suite": s,
             "max_n": VERIFY_MAX_N, "exit": 1 if s == "oracle" else 0} for s in SUITES]


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one round of `workload` for `seed`."""
    makers = {"census-avoid": _census_avoid, "census-once": _census_once,
              "gf-engine": _gf_engine, "verify-all": _verify_all}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops = makers[workload](rng)
    rng.shuffle(ops)
    return ops
