"""Independent reference counts for the benchmark, using the standard library only.

Nothing here imports patgf.  Two kinds of reference are provided:

* published counts, computed with plain integers: Catalan numbers for {132}
  and {123}; Gessel's formula for {1234}; 2^(n-1) for {132, 123}; the
  Chow-West Chebyshev quotient for {132, 12...k}; (n-2)*2^(n-3) for the
  132-avoiders that contain 123 exactly once (Mansour-Vainshtein);
* a brute force over the 132-avoiding permutations that tallies, for every
  permutation, how often each pattern occurs, using itertools.combinations.

The continued fraction 1/(1 - x*R) is also unrolled here as a truncated
integer series, to check cf_closed against it.

Run ``python3 perfbench/reference.py --self-test`` to cross-check the
formulas, the brute force and the 132-avoider generator against each other.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction
from math import comb

P132 = (1, 3, 2)


# ---------------------------------------------------------------------------
# Published counts
# ---------------------------------------------------------------------------

def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def gessel_1234(n: int) -> int:
    """Permutations of length n avoiding 1234 (Gessel 1990)."""
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(comb(2 * k, k) * comb(n, k) ** 2 * (3 * k * k + 2 * k + 1 - n - 2 * n * k),
                          (k + 1) ** 2 * (k + 2) * (n - k + 1))
    total *= 2
    assert total.denominator == 1
    return total.numerator


def pow2_132_123(n: int) -> int:
    """Permutations avoiding 132 and 123 (Simion-Schmidt): 2^(n-1), 1 at n=0."""
    return 1 if n == 0 else 2 ** (n - 1)


def once_123(n: int) -> int:
    """132-avoiders containing 123 exactly once (Mansour-Vainshtein)."""
    return (n - 2) * 2 ** (n - 3) if n >= 3 else 0


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def series_div(num: list, den: list, order: int) -> list:
    """Taylor coefficients 0..order of num/den, den[0] != 0."""
    out = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        if isinstance(acc, int) and den[0] in (1, -1):
            out.append(acc * den[0])
        else:
            out.append(Fraction(acc) / den[0])
    return out


def chow_west(k: int, order: int) -> list[int]:
    """Permutations avoiding 132 and 12...k (Chow-West 1999).

    The generating function is U_{k-1}(t)/(sqrt(x)*U_k(t)) at t = 1/(2*sqrt(x)),
    which clears to q_{k-1}/q_k with q_0 = q_1 = 1, q_j = q_{j-1} - x*q_{j-2}.
    """
    q = [[1], [1]]
    for _ in range(2, k + 1):
        q.append(_poly_sub(q[-1], [0] + q[-2]))
    return series_div(q[k - 1], q[k], order)


def unrolled_fraction(e: list[int], k: int, order: int) -> list:
    """Series of R[k; E]: start from E and apply R -> 1/(1 - x*R) k times."""
    r = [Fraction(c) for c in e[:order + 1]] + [Fraction(0)] * max(0, order + 1 - len(e))
    for _ in range(k):
        den = [Fraction(1)] + [-c for c in r[:order]]
        r = series_div([1], den, order)
    return r


# ---------------------------------------------------------------------------
# Brute force over the 132-avoiding permutations
# ---------------------------------------------------------------------------

def flatten(word) -> tuple[int, ...]:
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def occurrences(p, t) -> int:
    """Plain occurrence count: subsequences of p order-isomorphic to t."""
    return sum(1 for c in itertools.combinations(p, len(t)) if flatten(c) == tuple(t))


def avoiders_132(n: int):
    """All 132-avoiding permutations of length n.

    In a 132-avoider every entry left of n exceeds every entry right of n,
    and both sides avoid 132; the self-test checks this generator against
    a filter over itertools.permutations.
    """
    if n == 0:
        yield ()
        return
    for i in range(n):
        low = n - 1 - i
        for left in avoiders_132(i):
            for right in avoiders_132(low):
                yield tuple(v + low for v in left) + (n,) + right


def patterns_avoiding_132(length: int) -> list[tuple[int, ...]]:
    return sorted(p for p in itertools.permutations(range(1, length + 1))
                  if occurrences(p, P132) == 0)


def ulk_members(k: int, l: int) -> list[tuple[int, ...]]:
    """The l! patterns of length k that end with the increasing run l+1..k."""
    tail = tuple(range(l + 1, k + 1))
    return sorted(p + tail for p in itertools.permutations(range(1, l + 1)))


class Brute:
    """Occurrence profiles of every 132-avoider of length 0..max_n.

    A profile maps each pattern (of length 2 or more) occurring in the
    permutation to its number of occurrences.
    """

    def __init__(self, max_n: int):
        self.max_n = max_n
        self.profiles: list[list[dict]] = []
        for n in range(max_n + 1):
            level = []
            for p in avoiders_132(n):
                prof: dict[tuple[int, ...], int] = {}
                for k in range(2, n + 1):
                    for c in itertools.combinations(p, k):
                        t = flatten(c)
                        prof[t] = prof.get(t, 0) + 1
                level.append((n, prof))
            self.profiles.append(level)

    @staticmethod
    def _occ(n: int, prof: dict, t) -> int:
        t = tuple(t)
        if not t:
            return 1
        if len(t) == 1:
            return n
        return prof.get(t, 0)

    def count(self, n: int, avoid=(), once=(), atleast=()) -> int:
        """132-avoiders of length n avoiding `avoid`, containing each of
        `once` exactly once and each of `atleast` at least once."""
        total = 0
        for length, prof in self.profiles[n]:
            if any(self._occ(length, prof, t) for t in avoid):
                continue
            if any(self._occ(length, prof, t) != 1 for t in once):
                continue
            if any(self._occ(length, prof, t) == 0 for t in atleast):
                continue
            total += 1
        return total

    def series(self, order: int, avoid=(), once=(), atleast=()) -> list[int]:
        if order > self.max_n:
            raise ValueError(f"brute force built to length {self.max_n}, asked for {order}")
        return [self.count(n, avoid, once, atleast) for n in range(order + 1)]


# ---------------------------------------------------------------------------
# Reference series of one benchmark operation
# ---------------------------------------------------------------------------

def census_reference(spec: dict, brute: Brute) -> list[int]:
    """The reference series of a census operation, by its `ref` tag."""
    order = spec["order"]
    avoid = [tuple(t) for t in spec["avoid"]]
    once = [tuple(t) for t in spec["once"]]
    atleast = [tuple(t) for t in spec["atleast"]]
    ref = spec["ref"]
    if ref == "catalan":
        return [catalan(n) for n in range(order + 1)]
    if ref == "gessel":
        return [gessel_1234(n) for n in range(order + 1)]
    if ref == "pow2":
        return [pow2_132_123(n) for n in range(order + 1)]
    if ref == "chow-west":
        k = max(len(t) for t in avoid)
        return chow_west(k, order)
    if ref == "once-123":
        return [once_123(n) for n in range(order + 1)]
    if ref == "brute":
        if P132 not in avoid:
            raise ValueError("the brute force covers queries that avoid 132")
        rest = [t for t in avoid if t != P132]
        return brute.series(order, rest, once, atleast)
    if ref == "brute-reversed":
        # p avoids 231 and T exactly when its reverse avoids 132 and reverse(T).
        if (2, 3, 1) not in avoid or once or atleast:
            raise ValueError("brute-reversed covers avoid-only queries with 231")
        rest = [tuple(reversed(t)) for t in avoid if t != (2, 3, 1)]
        return brute.series(order, rest)
    raise ValueError(f"unknown reference {ref!r}")


def gf_reference(spec: dict, brute: Brute, order: int) -> list[int]:
    """Reference series of an engine or catalog query (always inside Av(132))."""
    return brute.series(order, [tuple(t) for t in spec["avoid"]],
                        [tuple(t) for t in spec["once"]])


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def self_test(max_n: int = 8) -> list[str]:
    """Cross-check the generator, the formulas and the brute force."""
    problems = []
    for n in range(8):
        filtered = {p for p in itertools.permutations(range(1, n + 1)) if occurrences(p, P132) == 0}
        generated = list(avoiders_132(n))
        if len(generated) != len(set(generated)) or set(generated) != filtered:
            problems.append(f"132-avoider generator wrong at n={n}")
    brute = Brute(max_n)
    order = max_n
    checks = {
        "Catalan for {132}": (brute.series(order), [catalan(n) for n in range(order + 1)]),
        "2^(n-1) for {132,123}": (brute.series(order, [(1, 2, 3)]),
                                  [pow2_132_123(n) for n in range(order + 1)]),
        "(n-2)2^(n-3) for 123 once": (brute.series(order, (), [(1, 2, 3)]),
                                      [once_123(n) for n in range(order + 1)]),
    }
    for k in range(2, 8):
        inc = tuple(range(1, k + 1))
        checks[f"Chow-West k={k}"] = (brute.series(order, [inc]), chow_west(k, order))
    # Gessel against a direct filter over S_n for small n.
    for n in range(8):
        direct = sum(1 for p in itertools.permutations(range(1, n + 1))
                     if occurrences(p, (1, 2, 3, 4)) == 0)
        checks[f"Gessel n={n}"] = ([direct], [gessel_1234(n)])
    checks["Gessel n=8,9"] = ([15767, 94359], [gessel_1234(8), gessel_1234(9)])
    for name, (got, want) in checks.items():
        if got != want:
            problems.append(f"{name}: brute {got} != formula {want}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true", dest="self_test", required=True)
    parser.parse_args(argv)
    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("reference self-test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
