"""Generating functions for pattern-restricted 132-avoiding permutations.

Every query here is implicitly confined to the 132-avoiding class: the
generating function for an avoid-set A and exactly-once set B counts, by
length, the permutations that avoid 132 and everything in A while containing
each pattern of B exactly once.  All patterns supplied must themselves avoid
132 (their canonical block decomposition drives the recursion).

The recursion is the block decomposition of a nonempty 132-avoiding
permutation p around its largest entry n: p = (p', n, p'') where every value
of p' exceeds every value of p''.  For a pattern t with decomposition
(B_0, m_0, ..., B_r, m_r), an occurrence of t in p splits at a block
boundary: writing head(t, j) for the flattened cut just after m_{j-1}
(head(t, 0) = bare B_0) and s(t, j) for the j-th suffix,

    occ_p(t) = occ_{p'}(head(t,0)) * occ_{p''}(s(t,1))        [n plays m_0]
             + sum_{j=0..r+1} occ_{p'}(head(t,j)) * occ_{p''}(s(t,j))

with head/suffix out-of-range terms read as the empty pattern (one
occurrence).  Avoidance and exactly-once constraints then split into
disjoint cases indexed per pattern:

Avoided pattern t, case a in 0..r (partition by the deepest prefix of the
chain head(0) < head(2) < ... < head(r+1) still present in p'):
    left avoids    prefix(t, a)      [= head(0) at a=0, head(a+1) after]
    left contains  prefix(t, a-1) at least once (vacuous at a=0)
    right avoids   suffix(t, a)

Exactly-once pattern g, case b in 0..r+1 (which addend above is the unique
occurrence; the b=1 slot is the "n plays m_0" addend, whose left factor must
avoid head(g,1): the plain head(g,j)-in-p' addend at j=1 is impossible, since
head(g,1) in p' would pair with the forced n-addend and double the count):
    b = 0:        left avoids head(g,0);                right: g once
    b = 1:        left avoids head(g,1), head(g,0) once; right avoids g,
                  suffix(g,1) once (when r >= 1)
    2 <= b <= r:  left avoids head(g,b+1), head(g,b) once;
                  right avoids suffix(g,b-1), suffix(g,b) once
    b = r+1>=2:   left: g once;                         right avoids suffix(g,r)

Each case multiplies a left state by a right state, a factor x accounts for
the entry n itself, and at-least-once constraints are eliminated by
inclusion-exclusion over the subsets added to the avoid side.  Terms that
reference the state currently being computed are collected linearly and the
resulting single-unknown equation F = const + a(x)F + b(x) is solved exactly.
The b=1 reading above is pinned by the exhaustive census: the verification
battery compares every engine output against brute-force counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .chebyshev import catalan_poly, cf_closed, reduced_chebyshev, reduced_w
from .decompose import CanonicalDecomposition, decompose, head, prefix, suffix
from .errors import (
    CyclicStateReference,
    DegenerateContinuedFraction,
    Not132Avoiding,
    PreconditionViolated,
)
from .perms import PATTERN_132, Pattern, canonical_patterns, contains, count_occurrences, is_permutation
from .ratfunc import P_X, RF_ONE, RF_X, RF_ZERO, Poly, RatFunc


@dataclass(frozen=True)
class GfState:
    """Canonical recursion key: an (avoid-set, exactly-once-set) pair."""

    avoid: tuple[Pattern, ...]
    exactly_once: tuple[Pattern, ...]

    @staticmethod
    def make(avoid: Iterable[Pattern], exactly_once: Iterable[Pattern]) -> "GfState | None":
        """Canonicalize; returns None when the counting function is
        identically zero.

        Zero detections: the empty pattern is avoided (it occurs in
        everything); an exactly-once pattern contains an avoided pattern;
        one exactly-once pattern holds two or more copies of another.
        Redundancy removals: an avoided pattern containing another avoided
        pattern; an avoided pattern holding two or more copies of an
        exactly-once pattern (its presence would already break that
        constraint); the empty pattern on the exactly-once side (it occurs
        exactly once in everything).
        """
        avoid_set = {tuple(a) for a in avoid}
        once_set = {tuple(b) for b in exactly_once if len(b) > 0}
        if () in avoid_set:
            return None
        for b in once_set:
            for a in avoid_set:
                if contains(b, a):
                    return None
            for b2 in once_set:
                if b2 != b and count_occurrences(b, b2, cap=2) >= 2:
                    return None
        keep = []
        for a in avoid_set:
            redundant = any(a2 != a and contains(a, a2) for a2 in avoid_set)
            if not redundant:
                redundant = any(count_occurrences(a, b, cap=2) >= 2 for b in once_set)
            if not redundant:
                keep.append(a)
        return GfState(canonical_patterns(keep), canonical_patterns(once_set))


@dataclass(frozen=True)
class GfResult:
    """A generating function plus where it came from."""

    value: RatFunc
    provenance: str  # catalog | recurrence | inclusion-exclusion

    def __post_init__(self):
        if self.value.den.coefficient(0) == 0:
            raise PreconditionViolated("generating function must expand at the origin")


def _validate_patterns(patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
    out = []
    for p in patterns:
        p = tuple(p)
        if not is_permutation(p):
            raise PreconditionViolated(f"{p} is not a permutation")
        if p and contains(p, PATTERN_132):
            raise Not132Avoiding(f"pattern {p} contains 132")
        out.append(p)
    return tuple(out)


# ---------------------------------------------------------------------------
# Inclusion-exclusion transforms
# ---------------------------------------------------------------------------

def at_least_once_expansion(avoid: Iterable[Pattern], at_least: Sequence[Pattern]
                            ) -> list[tuple[int, tuple[Pattern, ...]]]:
    """Rewrite at-least-once constraints as a signed sum of avoidance states.

    Returns the 2^|C| terms ((-1)^{|S|}, avoid + S) over subsets S of the
    at-least-once set C; summing any counting functional over the terms gives
    the constrained count.
    """
    base = tuple(avoid)
    out = []
    for size in range(len(at_least) + 1):
        for subset in itertools.combinations(at_least, size):
            out.append(((-1) ** size, canonical_patterns(base + subset)))
    return out


# ---------------------------------------------------------------------------
# The block recurrence
# ---------------------------------------------------------------------------

def _once_case(d: CanonicalDecomposition, b: int,
               l_avoid: list, l_once: list, r_avoid: list, r_once: list) -> None:
    """Append the case-b constraints for one exactly-once pattern."""
    r = d.r
    g = d.pattern
    if b == 0:
        l_avoid.append(head(d, 0))
        r_once.append(g)
    elif b == 1:
        l_avoid.append(head(d, 1))
        h0 = head(d, 0)
        if h0:
            l_once.append(h0)
        r_avoid.append(g)
        if r >= 1:
            r_once.append(suffix(d, 1))
    elif b <= r:
        l_avoid.append(head(d, b + 1))
        l_once.append(head(d, b))
        r_avoid.append(suffix(d, b - 1))
        r_once.append(suffix(d, b))
    else:  # b == r + 1, reachable only for r >= 1
        l_once.append(g)
        r_avoid.append(suffix(d, r))


def _evaluate(state: GfState, memo: dict, in_progress: set) -> RatFunc:
    """The generating function of a state, by the block recurrence.

    A term holds the state itself on at most one side, so the equation for
    it is linear.  Take a pattern of the largest length L in the state; the
    cases add a length-L pattern to either side only as itself.  An avoided
    t reaches the left state only when a = r >= 1 and the right only when
    a = 0; an exactly-once g stays exactly-once on the left only when
    b = r+1 >= 2 and on the right only when b = 0.  Canonicalisation only
    drops patterns, and the avoid and exactly-once sets are disjoint, so the
    left and right states are never both the state.
    """
    if state in memo:
        return memo[state]
    if state in in_progress:
        raise CyclicStateReference(f"states recurse through each other at {state}")
    if state.avoid == ((1,),):
        # Only the empty permutation avoids the pattern 1; canonicalization
        # guarantees the exactly-once side is empty here.
        memo[state] = RF_ONE
        return RF_ONE
    if not state.avoid and not state.exactly_once:
        raise PreconditionViolated(
            "the unrestricted 132-avoiding class has no rational generating function")

    in_progress.add(state)
    try:
        davoid = [decompose(t) for t in state.avoid]
        donce = [decompose(g) for g in state.exactly_once]
        leading = RF_ZERO if state.exactly_once else RF_ONE
        self_coeff = RF_ZERO
        rest = RF_ZERO
        ranges = [range(d.r + 1) for d in davoid] + [range(d.r + 2) for d in donce]
        for indices in itertools.product(*ranges):
            a_idx = indices[:len(davoid)]
            b_idx = indices[len(davoid):]
            l_avoid: list[Pattern] = []
            l_once: list[Pattern] = []
            l_atleast: list[Pattern] = []
            r_avoid: list[Pattern] = []
            r_once: list[Pattern] = []
            for d, a in zip(davoid, a_idx):
                l_avoid.append(prefix(d, a))
                if a >= 1:
                    prev = prefix(d, a - 1)
                    if prev:  # the empty pattern occurs in everything
                        l_atleast.append(prev)
                r_avoid.append(suffix(d, a))
            for d, b in zip(donce, b_idx):
                _once_case(d, b, l_avoid, l_once, r_avoid, r_once)

            right = GfState.make(r_avoid, r_once)
            if right is None:
                continue
            right_is_self = right == state
            right_val = None if right_is_self else _evaluate(right, memo, in_progress)
            if right_val is not None and right_val.is_zero():
                continue

            for sign, left_avoid in at_least_once_expansion(
                    l_avoid, canonical_patterns(l_atleast)):
                left = GfState.make(left_avoid, l_once)
                if left is None:
                    continue
                if left == state:
                    self_coeff = self_coeff + sign * RF_X * right_val
                elif right_is_self:
                    left_val = _evaluate(left, memo, in_progress)
                    self_coeff = self_coeff + sign * RF_X * left_val
                else:
                    left_val = _evaluate(left, memo, in_progress)
                    if not left_val.is_zero():
                        rest = rest + sign * RF_X * left_val * right_val

        denom = RF_ONE - self_coeff
        if denom.is_zero():
            raise DegenerateContinuedFraction(
                f"self-referential equation for {state} is singular")
        result = (leading + rest) / denom
    finally:
        in_progress.discard(state)

    expected_c0 = 0 if state.exactly_once else 1
    assert result.at_zero() == expected_c0, f"constant term broken for {state}"
    memo[state] = result
    return result


def avoid_set_gf(patterns: Iterable[Pattern]) -> RatFunc:
    """Generating function for avoiding every pattern in the set (plus the
    ambient 132).  Patterns must avoid 132 and be mutually incomparable;
    comparable ones are reduced away rather than rejected."""
    pats = _validate_patterns(patterns)
    if not pats:
        raise PreconditionViolated("at least one pattern is required")
    state = GfState.make(pats, ())
    if state is None:
        return RF_ZERO
    return _evaluate(state, {}, set())


def avoid_contain_gf(avoid: Iterable[Pattern], exactly_once: Iterable[Pattern]) -> RatFunc:
    """Generating function for avoiding A while containing each pattern of B
    exactly once (all within the 132-avoiding class)."""
    a = _validate_patterns(avoid)
    b = _validate_patterns(exactly_once)
    if set(a) & set(b):
        raise PreconditionViolated("avoid and exactly-once sets must be disjoint")
    if not a and not b:
        raise PreconditionViolated("at least one pattern is required")
    state = GfState.make(a, b)
    if state is None:
        return RF_ZERO
    if not state.avoid and not state.exactly_once:
        raise PreconditionViolated(
            "constraints reduce to the unrestricted class, which is not rational")
    return _evaluate(state, {}, set())


# ---------------------------------------------------------------------------
# Closed-form catalog
# ---------------------------------------------------------------------------

def ulk_members(k: int, l: int) -> tuple[Pattern, ...]:
    """All length-k patterns whose last k-l entries are l+1, ..., k."""
    if not 1 <= l <= k:
        raise PreconditionViolated(f"need 1 <= l <= k, got l={l}, k={k}")
    tail = tuple(range(l + 1, k + 1))
    return canonical_patterns(
        tuple(p) + tail for p in itertools.permutations(range(1, l + 1)))


def ulk_avoid_gf(k: int, l: int) -> RatFunc:
    """Avoiding all l! patterns that fix the increasing tail l+1..k:
    the depth-(k-l) continued fraction seeded with the Catalan partial sum."""
    if not 1 <= l <= k:
        raise PreconditionViolated(f"need 1 <= l <= k, got l={l}, k={k}")
    e = RatFunc(catalan_poly(l))
    if k == l:
        return e
    return cf_closed(k - l, e)


def ulk_exact_once_gf(k: int, l: int, t: Pattern | None = None) -> RatFunc:
    """Avoiding all tail-fixing patterns but one, containing that one exactly
    once: x^k / (q_{k-l} - x*E*q_{k-l-1})^2 with E the Catalan partial sum.
    The result does not depend on which member is singled out."""
    if not 1 <= l < k:
        raise PreconditionViolated(f"need 1 <= l < k, got l={l}, k={k}")
    if t is not None and tuple(t) not in ulk_members(k, l):
        raise PreconditionViolated(f"{t} does not fix the increasing tail {l + 1}..{k}")
    e = catalan_poly(l)
    den = reduced_chebyshev(k - l) - P_X * e * reduced_chebyshev(k - l - 1)
    return RatFunc(P_X ** k, den * den)


def u2k_both_once_gf(k: int) -> RatFunc:
    """Both patterns 12...k and 213...k contained exactly once: the closed
    sum over the reduced w polynomials.

    Each summand carries x^{5/2} from the seed and x^{(k-j)/2}-type factors
    from the w reductions.  The half exponents add up to
    5 + 2(k-1) + (k-j+1) + (k-j) = 2(2k - j + 2), so the power of x is the
    integer 2k - j + 2.  The sum is empty (zero) for k = 3 and k = 4.
    """
    if k < 3:
        raise PreconditionViolated(f"need k >= 3, got {k}")
    total = RF_ZERO
    w1 = reduced_w(k, 1)
    for j in range(3, k - 1):
        exponent = 2 * k - j + 2
        den = w1 * w1 * reduced_w(k, j - 1) * reduced_w(k, j)
        total = total + RatFunc(Poly([2]) * P_X ** exponent, den)
    return total


def evaluate_query(avoid: Iterable[Pattern], exactly_once: Iterable[Pattern] = ()) -> GfResult:
    """Dispatch a recurrence-engine query and tag the provenance."""
    a = tuple(tuple(p) for p in avoid)
    b = tuple(tuple(p) for p in exactly_once)
    value = avoid_contain_gf(a, b) if b else avoid_set_gf(a)
    return GfResult(value, "recurrence")
