"""Generating functions for pattern-restricted 132-avoiding permutations.

Every query here is implicitly confined to the 132-avoiding class: the
generating function for an avoid-set A and exactly-once set B counts, by
length, the permutations that avoid 132 and everything in A while containing
each pattern of B exactly once.  So at entry an avoided pattern that holds
132 is dropped, and an exactly-once one makes the count 0; the canonical
block decompositions of the patterns left drive the recursion.  The one
check of a query is `perms.PatternQuery`.

The recursion is the block decomposition of a nonempty 132-avoiding
permutation p around its largest entry n: p = (p', n, p'') where every value
of p' exceeds every value of p''.  For a pattern t with decomposition
(B_0, m_0, ..., B_r, m_r), an occurrence of t in p splits at a block
boundary.  With the cuts `heads`, `prefixes` and `suffixes` of
`decompose.decompose(t)` (whose docstring fixes their indices), and writing
h_j = heads[j] and s_j = suffixes[j],

    occ_p(t) = occ_{p'}(h_0) * occ_{p''}(s_1)                 [n plays m_0]
             + sum_{j=0..r+1} occ_{p'}(h_j) * occ_{p''}(s_j)

where the empty pattern occurs once in everything.  Avoidance and
exactly-once constraints then split into disjoint cases, one row per case
and pattern.  An avoided t has rows a = 0..r, split by the deepest prefix of
the chain prefixes[0] < ... < prefixes[r] still present in p'.  An
exactly-once g has rows b = 0..r+1, split by which addend above is its
unique occurrence; b = 1 is the "n plays m_0" addend, whose left factor must
avoid h_1, since h_1 in p' would pair with the forced n-addend and double
the count.  With p_a = prefixes[a], the rows are, in the order `_cases`
returns them:

                          left:                        right:
                          avoids   once     >= once    avoids   once
    avoided t, a = 0..r   p_a      -        p_{a-1} *  s_a      -
    once g, b = 0         h_0      -        -          -        g
    once g, b = 1         h_1      h_0 **   -          g        s_1 ***
    once g, b = 2..r      h_{b+1}  h_b      -          s_{b-1}  s_b
    once g, b = r+1 >= 2  -        g        -          s_r      -

    *   only when a >= 1 and p_{a-1} is nonempty (the empty pattern occurs
        in everything)
    **  only when h_0 is nonempty
    *** only when r >= 1

A case picks one row per pattern and joins each column.  A left
at-least-once pattern c is inclusion-exclusion: the signed terms +1, and -1
with c added to the left avoid set.  `_child_pairs` folds the patterns in
one at a time, canonicalising both partial sides after each, so it gathers
all of a state's cases into one signed multiset of (left, right) pairs
without listing the cases themselves; then
F = [no exactly-once patterns] + x*sum c*F(L)*F(R), with one factor x for
the entry n.  A pair holds the state itself on at most one side, so this is
one linear equation per state, solved once by `_evaluate`.

The patterns of one query and the tests on them live in a `PatternAlgebra`,
which `avoid_contain_gf` builds for that query alone and `_evaluate` and
`_child_pairs` hand down; its docstring says what it numbers and memoises.

The census pins the b=1 reading: verify holds every engine output to it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .chebyshev import catalan_poly, cf_closed, cf_denominator, reduced_w
from .decompose import CanonicalDecomposition, decompose, holds_132
from .errors import PreconditionViolated
from .perms import Pattern, PatternQuery, canonical_patterns, count_occurrences
from .ratfunc import P_ONE, P_X, P_ZERO, RF_ZERO, Poly, RatFunc


class GfState(NamedTuple):
    """Canonical recursion key: an (avoid-set, exactly-once-set) pair, each
    a sorted tuple of the ids its query's `PatternAlgebra` gives patterns.
    `PatternAlgebra.make` builds the canonical ones."""

    avoid: tuple[int, ...]
    exactly_once: tuple[int, ...]


class PatternAlgebra:
    """One query's patterns, interned as small ints, with the tests the
    recursion runs on them, each worked out once.

    Every pattern a state can hold is a query pattern or a cut of one
    (`_cases` splits a pattern only into heads, prefixes and suffixes of its
    decomposition), so the closure of the query's patterns under
    `decompose`'s cuts holds them all.  The ids number that closure in
    `canonical_patterns` order: the empty pattern is 0, and a sorted id
    tuple lists its patterns in canonical order.  The case rows of each
    (pattern, exactly-once or not), the pairwise occurrence counts capped
    at 2 and `make` are memoised as they are first asked for.
    """

    EMPTY = 0

    def __init__(self, patterns: Iterable[Pattern]):
        closure: dict[Pattern, CanonicalDecomposition | None] = {(): None}
        todo = list(patterns)
        while todo:
            t = todo.pop()
            if t not in closure:
                d = closure[t] = decompose(t)
                todo += d.heads + d.suffixes
        self.patterns = canonical_patterns(closure)
        self.ids = {t: i for i, t in enumerate(self.patterns)}
        self._decompositions = [closure[t] for t in self.patterns]
        self._lengths = [len(t) for t in self.patterns]
        self._rows: dict[tuple[int, bool], list] = {}
        self._occurrences: dict[tuple[int, int], int] = {}
        self._made: dict[tuple[tuple[int, ...], tuple[int, ...]], GfState | None] = {}

    def state(self, avoid: Iterable[Pattern], exactly_once: Iterable[Pattern]) -> GfState | None:
        """`make` on patterns of the closure."""
        ids = self.ids
        return self.make(tuple(ids[t] for t in avoid), tuple(ids[t] for t in exactly_once))

    def decode(self, state: GfState) -> tuple[tuple[Pattern, ...], tuple[Pattern, ...]]:
        """The state's avoid and exactly-once patterns, in canonical order."""
        patterns = self.patterns
        return (tuple(patterns[i] for i in state.avoid),
                tuple(patterns[i] for i in state.exactly_once))

    def occurrences(self, i: int, j: int) -> int:
        """How often pattern j occurs in pattern i, counted up to 2."""
        found = self._occurrences.get((i, j))
        if found is None:
            found = count_occurrences(self.patterns[i], self.patterns[j], cap=2)
            self._occurrences[i, j] = found
        return found

    def rows(self, i: int, once: bool) -> list[tuple[tuple[int, ...], ...]]:
        """`_cases` of pattern i, in ids."""
        rows = self._rows.get((i, once))
        if rows is None:
            ids = self.ids
            rows = [tuple(tuple(ids[t] for t in column) for column in row)
                    for row in _cases(self._decompositions[i], once)]
            self._rows[i, once] = rows
        return rows

    def make(self, avoid: tuple[int, ...], exactly_once: tuple[int, ...]) -> GfState | None:
        """Canonicalize; returns None when the counting function is
        identically zero.

        Zero detections: the empty pattern is avoided (it occurs in
        everything); an exactly-once pattern contains an avoided pattern;
        one exactly-once pattern holds two or more copies of another.
        Redundancy removals: an avoided pattern containing another avoided
        pattern; an avoided pattern holding two or more copies of an
        exactly-once pattern (its presence would already break that
        constraint); the empty pattern on the exactly-once side (it occurs
        exactly once in everything).  The avoided patterns kept are the
        minimal ones, found in one pass in id order that tests each
        pattern only against the shorter ones already kept.
        """
        made, key = self._made, (avoid, exactly_once)
        if key not in made:
            made[key] = self._canonical(avoid, exactly_once)
        return made[key]

    def _canonical(self, avoid: tuple[int, ...], exactly_once: tuple[int, ...]) -> GfState | None:
        occurrences, lengths = self.occurrences, self._lengths
        avoid_set = set(avoid)
        once_set = set(exactly_once) - {self.EMPTY}
        if self.EMPTY in avoid_set:
            return None
        for b in once_set:
            for a in avoid_set:
                if occurrences(b, a):
                    return None
            for b2 in once_set:
                if b2 != b and occurrences(b, b2) > 1:
                    return None
        # ids run in (length, lex) order; a pattern holding a dropped one
        # holds what dropped it, a shorter kept one or an exactly-once one
        # twice (the zero-witness step in `_child_pairs`)
        keep = []
        for a in sorted(avoid_set):
            size = lengths[a]
            if not any(lengths[k] < size and occurrences(a, k) for k in keep) \
                    and not any(occurrences(a, b) > 1 for b in once_set):
                keep.append(a)
        return GfState(tuple(keep), tuple(sorted(once_set)))


# ---------------------------------------------------------------------------
# The block recurrence
# ---------------------------------------------------------------------------

def _cases(d: CanonicalDecomposition, once: bool) -> list[tuple[tuple[Pattern, ...], ...]]:
    """The rows of the module docstring's table for an avoided (once=False)
    or exactly-once (once=True) pattern t with decomposition d: each row is
    (left avoids, left once, left at least once, right avoids, right once)."""
    t, r, h, p, s = d.pattern, d.r, d.heads, d.prefixes, d.suffixes
    if not once:
        return [((p[a],), (), (p[a - 1],) if a >= 1 and p[a - 1] else (), (s[a],), ())
                for a in range(r + 1)]
    rows = [((h[0],), (), (), (), (t,)),
            ((h[1],), (h[0],) if h[0] else (), (), (t,), (s[1],) if r >= 1 else ())]
    rows += [((h[b + 1],), (h[b],), (), (s[b - 1],), (s[b],)) for b in range(2, r + 1)]
    if r >= 1:
        rows.append(((), (t,), (), (s[r],), ()))
    return rows


def _child_pairs(state: GfState, algebra: PatternAlgebra) -> dict[tuple[GfState, GfState], int]:
    """A nonempty state's cases as a signed multiset: the net coefficient of
    each (left, right) child pair over every case and inclusion-exclusion
    term, leaving out zero children and the pairs whose signs cancel.

    The cases are folded in one pattern at a time.  A frontier maps each
    pair of canonical partial sides to its net coefficient; each pattern
    meets every frontier entry with each of its rows, and both sides are
    canonicalised at once.  A zero side drops its term, and so does a net
    coefficient of 0.  A row's left at-least-once pattern c becomes the
    terms +1 and -1 with c avoided.  This equals the inclusion-exclusion
    over the joined at-least-once set C, which is the product over C of
    (1 - A_c), where A_c adds c to the avoid set: joining avoid sets is
    idempotent, so (1 - A_c)^2 = 1 - A_c when two rows bring the same c.

    Merging partial sides by their canonical form is sound because, with
    X and Y (avoid, exactly-once) pairs joined setwise,
    make(make(X) + Y) = make(X + Y), and None + Y stays None:
    - Zero detection is monotone: each zero test asks for patterns that are
      present, so a zero X stays zero with Y added.  A zero witness of
      X + Y that uses an avoided a that make(X) dropped passes to what
      dropped it: a pattern inside a, or an exactly-once g that a holds
      twice (an exactly-once b containing a then holds g twice, and b != g,
      since no pattern holds two copies of itself).
    - A minimal antichain is stable under union: min(min(S) + T) =
      min(S + T), since every dropped element lies above a kept one.
    - An avoided pattern dropped for holding two copies of an exactly-once
      g takes along everything that contains it, since those hold two
      copies of g as well.  So the drop is the removal of an up-set, which
      commutes with taking minimal elements and with the union.
    - The empty pattern stays handled: avoided, it makes X zero at once;
      exactly-once, it is dropped at once, and adding it again changes
      nothing.

    A pair holds the state itself on at most one side, so the equation for
    it is linear.  Take a pattern of the largest length L in the state; the
    cases add a length-L pattern to either side only as itself.  An avoided
    t reaches the left state only when a = r >= 1 and the right only when
    a = 0; an exactly-once g stays exactly-once on the left only when
    b = r+1 >= 2 and on the right only when b = 0.  Canonicalisation only
    drops patterns, and the avoid and exactly-once sets are disjoint, so the
    left and right states are never both the state.

    No state recurses through itself by way of another, so the recursion
    needs no cycle guard.  Order states first by the sum of |g| over the
    exactly-once patterns g, then by the down-closure of the avoid antichain
    under containment.  Every child state other than the state itself is
    strictly smaller in that order.  Each g puts at most one exactly-once
    pattern on a side, of length at most |g|, so the sum never grows; it
    stays the same only when each g stays exactly-once there as itself
    (b = r+1 on the left, b = 0 on the right), which puts no avoided pattern
    there.  Then every avoided pattern on that side is a subpattern of some
    avoided t (a prefix or suffix of it), so the avoid down-set can only
    shrink, and an antichain is fixed by its down-set, so it stays the same
    only when the child is the state.

    No child is empty either.  On each side, every avoided t adds an avoided
    pattern, and every g adds an avoided pattern or stays exactly-once.
    Canonicalisation drops an avoided pattern only for a smaller avoided
    one or for an exactly-once one, and an empty avoided pattern makes the
    child zero (None), not empty.
    """
    make = algebra.make
    empty = GfState((), ())
    frontier = {(empty, empty): 1}
    kinds = [(t, False) for t in state.avoid] + [(g, True) for g in state.exactly_once]
    for t, once in kinds:
        rows = algebra.rows(t, once)
        step: dict[tuple[GfState, GfState], int] = {}
        for (left, right), c in frontier.items():
            for l_avoid, l_once, l_atleast, r_avoid, r_once in rows:
                new_right = make(right.avoid + r_avoid, right.exactly_once + r_once)
                if new_right is None:
                    continue
                terms = [(c, l_avoid)]
                if l_atleast:
                    terms.append((-c, l_avoid + l_atleast))
                for coeff, avoid in terms:
                    new_left = make(left.avoid + avoid, left.exactly_once + l_once)
                    if new_left is not None:
                        pair = new_left, new_right
                        step[pair] = step.get(pair, 0) + coeff
        frontier = {pair: c for pair, c in step.items() if c}
    return frontier


def _evaluate(state: GfState, algebra: PatternAlgebra, memo: dict) -> RatFunc:
    """Solve the one linear equation `_child_pairs` gives for a nonempty
    state: F = (leading + x*rest) / (1 - x*S), where S sums the pairs that
    hold the state on one side, and rest the others.

    The sums are taken over one integer denominator and reduced once.  A
    term's denominators are those of its child values: F.den for a pair
    that holds the state, L.den and R.den for any other pair.  The terms are
    grouped by that multiset, and each group's numerators summed.  The
    common denominator D takes each distinct child denominator to its
    largest multiplicity in any group, and each group is lifted to it, so
    with S = Sn/D and rest = Rn/D the result is the one RatFunc
    (leading*D + x*Rn) / (D - x*Sn), whose gcd runs once per state.

    Every child value has passed the constant-term check below, so its
    den(0) is 1; so is D(0), and D - x*Sn has constant term 1, so it is
    never zero.
    """
    if state in memo:
        return memo[state]

    groups: dict[tuple[Poly, ...], list[Poly]] = {}
    for (left, right), c in _child_pairs(state, algebra).items():
        if state in (left, right):
            other = _evaluate(right if left == state else left, algebra, memo)
            if other:
                _add_term(groups, 0, c * other.num, (other.den,))
        else:
            right_val = _evaluate(right, algebra, memo)
            if right_val:
                left_val = _evaluate(left, algebra, memo)
                if left_val:
                    _add_term(groups, 1, c * left_val.num * right_val.num,
                              (left_val.den, right_val.den))
    common, (s_num, rest) = _over_common_denominator(groups)
    leading = 0 if state.exactly_once else 1
    result = RatFunc(common * leading + P_X * rest, common - P_X * s_num)

    if (result.num.coefficient(0), result.den.coefficient(0)) != (leading, 1):
        raise RuntimeError(f"constant term broken for {algebra.decode(state)}: {result.render()}")
    memo[state] = result
    return result


def _add_term(groups: dict, side: int, num: Poly, dens: tuple[Poly, ...]) -> None:
    """Add num over the product of dens to side 0 (S) or 1 (rest) of the
    group of that multiset of denominators (1 left out)."""
    key = tuple(sorted((d for d in dens if d.coeffs != (1,)), key=lambda d: d.coeffs))
    sums = groups.get(key)
    if sums is None:
        sums = groups[key] = [P_ZERO, P_ZERO]
    sums[side] = sums[side] + num


def _over_common_denominator(groups: dict) -> tuple[Poly, list[Poly]]:
    """(D, [S, rest]): D takes each denominator to its largest multiplicity
    in any group, and each side sums its groups' numerators lifted to D."""
    largest: dict[Poly, int] = {}
    for key in groups:
        for d in key:
            largest[d] = max(largest.get(d, 0), key.count(d))
    common = P_ONE
    for d, m in largest.items():
        common = common * d ** m
    sums = [P_ZERO, P_ZERO]
    for key, parts in groups.items():
        lift = P_ONE
        for d, m in largest.items():
            m -= key.count(d)
            if m:
                lift = lift * d ** m
        for side, num in enumerate(parts):
            sums[side] = sums[side] + lift * num
    return common, sums


def avoid_set_gf(patterns: Iterable[Pattern]) -> RatFunc:
    """Generating function for avoiding every pattern in the set (plus the
    ambient 132).  A pattern that holds 132 or another avoided one is
    redundant and reduced away, not rejected."""
    return avoid_contain_gf(patterns, ())


def avoid_contain_gf(avoid: Iterable[Pattern], exactly_once: Iterable[Pattern]) -> RatFunc:
    """Generating function for avoiding A while containing each pattern of B
    exactly once (all within the 132-avoiding class).

    >>> avoid_contain_gf([(1, 4, 3, 2), (1, 2, 3)], []) == avoid_set_gf([(1, 2, 3)])
    True
    >>> avoid_contain_gf([], [(1, 4, 3, 2)])
    RatFunc(0)
    """
    query = PatternQuery(avoid, exactly_once)
    if any(map(holds_132, query.exactly_once)):
        return RF_ZERO
    a = tuple(t for t in query.avoid if not holds_132(t))
    algebra = PatternAlgebra(a + query.exactly_once)
    state = algebra.state(a, query.exactly_once)
    if state is None:
        return RF_ZERO
    if not state.avoid and not state.exactly_once:
        raise PreconditionViolated(
            "constraints reduce to the unrestricted class, which is not rational")
    return _evaluate(state, algebra, {})


# ---------------------------------------------------------------------------
# Closed-form catalog
# ---------------------------------------------------------------------------

def ulk_members(k: int, l: int) -> tuple[Pattern, ...]:
    """All l! length-k patterns whose last k-l entries are l+1, ..., k."""
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
    once: x^k / D_{k-l}^2, with D = `cf_denominator` at the Catalan partial
    sum E: D_{k-l} = q_{k-l} - x*E*q_{k-l-1}.
    The result does not depend on which member is singled out."""
    if not 1 <= l < k:
        raise PreconditionViolated(f"need 1 <= l < k, got l={l}, k={k}")
    # a member has length k, a permutation of 1..l first and then l+1..k
    if t is not None and tuple(sorted(t[:l])) + tuple(t[l:]) != tuple(range(1, k + 1)):
        raise PreconditionViolated(f"{t} does not fix the increasing tail {l + 1}..{k}")
    den = cf_denominator(k - l, catalan_poly(l))
    # den(0) = 1, so x^k and den^2 are coprime
    return RatFunc.from_coprime(P_X ** k, den * den)


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

