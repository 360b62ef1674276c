"""Permutations, pattern occurrences, and the exhaustive census oracle.

A permutation of length n is a tuple of the integers 1..n.  A pattern is just
a (usually short) permutation; the empty tuple is the empty pattern and occurs
exactly once in everything.

The census is the ground truth for the whole package: it counts exactly the
permutations meeting the occurrence constraints, and everything symbolic in
the other modules is ultimately checked against it.  It walks a generating
tree (West 1995; Zeilberger 1998) depth first: a node of length m has up to
m+1 children, one for each new last value j, with the entries >= j raised by
one.  Every restriction is one constraint, exactly or at least 0 or 1
occurrences: the avoided patterns together are "exactly 0", each
exactly-once pattern is "exactly 1", each at-least-once pattern "at least
1".  Avoiding a set is avoiding its minimal patterns, so an avoided pattern
that holds a shorter avoided one is dropped.  The tree holds the
permutations that break no exact constraint's upper bound, a class closed
under deleting entries, so a node outside it is pruned with its whole
subtree.  A child's occurrence counts are its parent's plus the
occurrences that use its new last entry.  Each node carries, per
constraint, int bitmasks over its gaps, one bit per child: the children
that gain at least one and at least two occurrences of the constraint's
patterns.  Every embedding of a pattern t less its last entry completes in
a run of children, between the values that bound t's last entry, and its
mask is that run.  A child's masks come from its parent's:
the old embeddings' runs relabelled, with the bit of the new value copied,
and the runs of the embeddings that end at the new entry, found by one
search with t[-2] pinned to that entry (`_children`, `_ending_at_last`).
That search runs only inside its window: the child at gap g of a node of
length m has g other entries below its new one and m - g above, so it
runs only where g is at least the number of entries of t[:-2] below t[-2]
and m - g at least the number above (`_census_rule`).  A pattern of length
3 needs no search at all: the child holds every value on each side of its
new entry, so its runs are known from the gap alone, and one of length 1,
which every entry completes, has no rule.  So no node searches its whole
permutation, and nothing is computed afresh from p.
`_embeddings` is the one occurrence search, iterative with an explicit
stack and with fixed slots for the floor, the ceiling and a pinned entry:
`count_occurrences` and `contains` run it over the whole pattern.
The loop that builds a child's masks also gives its live gaps, whose
children stay in the class, and its hit gaps, whose children meet the
query.  Every node but the root is counted by its parent as one of the
gaps that are both, so one walk counts every length up to n with one rule,
and the nodes of length n, about two thirds of the tree, are never built.
`census_reference`, a plain lexicographic walk of S_n checked leaf by leaf,
is the oracle the tests hold the census to.

Text format shared with the CLI: a pattern is a compact digit string ("132")
when all values are single digits, otherwise comma-separated values
("10,1,2,..."); "eps" is the empty pattern; pattern sets are
semicolon-separated.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf
from typing import Iterable, Sequence

from .errors import DuplicateEntries, LengthTooLarge, ParseError, PreconditionViolated

Pattern = tuple[int, ...]

PATTERN_132: Pattern = (1, 3, 2)

DEFAULT_MAX_N = 10

# The most processes a census may start: a pool starts all its workers at once.
MAX_WORKERS = 64


def is_permutation(word: Sequence[int]) -> bool:
    """Check that word is a permutation of {1..n}.

    >>> [is_permutation(w) for w in [(), (1,), (2, 1), (1, 3), (1, 1)]]
    [True, True, True, False, False]
    """
    n = len(word)
    return sorted(word) == list(range(1, n + 1))


def parse_pattern(text: str) -> Pattern:
    """Parse one pattern: "132", "10,1,2,...", or "eps" for the empty pattern."""
    text = text.strip()
    if text == "eps":
        return ()
    if not text:
        raise ParseError("empty pattern text (use 'eps' for the empty pattern)")
    try:
        if "," in text:
            entries = tuple(int(part) for part in text.split(","))
        else:
            entries = tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise ParseError(f"cannot parse pattern {text!r}") from exc
    if not is_permutation(entries):
        raise ParseError(f"{text!r} is not a permutation of 1..{len(entries)}")
    return entries


def parse_pattern_set(text: str) -> tuple[Pattern, ...]:
    """Parse a semicolon-separated pattern set; blank input is the empty set."""
    text = text.strip()
    if not text:
        return ()
    return canonical_patterns(parse_pattern(part) for part in text.split(";"))


def canonical_patterns(patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
    """Deduplicate and sort patterns by (length, lexicographic)."""
    return tuple(sorted(set(patterns), key=lambda p: (len(p), p)))


class PatternQuery:
    """Occurrence constraints: avoid all of A, each of B exactly once, each of
    C at least once.  Every pattern must be a permutation of 1..k (the empty
    pattern included), and the three sets must be pairwise disjoint.  Each
    set is kept as tuples in canonical order, and a query is immutable."""

    __slots__ = ("avoid", "exactly_once", "at_least_once")

    def __init__(self, avoid: Iterable[Pattern] = (), exactly_once: Iterable[Pattern] = (),
                 at_least_once: Iterable[Pattern] = ()):
        sets = tuple(canonical_patterns(tuple(t) for t in patterns)
                     for patterns in (avoid, exactly_once, at_least_once))
        for t in sets[0] + sets[1] + sets[2]:
            if not is_permutation(t):
                raise PreconditionViolated(f"pattern {t} is not a permutation of 1..{len(t)}")
        names = ("avoid", "exactly-once", "at-least-once")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if set(sets[i]) & set(sets[j]):
                raise PreconditionViolated(f"{names[i]} and {names[j]} sets must be disjoint")
        for name, patterns in zip(self.__slots__, sets):
            object.__setattr__(self, name, patterns)

    def __setattr__(self, name, value):
        raise AttributeError("PatternQuery is immutable")

    def _key(self) -> tuple:
        return self.avoid, self.exactly_once, self.at_least_once

    def __eq__(self, other) -> bool:
        if other.__class__ is not PatternQuery:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("PatternQuery(avoid={!r}, exactly_once={!r}, at_least_once={!r})"
                .format(*self._key()))

    def __reduce__(self):
        return PatternQuery, self._key()


def count_occurrences(p: Sequence[int], t: Pattern, cap: int | None = None) -> int:
    """Number of subsequences of p order-isomorphic to t.

    Each occurrence is one embedding of all of t found by `_embeddings`.
    With `cap`, counting stops as soon as `cap` occurrences are found, so
    the result is at most `cap`; a negative cap raises PreconditionViolated.

    >>> count_occurrences((2, 1, 3), (1, 2))
    2
    >>> count_occurrences((3, 2, 1), (1, 2))
    0
    >>> count_occurrences((1, 3, 2), ())
    1
    """
    if cap is None:
        cap = inf
    elif cap < 0:
        raise PreconditionViolated(f"occurrence cap must be non-negative, got {cap}")
    elif cap == 0:
        return 0
    k = len(t)
    if k == 0:
        return 1
    chosen = [0] * (k + 2)
    chosen[k], chosen[k + 1] = -inf, inf
    count = 0
    for _ in _embeddings(p, len(p), _placement_plan(t), chosen):
        count += 1
        if count >= cap:
            break
    return count


def contains(p: Sequence[int], t: Pattern) -> bool:
    """True iff t occurs in p at least once."""
    return count_occurrences(p, t, cap=1) >= 1


@lru_cache(maxsize=None)
def _placement_plan(t: Pattern,
                    pinned: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """How `_embeddings` places t, left to right: for each entry, the index
    of the earlier entry whose value bounds it from below and from above.
    Where no earlier entry does, the index is len(t), the floor (below every
    entry of the word searched), or len(t) + 1, the ceiling (above every one).

    With `pinned`, the plan places only the entries before t[pinned], whose
    value is fixed beforehand, and t[pinned] counts as an earlier entry of
    each of them."""
    k = len(t)
    fixed = () if pinned is None else (pinned,)
    below, above = [], []
    for i in range(k if pinned is None else pinned):
        earlier = (*range(i), *fixed)
        lower = [h for h in earlier if t[h] < t[i]]
        upper = [h for h in earlier if t[h] > t[i]]
        below.append(max(lower, key=t.__getitem__) if lower else k)
        above.append(min(upper, key=t.__getitem__) if upper else k + 1)
    return tuple(below), tuple(above)


def _embeddings(p: Sequence[int], n: int, plan, chosen: list):
    """Yield `chosen` once for each embedding in p[:n] of the entries that
    `plan` (`_placement_plan`) places, at least one, with their values
    written into it.

    `chosen` holds one slot per entry of the pattern t, then the floor and
    the ceiling at indices len(t) and len(t) + 1; the caller fills the
    fixed slots (the floor and the ceiling, below and above every entry of
    p[:n], and a pinned entry), and the list is reused between yields.

    The search is iterative, with the stack in lists: entry i scans p from
    position q up to `stop`, which leaves room for the entries after it, for
    a value strictly between its bounds lo and hi; `nxt`, `los` and `his`
    keep where each entry resumes, so backtracking is a step down the stack.
    """
    below, above = plan
    depth = len(below)
    last = depth - 1
    nxt, los, his = [0] * depth, [0] * depth, [0] * depth
    i = q = 0
    lo = los[0] = chosen[below[0]]
    hi = his[0] = chosen[above[0]]
    stop = n - last
    while True:
        while q < stop:
            w = p[q]
            q += 1
            if lo < w < hi:
                chosen[i] = w
                if i == last:
                    yield chosen
                else:
                    nxt[i] = q
                    i += 1
                    lo = los[i] = chosen[below[i]]
                    hi = his[i] = chosen[above[i]]
                    stop += 1
        if i == 0:
            return
        i -= 1
        q, lo, hi = nxt[i], los[i], his[i]
        stop -= 1


# A node of the generating tree is (p, met, ones, twos, live, hits): a
# permutation p; for each constraint of `rules`, whether p meets its lower
# bound (met, 0 or 1) and two gap masks of p; and two gap masks over all
# constraints.  Gap g of a node of length m, for g = 0..m, is the child
# whose new last value is g + 1, and a set of gaps is an int bitmask with
# bit g for gap g.  ones[i] and twos[i] are the gaps whose child gains at
# least one and at least two occurrences, ending at its new entry, of the
# patterns of constraint i, summed over them; each is exact on every gap
# where the constraint can still fail.  live and hits are the gaps whose
# child stays in the class, and those whose child meets the query if it
# does.  A constraint of `rules` is (exact, `_census_rule` of each of its
# patterns): the minimal avoided patterns are one, exactly 0 occurrences,
# and met from the root; each exactly-once pattern is one, exactly 1; each
# at-least-once pattern is one, at least 1.

@lru_cache(maxsize=None)
def _census_rule(t: Pattern):
    """How the census finds the embeddings of t less its last entry that end
    at a node's last entry: the plan of t[:-2] with t[-2] pinned to that
    entry, the slots that bound t[-1] from below and above, and the window
    of the search, (under, over): the entries of t[:-2] below and above
    t[-2].  A child at gap g of a node of length m has g other entries below
    its last and m - g above, so the search can find something only where
    under <= g <= m - over.  t has length 2 or more: every new entry completes
    a pattern of length 1, and `_root` gives it no rule."""
    k = len(t)
    below, above = _placement_plan(t)
    under = sum(v < t[-2] for v in t[:-2])
    return _placement_plan(t, k - 2), below[k - 1], above[k - 1], under, k - 2 - under


def _ending_at_last(child: list[int], rule) -> tuple[int, int]:
    """The new marks of a child: the gaps of `child` that one or more
    (`ones`) and two or more (`twos`) embeddings of t less its last entry
    complete, counting only the embeddings that end at the child's last
    entry, as t[-2].

    An embedding whose entries bound t[-1] by lo and hi (0 and
    len(child) + 1 where it has none) completes at gaps lo..hi-1, the mask
    (1 << hi) - (1 << lo): at gap g the new value g + 1 lies above lo, and
    hi, raised, ends above it.  The pinned last entry bounds every entry of
    the search from one side; a pattern of length 2 has only the one
    embedding, the last entry itself.  A pattern of length 3 needs no
    search: the child holds every value on each side of its last entry j,
    1..j-1 below and j+1..n+1 above, so t[0] takes each value on its side.
    Only one bound of t[-1] can move with t[0], so the runs are nested: the
    widest is at t[0]'s smallest value, or its largest where t[0] bounds
    t[-1] from above, and the next widest, which two embeddings complete,
    one value in.  `rule` is a `_census_rule`, and the child's gap lies in
    its window, so the child's other entries can hold t[:-2].
    """
    plan, lo_at, hi_at, under, _ = rule
    depth = len(plan[0])
    n = len(child) - 1
    chosen = [0] * (depth + 4)
    chosen[depth] = j = child[n]
    chosen[depth + 3] = n + 2
    if not depth:
        return (1 << chosen[hi_at]) - (1 << chosen[lo_at]), 0
    if depth == 1:
        low, high = (1, j - 1) if under else (j + 1, n + 1)
        chosen[0], step = (low, 1) if hi_at else (high, -1)
        ones = (1 << chosen[hi_at]) - (1 << chosen[lo_at])
        if low == high:
            return ones, 0
        chosen[0] += step
        return ones, (1 << chosen[hi_at]) - (1 << chosen[lo_at])
    ones = twos = 0
    for chosen in _embeddings(child, n, plan, chosen):
        mask = (1 << chosen[hi_at]) - (1 << chosen[lo_at])
        twos |= ones & mask
        ones |= mask
    return ones, twos


def _children(node, rules):
    """The children of a node: p followed by each new last value j that keeps
    the class, the entries of p that are >= j raised by one, each with its
    masks carried from the node's and its live and hit gaps.

    Child j's old embeddings are the node's, relabelled: a mask keeps its
    bits below j and moves those from j - 1 up by one, so bit j - 1 is
    copied into bit j.  `_ending_at_last` adds the new ones, except to an
    at-least constraint that the child meets, which can no longer fail, and
    is called only where the gap lies in the rule's window.  The same loop
    gives the child's live and hit gaps: a constraint the child does not
    meet needs a new occurrence at each hit gap, and an exact constraint
    leaves the class with one more occurrence if the child meets it and
    with two more if not."""
    p, met, ones, twos, live, _ = node
    m = len(p)
    every = (4 << m) - 1  # the m + 2 gaps of a child
    for g in range(m + 1):
        if live >> g & 1:
            j = g + 1
            keep = (1 << j) - 1
            child = [w + (w >= j) for w in p]
            child.append(j)
            child_met, child_ones, child_twos = [], [], []
            child_live = child_hits = every
            for (exact, patterns), done, one, two in zip(rules, met, ones, twos):
                done |= one >> g & 1
                one = one & keep | one >> g << j
                two = two & keep | two >> g << j
                if exact or not done:
                    for rule in patterns:
                        # the window, under <= g <= m - over (`_census_rule`)
                        if rule[3] <= g <= m - rule[4]:
                            new_ones, new_twos = _ending_at_last(child, rule)
                            two |= one & new_ones | new_twos
                            one |= new_ones
                    if not done:
                        child_hits &= one
                    if exact:
                        child_live &= ~(one if done else two)
                child_met.append(done)
                child_ones.append(one)
                child_twos.append(two)
            yield child, child_met, child_ones, child_twos, child_live, child_hits


def _walk(node, rules, order: int, tally: list[int]) -> None:
    """Tally every node below the node, down to length `order`, at its
    length, each counted by its parent: the children that are both live and
    hit.  The node is shorter than `order`, and the nodes of length `order`
    are never built."""
    m = len(node[0]) + 1
    tally[m] += (node[4] & node[5]).bit_count()
    if m < order:
        for child in _children(node, rules):
            _walk(child, rules, order, tally)


def _walk_task(args) -> list[int]:
    node, rules, order = args
    tally = [0] * (order + 1)
    _walk(node, rules, order, tally)
    return tally


# With workers > 1, the frontier grows level by level until it holds this
# many subtrees per worker, so that subtrees of unequal size even out.
_SUBTREES_PER_WORKER = 8


def _root(query: PatternQuery):
    """The root of the generating tree, the empty permutation, and its rules.

    Avoiding a set is avoiding its minimal patterns, so an avoided pattern
    that holds a shorter avoided one is dropped.  The root's one child, the
    permutation 1, completes exactly the patterns of length 1: it stays in
    the class unless 1 is avoided, and meets the query if no exactly-once or
    at-least-once pattern is longer.  Every later entry completes them too,
    so their masks stay every gap, and only the longer patterns get a rule."""
    avoid = tuple(t for t in query.avoid
                  if not any(len(u) < len(t) and contains(t, u) for u in query.avoid))
    # The empty pattern occurs exactly once in everything: vacuous constraint.
    constraints = [(1, 1, avoid)] if avoid else []
    constraints += [(1, 0, (t,)) for t in query.exactly_once if t]
    constraints += [(0, 0, (t,)) for t in query.at_least_once if t]
    rules = tuple((exact, tuple(_census_rule(t) for t in patterns if len(t) > 1))
                  for exact, _, patterns in constraints)
    met = [met for _, met, _ in constraints]
    ones = [int(any(len(t) == 1 for t in patterns)) for _, _, patterns in constraints]
    live = int((1,) not in avoid)
    hits = int(all(len(t) <= 1 for t in query.exactly_once + query.at_least_once))
    return ((), met, ones, [0] * len(ones), live, hits), rules


def census(query: PatternQuery, n: int, *, bound: int | None = None,
           workers: int = 1) -> int:
    """f_{A;B}^C(n): exhaustive count over S_n for the given constraints.

    The count is the last entry of `census_series(query, n)`: one walk of the
    generating tree counts every length up to n.  Raises LengthTooLarge past
    the feasibility bound (`bound`, else DEFAULT_MAX_N) so that an infeasible
    run is a deliberate decision, and PreconditionViolated for a negative n
    or workers outside 1..MAX_WORKERS.
    """
    return census_series(query, n, bound=bound, workers=workers)[n]


def census_series(query: PatternQuery, order: int, *, bound: int | None = None,
                  workers: int = 1) -> list[int]:
    """[f(0), f(1), ..., f(order)] for the query, from one walk of the
    generating tree.

    The root is counted from its own flags, and every other node by its
    parent (`_walk`).  With workers > 1 the tree is grown level by level in
    this process until its frontier holds a few subtrees per worker; one
    process pool then walks those subtrees, and the tallies are added, so
    the result is identical.
    """
    limit = DEFAULT_MAX_N if bound is None else bound
    if order > limit:
        raise LengthTooLarge(order, limit)
    if order < 0:
        raise PreconditionViolated("census length must be non-negative")
    if not 1 <= workers <= MAX_WORKERS:
        raise PreconditionViolated(f"workers must be 1..{MAX_WORKERS}, got {workers}")
    if any(len(t) == 0 for t in query.avoid):
        return [0] * (order + 1)  # the empty pattern occurs in every permutation
    root, rules = _root(query)
    tally = [0] * (order + 1)
    tally[0] = int(all(root[1]))
    frontier = [root] if order else []
    depth = 0
    # the frontier stops short of `order`, whose nodes `_walk` never builds
    while (workers > 1 and depth < order - 1
           and 0 < len(frontier) < _SUBTREES_PER_WORKER * workers):
        tally[depth + 1] += sum((live & hits).bit_count() for *_, live, hits in frontier)
        frontier = [child for node in frontier for child in _children(node, rules)]
        depth += 1
    if workers > 1 and len(frontier) >= _SUBTREES_PER_WORKER * workers:
        # imported here: the import costs a serial run about 2.5 MB of memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_walk_task, [(node, rules, order) for node in frontier])
            for part in parts:
                tally = [a + b for a, b in zip(tally, part)]
    else:
        for node in frontier:
            _walk(node, rules, order, tally)
    return tally


def census_reference(query: PatternQuery, n: int) -> int:
    """f_{A;B}^C(n) by a plain single-process walk of S_n: the oracle that
    the tests hold `census` and `census_series` to.

    The walk is depth-first in lexicographic order, one length at a time.  A
    value v extending the current prefix is rejected when the prefix plus v
    contains an avoided pattern (`contains`; the prefix avoids them all, so
    such an occurrence uses v), which skips every permutation with that
    prefix; since any occurrence survives in all completions, no counted
    permutation is lost.  Each permutation reached is then checked against
    the exactly-once and at-least-once sets with `count_occurrences` and
    `contains`.  The walk is one loop, with the prefix as its explicit
    stack.  It shares only `count_occurrences` with the census, and the
    tests hold that to a brute force over index subsets.
    """
    if n < 0:
        raise PreconditionViolated("census length must be non-negative")
    if any(len(t) == 0 for t in query.avoid):
        return 0
    exactly = tuple(t for t in query.exactly_once if t)
    atleast = tuple(t for t in query.at_least_once if t)
    count = 0
    prefix: list[int] = []  # the stack: one value per position placed
    used = [False] * (n + 1)
    v = 1  # the next value to try after the prefix
    while True:
        if len(prefix) == n:
            count += (all(count_occurrences(prefix, t, cap=2) == 1 for t in exactly)
                      and all(contains(prefix, t) for t in atleast))
        else:
            while v <= n and (used[v] or any(contains(prefix + [v], t) for t in query.avoid)):
                v += 1
            if v <= n:
                used[v] = True
                prefix.append(v)
                v = 1
                continue
        if not prefix:
            return count
        v = prefix.pop()
        used[v] = False
        v += 1


def flatten(word: Sequence[int]) -> Pattern:
    """The unique permutation order-isomorphic to a word of distinct values.

    >>> flatten((5, 7, 6))
    (1, 3, 2)
    >>> flatten(())
    ()
    """
    if len(set(word)) != len(word):
        raise DuplicateEntries(f"cannot flatten {tuple(word)}: repeated values")
    ranks = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(ranks[v] for v in word)
