"""Permutations, pattern occurrences, and the exhaustive census oracle.

A permutation of length n is a tuple of the integers 1..n.  A pattern is just
a (usually short) permutation; the empty tuple is the empty pattern and occurs
exactly once in everything.

The census is the ground truth for the whole package: it counts exactly the
permutations meeting the occurrence constraints, and everything symbolic in
the other modules is ultimately checked against it.  It walks a generating
tree (West 1995; Zeilberger 1998) depth first: a node of length m has up to
m+1 children, one for each new last value j, with the entries >= j raised by
one.  The tree holds the permutations that avoid every avoided pattern and
hold each exactly-once pattern at most once, a class closed under deleting
entries, so a node outside it is pruned with its whole subtree.  A child's
occurrence counts are its parent's plus the occurrences that use its new last
entry, and one search per node and pattern finds these for every child at
once: each embedding of the pattern less its last entry completes in a run
of the node's children, which it ORs into an int bitmask over the node's
gaps, one bit per child (`_gap_masks`).  `_embeddings` is the one occurrence
search, iterative with an explicit stack: the census runs it over each
pattern less its last entry, and `count_occurrences` and `contains` over the
whole pattern.  Each node is tallied at its own length, so one walk counts
every length up to n.  The nodes of length n, about two thirds of the tree,
are never built: their parents count them from the masks.
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
    set is kept in canonical order, and a query is immutable."""

    __slots__ = ("avoid", "exactly_once", "at_least_once")

    def __init__(self, avoid: Iterable[Pattern] = (), exactly_once: Iterable[Pattern] = (),
                 at_least_once: Iterable[Pattern] = ()):
        sets = (canonical_patterns(avoid), canonical_patterns(exactly_once),
                canonical_patterns(at_least_once))
        for t in sets[0] + sets[1] + sets[2]:
            if not is_permutation(t):
                raise PreconditionViolated(f"pattern {t} is not a permutation of 1..{len(t)}")
        for i in range(3):
            for j in range(i + 1, 3):
                if set(sets[i]) & set(sets[j]):
                    raise PreconditionViolated(
                        "avoid / exactly-once / at-least-once sets must be disjoint"
                    )
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
    count = 0
    for _ in _embeddings(p, _placement_plan(t), k, inf):
        count += 1
        if count >= cap:
            break
    return count


def contains(p: Sequence[int], t: Pattern) -> bool:
    """True iff t occurs in p at least once."""
    return count_occurrences(p, t, cap=1) >= 1


@lru_cache(maxsize=None)
def _placement_plan(t: Pattern) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """How `_embeddings` places t, left to right: for each entry, the index
    of the earlier entry whose value bounds it from below and from above.
    Where no earlier entry does, the index is len(t), the floor (value 0),
    or len(t) + 1, the ceiling (above every entry of the word searched)."""
    k = len(t)
    below, above = [], []
    for i in range(k):
        lower = [h for h in range(i) if t[h] < t[i]]
        upper = [h for h in range(i) if t[h] > t[i]]
        below.append(max(lower, key=t.__getitem__) if lower else k)
        above.append(min(upper, key=t.__getitem__) if upper else k + 1)
    return tuple(below), tuple(above)


def _embeddings(p: Sequence[int], plan, depth: int, ceiling):
    """Yield once for each embedding in p of the first `depth` entries of the
    pattern that `plan` (`_placement_plan`) places: the list `chosen`, whose
    first `depth` items are the values taken, then the floor 0 and
    `ceiling`, above every entry of p, at indices len(t) and len(t) + 1.
    The list is reused between yields.

    The search is iterative, with the stack in lists: entry i scans p from
    position q up to `stop`, which leaves room for the entries after it, for
    a value strictly between its bounds lo and hi; `nxt`, `los` and `his`
    keep where each entry resumes, so backtracking is a step down the stack.
    The entries of p are positive.
    """
    below, above = plan
    k = len(below)
    chosen = [0] * (k + 2)
    chosen[k + 1] = ceiling
    if depth == 0:
        yield chosen
        return
    last = depth - 1
    nxt, los, his = [0] * depth, [0] * depth, [0] * depth
    i = q = 0
    lo = los[0] = chosen[below[0]]
    hi = his[0] = chosen[above[0]]
    stop = len(p) - last
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


# A node of the generating tree is (p, once, seen): a permutation p, the
# number of occurrences in p of each exactly-once pattern (0 or 1), and
# whether (1) or not (0) each at-least-once pattern occurs in p.  `rules`
# holds the plans of the avoid, exactly-once and at-least-once patterns.
# Gap g of a node of length m, for g = 0..m, is the child whose new last
# value is g + 1, and a set of gaps is an int bitmask with bit g for gap g.

def _counted(node) -> bool:
    """Does the node's permutation meet the query, not only stay in the class?"""
    _, once, seen = node
    return all(once) and all(seen)


def _completions(p: Sequence[int], plan, live: int) -> int:
    """The mask of the gaps whose child has an occurrence of the planned
    pattern t that uses its new last entry.

    One search walks the embeddings of t less its last entry in p.  The
    last entry's bounds lo and hi in an embedding (0 and len(p) + 1 where it
    has none) admit every new value j with lo < j - 1/2 < hi: entries of p
    below j stay below it, and those the child raises end above it.  So the
    embedding completes at gaps lo..hi-1, the mask (1 << hi) - (1 << lo).
    The search stops once the mask holds every gap of `live`; gaps outside
    `live` may then be missing from it.
    """
    below, above = plan
    k = len(below)
    if k - 1 > len(p):
        return 0
    floor_at, ceiling_at = below[k - 1], above[k - 1]
    ones = 0
    for chosen in _embeddings(p, plan, k - 1, len(p) + 1):
        ones |= (1 << chosen[ceiling_at]) - (1 << chosen[floor_at])
        if not live & ~ones:
            break
    return ones


def _completions_twice(p: Sequence[int], plan, live: int) -> tuple[int, int]:
    """The masks of the gaps whose child has at least one (`ones`) and at
    least two (`twos`) occurrences of t that use its new last entry, from
    the search of `_completions`; it stops once `twos` holds all of `live`."""
    below, above = plan
    k = len(below)
    if k - 1 > len(p):
        return 0, 0
    floor_at, ceiling_at = below[k - 1], above[k - 1]
    ones = twos = 0
    for chosen in _embeddings(p, plan, k - 1, len(p) + 1):
        mask = (1 << chosen[ceiling_at]) - (1 << chosen[floor_at])
        twos |= ones & mask
        ones |= mask
        if not live & ~twos:
            break
    return ones, twos


def _gap_masks(node, rules) -> tuple[int, list[int], list[int]]:
    """The node's children as masks: (live, ones, found).  `live` holds the
    gaps whose child stays in the class.  At a live gap, the child holds
    exactly-once pattern i once where bit g of ones[i] is set (else not at
    all), and at-least-once pattern i where bit g of found[i] is set.  Bits
    outside `live` mean nothing; once `live` is empty the lists are too."""
    p, once, seen = node
    avoid, exactly, atleast = rules
    full = live = (2 << len(p)) - 1
    for plan in avoid:
        live &= ~_completions(p, plan, live)
        if not live:
            return 0, [], []
    ones = []
    for plan, count in zip(exactly, once):
        if count:  # a second occurrence leaves the class, as an avoided one does
            live &= ~_completions(p, plan, live)
            ones.append(full)
        else:
            mask, twos = _completions_twice(p, plan, live)
            live &= ~twos
            ones.append(mask)
        if not live:
            return 0, [], []
    found = [full if s else _completions(p, plan, live) for plan, s in zip(atleast, seen)]
    return live, ones, found


def _children(node, rules):
    """The children of a node: p followed by each new last value j that keeps
    the class, the entries of p that are >= j raised by one."""
    p = node[0]
    live, ones, found = _gap_masks(node, rules)
    for g in range(len(p) + 1):
        if live >> g & 1:
            j = g + 1
            child = [w + (w >= j) for w in p]
            child.append(j)
            yield (child, tuple(mask >> g & 1 for mask in ones),
                   tuple(mask >> g & 1 for mask in found))


def _walk(node, rules, order: int, tally: list[int]) -> None:
    """Tally the node and every node below it, down to length `order`, at
    its length.  The nodes of length `order` are counted from their parents'
    masks and never built."""
    m = len(node[0])
    tally[m] += _counted(node)
    if m + 1 < order:
        for child in _children(node, rules):
            _walk(child, rules, order, tally)
    elif m < order:
        live, ones, found = _gap_masks(node, rules)
        for mask in ones + found:
            live &= mask
        tally[order] += live.bit_count()


def _walk_task(args) -> list[int]:
    node, rules, order = args
    tally = [0] * (order + 1)
    _walk(node, rules, order, tally)
    return tally


# With workers > 1, the frontier grows level by level until it holds this
# many subtrees per worker, so that subtrees of unequal size even out.
_SUBTREES_PER_WORKER = 8


def _tree_series(query: PatternQuery, order: int, workers: int) -> list[int]:
    """Counts at lengths 0..order from one walk of the generating tree."""
    if any(len(t) == 0 for t in query.avoid):
        return [0] * (order + 1)  # the empty pattern occurs in every permutation
    # The empty pattern occurs exactly once in everything: vacuous constraint.
    exactly = tuple(t for t in query.exactly_once if t)
    atleast = tuple(t for t in query.at_least_once if t)
    rules = tuple(tuple(_placement_plan(t) for t in patterns)
                  for patterns in (query.avoid, exactly, atleast))
    tally = [0] * (order + 1)
    frontier = [((), (0,) * len(exactly), (0,) * len(atleast))]
    depth = 0
    # the frontier stops short of `order`, whose nodes `_walk` never builds
    while (workers > 1 and depth < order - 1
           and 0 < len(frontier) < _SUBTREES_PER_WORKER * workers):
        tally[depth] += sum(map(_counted, frontier))
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


def census(query: PatternQuery, n: int, *, bound: int | None = None,
           workers: int = 1) -> int:
    """f_{A;B}^C(n): exhaustive count over S_n for the given constraints.

    The count is the last entry of `census_series(query, n)`: one walk of the
    generating tree counts every length up to n.  Raises LengthTooLarge past
    the feasibility bound (`bound`, else DEFAULT_MAX_N) so that an infeasible
    run is a deliberate decision, and PreconditionViolated for a negative n
    or workers < 1.
    """
    return census_series(query, n, bound=bound, workers=workers)[n]


def census_series(query: PatternQuery, order: int, *, bound: int | None = None,
                  workers: int = 1) -> list[int]:
    """[f(0), f(1), ..., f(order)] for the query, from one walk of the
    generating tree.

    With workers > 1 the tree is grown level by level in this process until
    its frontier holds a few subtrees per worker; one process pool then walks
    those subtrees, and the tallies are added, so the result is identical.
    """
    limit = DEFAULT_MAX_N if bound is None else bound
    if order > limit:
        raise LengthTooLarge(order, limit)
    if order < 0:
        raise PreconditionViolated("census length must be non-negative")
    if workers < 1:
        raise PreconditionViolated(f"workers must be at least 1, got {workers}")
    return _tree_series(query, order, workers)


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
