"""Permutation core: occurrences, avoidance, and the census oracle."""

import concurrent.futures
import functools
import gc
import itertools
import pickle
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patgf import (
    LengthTooLarge,
    ParseError,
    PatternQuery,
    PreconditionViolated,
    census,
    census_series,
    contains,
    count_occurrences,
    flatten,
    is_permutation,
    parse_pattern,
    parse_pattern_set,
)
from patgf import perms, verify
from patgf.engine import ulk_members
from patgf.errors import DuplicateEntries
from patgf.perms import PATTERN_132 as P132
from patgf.perms import census_reference


def brute_occurrences(p, t):
    """Independent oracle: enumerate all index subsets."""
    k = len(t)
    total = 0
    for combo in itertools.combinations(range(len(p)), k):
        values = [p[i] for i in combo]
        if flatten(values) == t:
            total += 1
    return total


def test_occurrences_examples():
    assert count_occurrences((2, 1, 3), (1, 2)) == 2
    assert count_occurrences((1, 3, 2), (1, 3, 2)) == 1
    assert count_occurrences((3, 2, 1), (1, 2)) == 0


def test_occurrences_empty_pattern():
    for p in [(), (1,), (2, 1, 3)]:
        assert count_occurrences(p, ()) == 1


@pytest.mark.parametrize("n,k", [(n, k) for n in range(7) for k in range(5)])
def test_occurrences_against_subset_enumeration(n, k):
    for p in itertools.permutations(range(1, n + 1)):
        for t in itertools.permutations(range(1, k + 1)):
            want = brute_occurrences(p, t)
            assert count_occurrences(p, t) == want, (p, t)
            for cap in (0, 1, 2):
                assert count_occurrences(p, t, cap=cap) == min(want, cap), (p, t, cap)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(-10, 9), max_size=8, unique=True),
       st.integers(0, 4).flatmap(lambda k: st.permutations(range(1, k + 1))))
@example([0, 1], [1, 2])
@example([-1, -2], [2, 1])
@example([0, 2, 1], [1, 3, 2])
def test_occurrences_in_words_with_entries_below_one(word, t):
    # the search's floor lies below every entry of the word, not at 0
    word, t = tuple(word), tuple(t)
    want = brute_occurrences(word, t)
    assert count_occurrences(word, t) == want
    for cap in (0, 1, 2):
        assert count_occurrences(word, t, cap=cap) == min(want, cap)
    assert contains(word, t) == (want > 0)


def test_occurrence_sum_is_binomial():
    # summing over all patterns of length k counts all k-subsets
    for p in [(2, 1, 3), (4, 2, 1, 3), (3, 1, 4, 5, 2)]:
        n = len(p)
        for k in range(n + 1):
            total = sum(count_occurrences(p, t)
                        for t in itertools.permutations(range(1, k + 1)))
            assert total == comb(n, k)


def test_count_occurrences_cap():
    p = (1, 2, 3, 4, 5)
    assert count_occurrences(p, (1, 2), cap=2) == 2
    assert count_occurrences(p, (1, 2)) == comb(5, 2)
    for cap in (-1, -5):
        with pytest.raises(PreconditionViolated):
            count_occurrences(p, (1, 2), cap=cap)
        with pytest.raises(PreconditionViolated):
            count_occurrences(p, (), cap=cap)


def test_census_examples():
    assert census(PatternQuery(avoid=(P132,)), 3) == 5
    assert census(PatternQuery(avoid=(P132, (1, 2, 3), (2, 1, 3))), 4) == 5
    assert census(PatternQuery(), 4) == 24


def test_census_series_examples():
    fib = PatternQuery(avoid=(P132, (1, 2, 3), (2, 1, 3)))
    assert census_series(fib, 5) == [1, 1, 2, 3, 5, 8]
    assert census_series(PatternQuery(avoid=((),)), 3) == [0, 0, 0, 0]
    assert census_series(PatternQuery(exactly_once=((1, 2),)), 4) == [0, 0, 1, 2, 3]


def test_census_catalan():
    cat = [1, 1, 2, 5, 14, 42, 132]
    assert census_series(PatternQuery(avoid=(P132,)), 6) == cat


def test_census_unconstrained_is_factorial():
    assert census_series(PatternQuery(), 6) == [factorial(n) for n in range(7)]


def test_census_at_least_once():
    # at-least-once of 12: complement of avoiding it
    for n in range(6):
        q = PatternQuery(at_least_once=((1, 2),))
        assert census(q, n) == factorial(n) - census(PatternQuery(avoid=((1, 2),)), n)


def test_pattern_query_is_an_immutable_value():
    q = PatternQuery(avoid=[(2, 1), P132], exactly_once=((1,),))
    assert q.avoid == ((2, 1), P132) and q.at_least_once == ()
    same = PatternQuery((P132, (2, 1), P132), [(1,)])
    assert q == same and hash(q) == hash(same) and q != PatternQuery(avoid=q.avoid)
    assert pickle.loads(pickle.dumps(q)) == q
    assert repr(q) == ("PatternQuery(avoid=((2, 1), (1, 3, 2)), exactly_once=((1,),), "
                       "at_least_once=())")
    with pytest.raises(AttributeError):
        q.avoid = ()
    with pytest.raises(PreconditionViolated):
        PatternQuery(avoid=((1, 2),), at_least_once=((1, 2),))


def test_census_base_identity():
    # contains-at-least-once + avoids = everything, under any ambient avoid set
    for ambient in [(), (P132,), ((2, 1, 3),)]:
        for t in [(1, 2), (2, 3, 1), (1, 2, 3)]:
            if t in ambient:
                continue
            for n in range(6):
                with_t = census(PatternQuery(avoid=ambient, at_least_once=(t,)), n)
                without = census(PatternQuery(avoid=ambient + (t,)), n)
                assert with_t + without == census(PatternQuery(avoid=ambient), n)


def test_census_monotone_in_avoid_set():
    for n in range(6):
        assert census(PatternQuery(avoid=(P132, (2, 1),)), n) \
            <= census(PatternQuery(avoid=(P132,)), n)


def test_census_deterministic():
    q = PatternQuery(avoid=((2, 3, 1),), exactly_once=((1, 2),))
    assert census(q, 6) == census(q, 6)


def test_census_parallel_matches_serial():
    q = PatternQuery(avoid=(P132,), exactly_once=((1, 2, 3),))
    assert census(q, 6, workers=2) == census(q, 6, workers=1)


def _bits(flags):
    return sum(1 << g for g, flag in enumerate(flags) if flag)


def completions(p, t):
    """From scratch, the reference for the masks the census carries: for
    each gap of p, the occurrences of t in its child that use the new last
    entry.  One search of t less its last entry over all of p; each
    embedding completes at the gaps between the values that bound t's last
    entry."""
    k = len(t)
    if k == 1:
        return [1] * (len(p) + 1)
    below, above = perms._placement_plan(t)
    chosen = [0] * (k + 2)
    chosen[k + 1] = len(p) + 1
    counts = [0] * (len(p) + 1)
    for chosen in perms._embeddings(p, len(p), (below[:-1], above[:-1]), chosen):
        for g in range(chosen[below[-1]], chosen[above[-1]]):
            counts[g] += 1
    return counts


def _new_occurrences(p, t):
    """Brute force: for each gap g of p, the occurrences of t in the child
    whose new last value is g + 1 that use that entry.  Such an occurrence
    is a subsequence of p shaped like t less its last entry, with exactly
    t[-1] - 1 of its values below g + 1/2, where the new entry sits among
    p's values."""
    counts = [0] * (len(p) + 1)
    head = flatten(t[:-1])
    for values in itertools.combinations(p, len(t) - 1):
        if flatten(values) == head:
            for g in range(len(p) + 1):
                counts[g] += sum(v <= g for v in values) == t[-1] - 1
    return counts


# each role as a census constraint: (exact, least), exactly or at least
# `least` occurrences
_ROLES = {"avoid": (1, 0), "exactly once": (1, 1), "at least once": (0, 1)}


def _node(p, new, exact, least, start):
    """The census node of p for a one-constraint query, exact or not, bound
    `least`, from `start` occurrences, with the new occurrences `new` at each
    gap.  Its live gaps keep an exact constraint's count at most `least`, and
    its hit gaps bring the count to at least `least`: one rule for every role."""
    return (p, [int(start >= least)], [_bits(w >= 1 for w in new)], [_bits(w >= 2 for w in new)],
            _bits(not exact or start + w <= least for w in new),
            _bits(start + w >= least for w in new))


def test_gap_marks_match_occurrence_differences():
    # the occurrences of t in a child that use its new last entry are those in
    # the child less those in the rest, which is order-isomorphic to the parent;
    # a node (exact, from brute force) steps to each of its live children, whose
    # masks (the old embeddings relabelled plus those that end at the new
    # entry) are held to brute force on the child wherever the constraint can
    # still fail, and whose carried live and hit gaps are held to brute force
    # on every gap: every t in each of the three roles, from start counts 0 and 1
    patterns = [t for k in range(1, 5) for t in itertools.permutations(range(1, k + 1))]
    oracle = functools.lru_cache(maxsize=None)(_new_occurrences)
    for m in range(5):
        for p in itertools.permutations(range(1, m + 1)):
            for t in patterns:
                new = oracle(p, t)
                for role, start in (("avoid", 0), ("exactly once", 0), ("exactly once", 1),
                                    ("at least once", 0), ("at least once", 1)):
                    exact, least = _ROLES[role]
                    node = _node(p, new, exact, least, start)
                    # a length-1 t gets no rule, as in `_root`
                    rules = ((exact, (perms._census_rule(t),) if len(t) > 1 else ()),)
                    live = node[4]
                    children = list(perms._children(node, rules))
                    gaps = [g for g in range(m + 1) if live >> g & 1]
                    assert [child[0] for child in children] == \
                        [[w + (w > g) for w in p] + [g + 1] for g in gaps], (p, t, role)
                    for g, child in zip(gaps, children):
                        count = min(start + new[g], 1)
                        want = _node(tuple(child[0]), oracle(tuple(child[0]), t), exact, least,
                                     count)
                        assert child[1] == want[1], (p, t, role, start, g)
                        if exact or count < least:
                            assert child[2:4] == want[2:4], (p, t, role, start, g)
                        assert child[4:] == want[4:], (p, t, role, start, g)


def test_census_matches_reference_on_verify_queries(monkeypatch):
    calls = []

    def recording(query, order, **kwargs):
        series = census_series(query, order, **kwargs)
        calls.append((query, order, series))
        return series

    monkeypatch.setattr(verify, "census_series", recording)
    checks = verify.suite_oracle(verify.CensusReader(8, workers=1))
    checks += verify.suite_recurrence(verify.CensusReader(8, workers=1))
    # every symbolic result equals the census but the paper's k=5 closed sum
    failed = [check.name for check in checks if not check.passed]
    assert failed == ["both-once k=5: formula series matches census"]
    distinct = {(query, order): series for query, order, series in calls}
    assert len(distinct) >= 25
    for (query, order), series in distinct.items():
        assert series == [census_reference(query, n) for n in range(order + 1)], query


_SMALL_PATTERNS = [t for k in range(5) for t in itertools.permutations(range(1, k + 1))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_SMALL_PATTERNS), st.integers(0, 2)),
                max_size=4, unique_by=lambda pair: pair[0]))
# the root's tally, order 0 and the patterns of length 0 and 1, which get no
# search rule, in each of the three roles
@example([((), 0)])
@example([((), 1)])
@example([((), 2)])
@example([((1,), 0)])
@example([((1,), 1)])
@example([((1,), 2)])
def test_census_matches_reference_on_random_queries(roles):
    sets = ([], [], [])
    for t, role in roles:
        sets[role].append(t)
    query = PatternQuery(*map(tuple, sets))
    want = [census_reference(query, n) for n in range(7)]
    # every order: 0 tallies the root alone, 1 counts the root's children from masks
    for order in range(7):
        assert census_series(query, order) == want[:order + 1], (query, order)


def _roles_query(roles):
    sets = ([], [], [])
    for t, role in roles:
        sets[role].append(t)
    return PatternQuery(*map(tuple, sets))


_RANDOM_ROLES = st.lists(st.tuples(st.sampled_from(_SMALL_PATTERNS), st.integers(0, 2)),
                         max_size=4, unique_by=lambda pair: pair[0])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_RANDOM_ROLES)
def test_carried_masks_match_the_search_from_scratch(roles):
    # every node the walk builds, to length 7, carries exactly the masks that
    # one search over its whole permutation gives, summed over each
    # constraint's patterns, on every gap, wherever the constraint can still fail
    query = _roles_query(roles)
    if any(len(t) == 0 for t in query.avoid):
        return  # the walk never starts
    node, rules = perms._root(query)
    # avoiding a set is avoiding its minimal patterns, the ones the census keeps
    minimal = tuple(t for t in query.avoid
                    if not any(len(u) < len(t) and brute_occurrences(t, u) for u in query.avoid))
    constraints = [(1, 0, minimal)] if minimal else []
    constraints += [(1, 1, (t,)) for t in query.exactly_once if t]
    constraints += [(0, 1, (t,)) for t in query.at_least_once if t]
    assert [exact for exact, _ in rules] == [exact for exact, _, _ in constraints]
    # only the patterns of length 2 or more get a rule
    assert [len(patterns) for _, patterns in rules] == \
        [sum(len(t) > 1 for t in ts) for _, _, ts in constraints]
    stack = [node]
    while stack:
        p, met, ones, twos, live, hits = node = stack.pop()
        assert len(met) == len(ones) == len(twos) == len(constraints), (query, p)
        want_live = want_hits = (2 << len(p)) - 1
        for i, (exact, least, patterns) in enumerate(constraints):
            count = sum(count_occurrences(p, t) for t in patterns)
            assert met[i] == (count >= least) and (not exact or count <= least), (query, p, i)
            # a met at-least constraint leaves every gap live and hit
            if exact or not met[i]:
                new = [sum(counts) for counts in zip(*(completions(p, t) for t in patterns))]
                assert ones[i] == _bits(w >= 1 for w in new), (query, p, i)
                assert twos[i] == _bits(w >= 2 for w in new), (query, p, i)
                want_live &= _bits(not exact or count + w <= least for w in new)
                want_hits &= _bits(count + w >= least for w in new)
        assert (live, hits) == (want_live, want_hits), (query, p)
        if minimal != query.avoid:
            # the whole avoid set gains an occurrence at the same gaps
            new = [sum(counts) for counts in zip(*(completions(p, t) for t in query.avoid))]
            assert ones[0] == _bits(w >= 1 for w in new), (query, p)
        if len(p) < 7:
            stack.extend(perms._children(node, rules))


@pytest.mark.parametrize("query", [
    PatternQuery(avoid=[P132, (1, 2, 3, 4, 5)]),
    PatternQuery(avoid=[P132], exactly_once=[(1, 2, 3, 4)]),
])
def test_pinned_search_runs_only_inside_the_window(monkeypatch, query):
    # a child at gap g of a node of length m has g other entries below its
    # last and m - g above, so the search of t[:-2] with t[-2] pinned to the
    # last entry is run only where under <= g <= m - over, the entries of
    # t[:-2] below and above t[-2]; the series still equal the reference
    windows = {}
    for t in query.avoid + query.exactly_once:
        under = sum(v < t[-2] for v in t[:-2])
        windows[id(perms._census_rule(t))] = (t, under, len(t) - 2 - under)
    calls = []
    search = perms._ending_at_last

    def spy(child, rule):
        t, under, over = windows[id(rule)]
        g, m = child[-1] - 1, len(child) - 1
        calls.append(g)
        assert under <= g <= m - over, (child, t)
        return search(child, rule)

    monkeypatch.setattr(perms, "_ending_at_last", spy)
    assert census_series(query, 8) == [census_reference(query, n) for n in range(9)]
    assert calls


def _pinned_search(child, t):
    """From scratch, what `perms._ending_at_last` gives: one search of t less
    its last entry over all of the child, keeping the embeddings whose t[-2]
    is the child's last entry; each completes at the gaps between the values
    that bound t's last entry.  (ones, twos) as gap masks."""
    k = len(t)
    below, above = perms._placement_plan(t)
    chosen = [0] * (k + 2)
    chosen[k + 1] = len(child) + 1
    ones = twos = 0
    for chosen in perms._embeddings(child, len(child), (below[:-1], above[:-1]), chosen):
        if chosen[k - 2] == child[-1]:
            mask = (1 << chosen[above[-1]]) - (1 << chosen[below[-1]])
            twos |= ones & mask
            ones |= mask
    return ones, twos


def test_length_3_patterns_need_no_search(monkeypatch):
    # t[0] takes every value on its side of the child's last entry, and the
    # runs it bounds are nested: the closed form equals the search on every
    # child of length at most 7 whose gap lies in the window, and runs none
    children = 0
    for t in itertools.permutations(range(1, 4)):
        rule = perms._census_rule(t)
        want = {}
        for n in range(1, 8):
            for child in itertools.permutations(range(1, n + 1)):
                g, m = child[-1] - 1, n - 1
                if rule[3] <= g <= m - rule[4]:
                    want[child] = _pinned_search(child, t)
        searches = []
        monkeypatch.setattr(perms, "_embeddings", lambda *args: searches.append(args))
        for child, masks in want.items():
            assert perms._ending_at_last(list(child), rule) == masks, (t, child)
        monkeypatch.undo()
        assert not searches, t
        children += len(want)
    assert children == 30234


@pytest.mark.parametrize("avoid", [
    (P132,) + ulk_members(5, 4),
    ((1, 2), P132),
])
def test_census_keeps_only_the_minimal_avoided_patterns(monkeypatch, avoid):
    # avoiding a set is avoiding its minimal patterns: no rule of a pattern
    # that holds a shorter avoided one is ever searched
    query = PatternQuery(avoid=avoid)
    redundant = {id(perms._census_rule(t)) for t in avoid
                 if any(len(u) < len(t) and brute_occurrences(t, u) for u in avoid)}
    assert redundant
    rules = []
    search = perms._ending_at_last

    def spy(child, rule):
        rules.append(id(rule))
        return search(child, rule)

    monkeypatch.setattr(perms, "_ending_at_last", spy)
    want = [census_reference(query, n) for n in range(9)]
    assert census_series(query, 8) == want
    assert rules and not redundant.intersection(rules)
    assert census_series(query, 8, workers=2) == want


def _symmetries(t):
    """The images of t under the eight symmetries of the square: reverse,
    complement and inverse, and their products."""
    k = len(t)
    inverse = tuple(t.index(v) + 1 for v in range(1, k + 1))
    return [image for u in (t, inverse)
            for image in (u, u[::-1], tuple(k + 1 - v for v in u),
                          tuple(k + 1 - v for v in u[::-1]))]


def test_symmetries_are_the_eight_of_the_square():
    images = _symmetries((2, 4, 1, 3, 5))
    assert len(set(images)) == 8
    assert set(_symmetries((1, 3, 2))) == {(1, 3, 2), (2, 3, 1), (3, 1, 2), (2, 1, 3)}
    for image in images:  # a group: each image has the same eight images
        assert set(_symmetries(image)) == set(images)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.sampled_from([t for t in _SMALL_PATTERNS if len(t) == 3]),
       st.lists(st.tuples(st.sampled_from(_SMALL_PATTERNS), st.integers(0, 2)),
                max_size=3, unique_by=lambda pair: pair[0]))
def test_census_is_invariant_under_the_symmetries_of_the_square(avoided, roles):
    # each symmetry moves t[-1], and t[-2], which the census pins to a node's
    # last entry, into other roles, so the eight walks carry other masks; an
    # avoided pattern of length 3 keeps the walks to n = 8 small
    query = _roles_query([(avoided, 0)] + [pair for pair in roles if pair[0] != avoided])
    sets = (query.avoid, query.exactly_once, query.at_least_once)
    want = census_series(query, 8)
    for i in range(1, 8):
        image = PatternQuery(*([_symmetries(t)[i] for t in patterns] for patterns in sets))
        assert census_series(image, 8) == want, (query, i)


_LENGTH_5 = list(itertools.permutations(range(1, 6)))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_SMALL_PATTERNS + _LENGTH_5), st.integers(0, 2)),
                max_size=3, unique_by=lambda pair: pair[0]),
       st.sampled_from(_LENGTH_5))
def test_census_matches_reference_with_length_5_patterns(roles, t5):
    # a pattern of length 5 in each of the three roles: the search reaches depth 4
    for role5 in range(3):
        sets = ([], [], [])
        for t, role in roles:
            if t != t5:
                sets[role].append(t)
        sets[role5].append(t5)
        query = PatternQuery(*map(tuple, sets))
        want = [census_reference(query, n) for n in range(7)]
        for order in range(7):
            assert census_series(query, order) == want[:order + 1], (query, order)


def test_census_builds_no_node_of_the_last_length(monkeypatch):
    # the nodes of length `order` are counted from their parents' gap masks,
    # and a walk to order 0 tallies the root and builds no node
    walk, lengths = perms._walk, []

    def recording(node, rules, order, tally):
        lengths.append(len(node[0]))
        walk(node, rules, order, tally)

    monkeypatch.setattr(perms, "_walk", recording)
    query = PatternQuery(avoid=(P132,), exactly_once=((1, 2, 3),), at_least_once=((2, 1),))
    want = [census_reference(query, n) for n in range(7)]
    for order in range(7):
        lengths.clear()
        assert census_series(query, order) == want[:order + 1]
        assert max(lengths, default=-1) == order - 1, order


def test_census_and_occurrence_search_leave_no_garbage():
    # the search keeps its stack in lists: no closure, so no reference cycle
    query = PatternQuery(avoid=(P132, (3, 2, 1)), exactly_once=((1, 2, 3),),
                         at_least_once=((2, 1),))
    gc.collect()
    gc.disable()
    try:
        census_series(query, 7)
        for n in range(7):
            census_reference(query, n)
        for p in itertools.permutations(range(1, 7)):
            count_occurrences(p, (2, 1, 3))
            count_occurrences(p, (1, 2), cap=2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_census_series_parallel_uses_one_pool(monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    q = PatternQuery(avoid=(P132,), exactly_once=((1, 2, 3),), at_least_once=((2, 1),))
    assert census_series(q, 7, workers=2) == census_series(q, 7, workers=1)
    assert len(pools) == 1


def test_census_series_pool_counts_the_last_length_from_masks(monkeypatch):
    # 123 exactly once and 12 at least once have 20 and 24 nodes at length 4,
    # at least 8 per worker, so the pool's tasks are nodes one short of order
    # 5 that count their children from masks; 12 exactly once has 4 nodes
    # there, too few for a pool, and this process counts their children
    tasks, walked = [], []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, args):
            args = list(args)
            tasks.extend(len(node[0]) for node, _, _ in args)
            return super().map(fn, args)

    walk = perms._walk

    def recording(node, rules, order, tally):
        walked.append(len(node[0]))
        walk(node, rules, order, tally)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(perms, "_walk", recording)
    for query, pooled in ((PatternQuery(exactly_once=((1, 2, 3),)), True),
                          (PatternQuery(at_least_once=((1, 2),)), True),
                          (PatternQuery(exactly_once=((1, 2),)), False)):
        want = census_series(query, 5, workers=1)
        tasks.clear()
        walked.clear()
        assert census_series(query, 5, workers=2) == want, query
        assert (len(tasks) >= 16 and set(tasks) == {4}) if pooled else not tasks, query
        assert max(walked, default=0) < 5, query


def test_census_rejects_fewer_than_one_worker():
    for workers in (0, -3):
        with pytest.raises(PreconditionViolated):
            census(PatternQuery(), 3, workers=workers)
        with pytest.raises(PreconditionViolated):
            census_series(PatternQuery(), 3, workers=workers)


def test_census_rejects_more_than_the_most_workers():
    # refused before the walk; at the cap, a frontier of 2 nodes starts no pool
    assert perms.MAX_WORKERS == 64
    for workers in (65, 1000):
        with pytest.raises(PreconditionViolated):
            census(PatternQuery(), 3, workers=workers)
        with pytest.raises(PreconditionViolated):
            census_series(PatternQuery(), 3, workers=workers)
    assert census_series(PatternQuery(), 3, workers=64) == [1, 1, 2, 6]


def test_census_bound():
    with pytest.raises(LengthTooLarge):
        census(PatternQuery(), 11)
    assert census(PatternQuery(avoid=((1, 2),)), 11, bound=11) == 1


def test_pattern_query_disjointness():
    # the message names the two sets that overlap
    for first, second, named in [("avoid", "exactly_once", "avoid and exactly-once"),
                                 ("avoid", "at_least_once", "avoid and at-least-once"),
                                 ("exactly_once", "at_least_once", "exactly-once and at-least-once")]:
        with pytest.raises(PreconditionViolated, match=f"^{named} sets must be disjoint$"):
            PatternQuery(**{first: ((1, 2),), second: ((2, 1), (1, 2))})


def test_pattern_query_takes_list_patterns():
    q = PatternQuery(avoid=[[1, 2]], exactly_once=[[2, 1], []], at_least_once=[range(1, 4)])
    assert q == PatternQuery(avoid=((1, 2),), exactly_once=((), (2, 1)),
                             at_least_once=((1, 2, 3),))
    assert all(type(t) is tuple for t in q.avoid + q.exactly_once + q.at_least_once)


@pytest.mark.parametrize("sets", [
    {"avoid": ((1, 1),)},
    {"exactly_once": ((1, 1),)},
    {"avoid": ((2, 3),)},
])
def test_pattern_query_rejects_non_permutations(sets):
    with pytest.raises(PreconditionViolated):
        PatternQuery(**sets)


def test_pattern_query_canonical_order():
    q = PatternQuery(avoid=((2, 1, 3), (1, 2), (2, 1, 3)))
    assert q.avoid == ((1, 2), (2, 1, 3))


def test_parse_and_format():
    assert parse_pattern("132") == (1, 3, 2)
    assert parse_pattern("eps") == ()
    assert parse_pattern("10,1,2,3,4,5,6,7,8,9") == (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert parse_pattern_set("123;213") == ((1, 2, 3), (2, 1, 3))
    assert parse_pattern_set("") == ()


@pytest.mark.parametrize("bad", ["122", "13", "0", "1,2,2", "abc"])
def test_parse_rejects_non_permutations(bad):
    with pytest.raises(ParseError):
        parse_pattern(bad)


def test_is_permutation():
    assert is_permutation(())
    assert is_permutation((2, 1, 3))
    assert not is_permutation((2, 2))
    assert not is_permutation((0, 1))


def test_flatten():
    assert flatten((5, 7, 6)) == (1, 3, 2)
    assert flatten((2,)) == (1,)
    assert flatten((2, 1, 3)) == (2, 1, 3)
    assert flatten(()) == ()
    with pytest.raises(DuplicateEntries):
        flatten((1, 1))
