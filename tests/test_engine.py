"""Recurrence engine, inclusion-exclusion transforms, and the closed-form
catalog, each cross-checked against the census oracle."""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patgf import (
    P_ONE,
    P_X,
    PatternQuery,
    Poly,
    PreconditionViolated,
    RF_ONE,
    RF_X,
    RF_ZERO,
    RatFunc,
    avoid_contain_gf,
    avoid_set_gf,
    catalan_poly,
    census,
    census_series,
    cf_iterative,
    cf_product_closed,
    contains,
    decompose,
    count_occurrences,
    flatten,
    u2k_both_once_gf,
    ulk_avoid_gf,
    ulk_exact_once_gf,
    ulk_members,
)
from patgf import cli, engine
from patgf.engine import PatternAlgebra, _cases, _child_pairs, _evaluate
from patgf.perms import PATTERN_132 as P132
from patgf.perms import canonical_patterns
from patgf.verify import AVOID_BATTERY, EXACT_BATTERY, EXTRA_EXACT_BATTERY

AVOIDERS_TO_5 = [p for n in range(1, 6) for p in itertools.permutations(range(1, n + 1))
                 if not contains(p, P132)]
AVOIDERS_TO_4 = [p for p in AVOIDERS_TO_5 if len(p) <= 4]
UNRESTRICTED = r"^constraints reduce to the unrestricted class, which is not rational$"


def oracle_series(avoid, once, n_max, extra_avoid=(P132,)):
    q = PatternQuery(avoid=tuple(avoid) + tuple(extra_avoid), exactly_once=tuple(once))
    return census_series(q, n_max)


def engine_series(avoid, once, n_max):
    f = avoid_contain_gf(avoid, once) if once else avoid_set_gf(avoid)
    return f.series(n_max).as_ints()


# ---------------------------------------------------------------------------
# inclusion-exclusion transforms
# ---------------------------------------------------------------------------

def _at_least_once_expansion(avoid, at_least):
    """At-least-once constraints as signed avoid sets: the 2^|C| terms
    ((-1)^|S|, avoid + S) over subsets S of the at-least-once set C."""
    base = tuple(avoid)
    return [((-1) ** size, canonical_patterns(base + subset))
            for size in range(len(at_least) + 1)
            for subset in itertools.combinations(at_least, size)]


def eval_combination(terms, n):
    return sum(sign * census(PatternQuery(avoid=state), n) for sign, state in terms)


def test_at_least_once_expansion_examples():
    terms = _at_least_once_expansion([P132], [(1, 2)])
    assert eval_combination(terms, 2) == 1
    assert _at_least_once_expansion([(2, 1)], []) == [(1, ((2, 1),))]
    terms = _at_least_once_expansion([], [(1, 2), (2, 1)])
    assert len(terms) == 4
    assert eval_combination(terms, 2) == 0
    # direct oracle agreement for a bigger case
    for n in range(6):
        direct = census(PatternQuery(avoid=(P132,), at_least_once=((1, 2), (2, 1))), n)
        assert eval_combination(_at_least_once_expansion([P132], [(1, 2), (2, 1)]), n) == direct


# ---------------------------------------------------------------------------
# block recurrence: avoidance
# ---------------------------------------------------------------------------

def test_avoid_increasing_patterns_match_fractions():
    for k in range(1, 6):
        pattern = tuple(range(1, k + 1))
        assert avoid_set_gf([pattern]) == cf_iterative(k, RatFunc())


def test_avoid_231():
    assert avoid_set_gf([(2, 3, 1)]) == RatFunc(Poly([1, -1]), Poly([1, -2]))


def test_avoid_example_pair():
    expected = RatFunc(Poly([1, -1, -1]), Poly([1, -2, -1]))
    assert avoid_set_gf([(2, 3, 4, 1), (3, 2, 4, 1)]) == expected


def test_avoid_vs_oracle_battery():
    # the queries that verify's batteries, held to the census in
    # test_census_matches_reference_on_verify_queries, do not cover
    battery = [
        [(4, 2, 1, 3)],
        [(3, 1, 2, 4), (2, 3, 1)],
    ]
    for pats in battery:
        assert engine_series(pats, (), 7) == oracle_series(pats, (), 7), pats


def test_avoid_redundant_patterns_reduce():
    # 12 occurs in 231, so avoiding both is avoiding 12 alone
    assert avoid_set_gf([(1, 2), (2, 3, 1)]) == avoid_set_gf([(1, 2)])


def test_avoid_errors():
    with pytest.raises(PreconditionViolated):
        avoid_set_gf([])
    # inside the 132 class a pattern that holds 132 excludes nothing
    with pytest.raises(PreconditionViolated, match=UNRESTRICTED):
        avoid_set_gf([P132])
    with pytest.raises(PreconditionViolated, match=UNRESTRICTED):
        avoid_set_gf([(2, 4, 3, 1)])
    with pytest.raises(PreconditionViolated):
        avoid_set_gf([(1, 2, 2)])


def test_avoid_edge_conventions():
    # criterion 7 shapes: empty pattern kills everything, pattern 1 leaves only ()
    assert avoid_set_gf([()]) == RatFunc()
    assert avoid_set_gf([(1,)]) == RF_ONE
    assert census_series(PatternQuery(avoid=((),)), 4) == [0] * 5
    assert census_series(PatternQuery(avoid=((1,),)), 4) == [1, 0, 0, 0, 0]


# ---------------------------------------------------------------------------
# block recurrence: exactly once
# ---------------------------------------------------------------------------

def test_exact_closed_forms():
    x = Poly([0, 1])
    assert avoid_contain_gf([], [(1,)]) == RatFunc(x)
    assert avoid_contain_gf([], [(1, 2)]) == RatFunc(x ** 2, Poly([1, -1]) ** 2)
    assert avoid_contain_gf([], [(1, 2, 3)]) == RatFunc(x ** 3, Poly([1, -2]) ** 2)
    assert avoid_contain_gf([(2, 1, 3)], [(1, 2, 3)]) \
        == RatFunc(x ** 3, Poly([1, -1, -1]) ** 2)


def test_exact_vs_oracle_battery():
    # as above, only what verify's batteries lack
    battery = [
        ((), [(2, 1, 3)]),
        (((2, 3, 1),), [(1, 2)]),
        ((), [(1, 2), (2, 1)]),
    ]
    for avoid, once in battery:
        assert engine_series(avoid, once, 7) == oracle_series(avoid, once, 7), (avoid, once)


def test_exact_implied_avoidance_is_removed():
    # avoiding 123 is implied by containing 12 exactly once
    assert avoid_contain_gf([(1, 2, 3)], [(1, 2)]) == avoid_contain_gf([], [(1, 2)])


def test_exact_errors():
    with pytest.raises(PreconditionViolated):
        avoid_contain_gf([(1, 2)], [(1, 2)])
    with pytest.raises(PreconditionViolated):
        avoid_contain_gf([], [])
    assert avoid_contain_gf([], [P132]) == RF_ZERO  # no 132-avoider holds 132
    with pytest.raises(PreconditionViolated):
        avoid_contain_gf([], [()])  # reduces to the unrestricted class


@pytest.mark.parametrize("avoid, once, error, want", [
    ([(1, 2, 2)], [], PreconditionViolated, r"\(1, 2, 2\) is not a permutation"),
    ([], [(2, 3)], PreconditionViolated, r"\(2, 3\) is not a permutation"),
    # a pattern that holds 132 is no fault: avoided, it is dropped, and
    # required once, it makes the count 0, in whatever company
    ([(2, 4, 3, 1)], [], PreconditionViolated, UNRESTRICTED),
    ([], [P132], None, RF_ZERO),
    ([(2, 4, 3, 1), P132], [(1,)], None, RF_X),
    ([(2, 4, 3, 1)], [P132], None, RF_ZERO),
    ([(1, 2)], [(2, 1), (1, 2)], PreconditionViolated,
     r"^avoid and exactly-once sets must be disjoint$"),
    ([], [], PreconditionViolated, UNRESTRICTED),
    ([], [()], PreconditionViolated, UNRESTRICTED),
], ids=["avoid-not-permutation", "once-not-permutation", "avoid-holds-132", "once-holds-132",
        "first-132-holder-named", "avoid-132-holder-named-first", "overlap", "no-pattern",
        "once-empty-pattern"])
def test_engine_rejects_each_single_fault(avoid, once, error, want):
    # one fault, one error class and one message (`want`), whichever set
    # holds it; with no error, `want` is the result
    if error is None:
        assert avoid_contain_gf(avoid, once) == want
        return
    with pytest.raises(error, match=want):
        avoid_contain_gf(avoid, once)


def test_engine_takes_list_patterns():
    assert avoid_set_gf([[2, 3, 1]]) == avoid_set_gf([(2, 3, 1)])
    assert avoid_contain_gf([[2, 3, 1]], [[1, 2]]) == avoid_contain_gf([(2, 3, 1)], [(1, 2)])


def test_exact_structural_zeroes():
    # avoid 12 while containing 123 exactly once: impossible
    assert avoid_contain_gf([(1, 2)], [(1, 2, 3)]) == RatFunc()
    # the empty pattern in the avoid set: nothing qualifies
    assert avoid_contain_gf([()], [(1, 2)]) == RatFunc()


def test_constant_terms():
    assert avoid_set_gf([(2, 3, 1)]).series(0)[0] == 1
    assert avoid_contain_gf([], [(2, 1)]).series(0)[0] == 0


# ---------------------------------------------------------------------------
# GfState canonicalization
# ---------------------------------------------------------------------------

def _reference_make(avoid, exactly_once):
    """The pattern-level canonicaliser that `PatternAlgebra.make` interns:
    the (avoid, exactly-once) patterns in canonical order, or None when the
    counting function is identically zero."""
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
    return canonical_patterns(keep), canonical_patterns(once_set)


def _make_decoded(avoid, exactly_once):
    """The interned make of one query's patterns, decoded to patterns."""
    algebra = PatternAlgebra(tuple(avoid) + tuple(exactly_once))
    state = algebra.state(avoid, exactly_once)
    return None if state is None else algebra.decode(state)


def test_state_canonicalization():
    avoid, _ = _make_decoded([(2, 3, 1), (1, 2)], [])
    assert avoid == ((1, 2),)  # 231 contains 12
    avoid, once = _make_decoded([(1, 2, 3)], [(1, 2)])
    assert avoid == ()  # holds two copies of the once-pattern
    assert once == ((1, 2),)
    assert _make_decoded([()], []) is None
    assert _make_decoded([(1, 2)], [(1, 2, 3)]) is None  # once contains avoid
    assert _make_decoded([], [(1, 2), (1, 2, 3)]) is None  # 123 holds three 12s
    _, once = _make_decoded([], [()])
    assert once == ()  # vacuous
    avoid, _ = _make_decoded([(1,)], [])
    assert avoid == ((1,),)


def _down_set(patterns):
    """Every pattern contained in one of the patterns, the empty one included."""
    return {flatten([p[i] for i in keep]) for p in patterns
            for size in range(len(p) + 1) for keep in itertools.combinations(range(len(p)), size)}


def _reached_states(root, algebra):
    """Every state the recursion reaches from root, root included."""
    todo, seen = [root], {root}
    while todo:
        state = todo.pop()
        yield state
        for pair in _child_pairs(state, algebra):
            for child in pair:
                if child not in seen:
                    seen.add(child)
                    todo.append(child)


def _decoded_pairs(pairs, algebra):
    return {(algebra.decode(left), algebra.decode(right)): c for (left, right), c in pairs.items()}


def _child_pairs_product(avoid, once):
    """The reference that `_child_pairs` folds, on a state's patterns: the
    product of every pattern's rows, each case joined column by column, its
    right side made once and its left at-least-once column expanded over
    subsets; the pairs are decoded states."""
    rows = [_cases(decompose(t), False) for t in avoid]
    rows += [_cases(decompose(g), True) for g in once]
    terms = {}
    for case in itertools.product(*rows):
        l_avoid, l_once, l_atleast, r_avoid, r_once = (sum(column, ()) for column in zip(*case))
        right = _reference_make(r_avoid, r_once)
        if right is None:
            continue
        for sign, left_avoid in _at_least_once_expansion(l_avoid, canonical_patterns(l_atleast)):
            left = _reference_make(left_avoid, l_once)
            if left is not None:
                terms[left, right] = terms.get((left, right), 0) + sign
    return {pair: c for pair, c in terms.items() if c}


AVOIDERS_TO_6 = [p for n in range(1, 7) for p in itertools.permutations(range(1, n + 1))
                 if not contains(p, P132)]


def _assert_make_is_the_reference(algebra, avoid_ids, once_ids):
    patterns = algebra.patterns
    state = algebra.make(avoid_ids, once_ids)
    want = _reference_make([patterns[i] for i in avoid_ids], [patterns[i] for i in once_ids])
    assert (None if state is None else algebra.decode(state)) == want, (avoid_ids, once_ids)


query_avoid = st.lists(st.sampled_from(AVOIDERS_TO_5), min_size=1, max_size=2, unique=True)
query_once = st.lists(st.sampled_from(AVOIDERS_TO_5), max_size=2, unique=True)


def _query_root(avoid, once):
    algebra = PatternAlgebra(tuple(avoid) + tuple(once))
    root = algebra.state(avoid, once)
    assume(root is not None and not set(avoid) & set(once))
    return root, algebra


@settings(derandomize=True, max_examples=40, deadline=None)
@given(avoid=query_avoid, once=query_once)
def test_interned_make_equals_the_reference(avoid, once):
    # every make the recursion runs from the query, decoded, against the
    # pattern-level canonicaliser; the memo holds each input it was given
    root, algebra = _query_root(avoid, once)
    for _ in _reached_states(root, algebra):
        pass
    assert algebra._made
    for avoid_ids, once_ids in list(algebra._made):
        _assert_make_is_the_reference(algebra, avoid_ids, once_ids)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_make_equals_the_reference_on_any_id_sets(data):
    # any avoid and exactly-once ids of a closure, in any order and with
    # repeats, not only the inputs the recursion reaches from a query
    query = data.draw(st.lists(st.sampled_from(AVOIDERS_TO_6), min_size=1, max_size=12, unique=True))
    algebra = PatternAlgebra(query)
    ids = st.integers(0, len(algebra.patterns) - 1)
    avoid_ids = tuple(data.draw(st.lists(ids, max_size=12)))
    once_ids = tuple(data.draw(st.lists(ids, max_size=3)))
    _assert_make_is_the_reference(algebra, avoid_ids, once_ids)


def test_make_equals_the_reference_along_a_chain():
    # the closure of 1234 is the chain () < 1 < 12 < 123 < 1234: with 1 and
    # 12 avoided, 123 is tested only against 1, the one kept
    algebra = PatternAlgebra([(1, 2, 3, 4)])
    assert algebra.patterns == ((), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4))
    subsets = [ids for size in range(6) for ids in itertools.combinations(range(5), size)]
    for avoid_ids, once_ids in itertools.product(subsets, repeat=2):
        _assert_make_is_the_reference(algebra, avoid_ids, once_ids)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(avoid=query_avoid, once=query_once)
def test_child_pairs_shrink_in_the_recursion_order(avoid, once):
    # the order on states that lets the recursion go without a cycle guard,
    # checked on every state the recursion reaches from the query
    root, algebra = _query_root(avoid, once)
    for state in _reached_states(root, algebra):
        state_avoid, state_once = algebra.decode(state)
        size = sum(len(g) for g in state_once)
        down = _down_set(state_avoid)
        for left, right in _child_pairs(state, algebra):
            assert (left, right) != (state, state)
            for child in (left, right):
                child_avoid, child_once = algebra.decode(child)
                assert child_avoid or child_once, (state, child)
                if child == state:
                    continue
                child_size = sum(len(g) for g in child_once)
                assert child_size <= size, (state, child)
                assert child_size < size or _down_set(child_avoid) < down, (state, child)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(avoid=query_avoid, once=query_once)
def test_child_pairs_fold_equals_case_product(avoid, once):
    # the fold against the case product, on every state reached from the query
    root, algebra = _query_root(avoid, once)
    for state in _reached_states(root, algebra):
        assert _decoded_pairs(_child_pairs(state, algebra), algebra) \
            == _child_pairs_product(*algebra.decode(state)), state


def test_case_table_splits_each_permutation_into_one_row():
    # the module docstring's table against occurrence counts: each
    # 132-avoider p = p' n p'' of length <= 7 meets exactly one row of t's
    # cases when it meets t's constraint, and none otherwise, for every
    # 132-avoiding t of length <= 5, avoided or exactly once
    occurrences = {}

    def occ(word, t):
        key = word, t
        if key not in occurrences:
            occurrences[key] = count_occurrences(word, t, cap=2)
        return occurrences[key]

    def meets(word, avoids, once, at_least=()):
        return (all(occ(word, a) == 0 for a in avoids) and all(occ(word, g) == 1 for g in once)
                and all(occ(word, c) >= 1 for c in at_least))

    avoiders = [p for n in range(1, 8) for p in itertools.permutations(range(1, n + 1))
                if not contains(p, P132)]
    tables = [(t, once, _cases(decompose(t), once))
              for t in AVOIDERS_TO_5 for once in (False, True)]
    checks = 0
    for p in avoiders:
        i = p.index(len(p))
        left, right = flatten(p[:i]), flatten(p[i + 1:])
        for t, once, rows in tables:
            met = sum(meets(left, l_avoid, l_once, l_least) and meets(right, r_avoid, r_once)
                      for l_avoid, l_once, l_least, r_avoid, r_once in rows)
            assert met == (occ(p, t) == (1 if once else 0)), (p, t, once)
            checks += 1
    assert checks == 80_000


def _reference_evaluate(state, algebra, memo):
    """The per-term solution that `_evaluate` sums over one denominator:
    every partial sum and product a reduced RatFunc."""
    if state in memo:
        return memo[state]
    self_coeff = rest = RF_ZERO
    for (left, right), c in _child_pairs(state, algebra).items():
        if state in (left, right):
            other = right if left == state else left
            self_coeff = self_coeff + c * _reference_evaluate(other, algebra, memo)
        else:
            right_val = _reference_evaluate(right, algebra, memo)
            if not right_val.is_zero():
                rest = rest + c * _reference_evaluate(left, algebra, memo) * right_val
    leading = RF_ZERO if state.exactly_once else RF_ONE
    memo[state] = (leading + RF_X * rest) / (RF_ONE - RF_X * self_coeff)
    return memo[state]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(avoid=query_avoid, once=query_once)
def test_one_reduction_per_state_equals_the_per_term_reference(avoid, once):
    # the same canonical value on every state reached from the query
    root, algebra = _query_root(avoid, once)
    memo, reference = {}, {}
    for state in _reached_states(root, algebra):
        assert _evaluate(state, algebra, memo) \
            == _reference_evaluate(state, algebra, reference), algebra.decode(state)


def _int_series(num, den, order):
    """Coefficients 0..order of num/den, den(0) = 1, from int tuples alone."""
    assert den[0] == 1
    out = []
    for n in range(order + 1):
        c = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            c -= den[i] * out[n - i]
        out.append(c)
    return out


def _equation_failures(memo, algebra):
    """The states of a filled memo whose value F_s = N_s/D_s breaks its
    equation F_s = [no exactly-once] + x*sum c*F_L*F_R over `_child_pairs`,
    and the largest order compared.

    Both sides are compared as int power series, with no RatFunc
    arithmetic.  Cleared of denominators, the equation is N_s*D = C*D_s,
    with D the product of the pairs' denominators and C the right side
    times D, a polynomial identity of degree at most
    B = max(deg N_s + deg D, deg C + deg D_s); both series have constant
    denominators 1, so they agree on coefficients 0..B exactly when it
    holds.  deg C is taken at its bound from the terms' degrees.  A child
    may be missing from the memo only beside a zero child, which `_evaluate`
    skips."""
    failures, largest = [], 0
    for state, value in memo.items():
        terms = []
        for (left, right), c in _child_pairs(state, algebra).items():
            children = (memo.get(left), memo.get(right))
            if None in children:
                assert any(f is not None and not f.num.coeffs for f in children), state
            elif children[0].num.coeffs and children[1].num.coeffs:
                terms.append((c, *children))
        leading = 0 if state.exactly_once else 1
        deg_d = sum(f.den.degree for _, *pair in terms for f in pair)
        deg_c = max([deg_d if leading else -1]
                    + [1 + deg_d + sum(f.num.degree - f.den.degree for f in pair)
                       for _, *pair in terms])
        order = max(value.num.degree + deg_d, deg_c + value.den.degree, 0)
        largest = max(largest, order)
        rhs = [leading] + [0] * order
        for c, left, right in terms:
            a = _int_series(left.num.coeffs, left.den.coeffs, order)
            b = _int_series(right.num.coeffs, right.den.coeffs, order)
            for n in range(order):
                rhs[n + 1] += c * sum(a[i] * b[n - i] for i in range(n + 1))
        if _int_series(value.num.coeffs, value.den.coeffs, order) != rhs:
            failures.append(state)
    return failures, largest


def test_every_engine_state_satisfies_its_equation():
    # a certificate for each state `_evaluate` solves on the verify
    # batteries: its value against its own equation, over its children's
    # values; a changed value breaks at least its own equation
    queries = [(pats, ()) for pats in AVOID_BATTERY] + list(EXACT_BATTERY + EXTRA_EXACT_BATTERY)
    states = largest = 0
    for avoid, once in queries:
        query = PatternQuery(avoid, once)
        algebra = PatternAlgebra(query.avoid + query.exactly_once)
        memo = {}
        _evaluate(algebra.state(query.avoid, query.exactly_once), algebra, memo)
        failures, order = _equation_failures(memo, algebra)
        assert not failures, [algebra.decode(state) for state in failures]
        states, largest = states + len(memo), max(largest, order)
    assert (states, largest) == (91, 39)
    state, value = next(iter(memo.items()))
    memo[state] = RatFunc(Poly(value.num.coeffs + (1,)), value.den)
    assert state in _equation_failures(memo, algebra)[0]


@pytest.mark.parametrize("value", [
    RatFunc(P_ONE, P_X),  # a pole at the origin
    RatFunc(P_ONE, Poly([2, 1])),  # den(0) = 2
])
def test_a_broken_child_value_is_an_internal_error(monkeypatch, capsys, value):
    # once {1} has the one pair ({1}, {1}); a value for {1} that is no
    # integer series breaks the constant term, and the check says so
    real = engine._evaluate

    def evaluate(state, algebra, memo):
        if algebra.decode(state) == (((1,),), ()):
            return value
        return real(state, algebra, memo)

    monkeypatch.setattr(engine, "_evaluate", evaluate)
    with pytest.raises(RuntimeError, match="constant term broken"):
        avoid_contain_gf([], [(1,)])
    assert cli.main(["gf", "recurrence", "--exactly-once", "1"]) == cli.EXIT_INTERNAL
    assert "constant term broken" in capsys.readouterr().err


def test_the_constant_term_check_survives_optimisation():
    # python -O drops assert statements; the check is not one
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "from patgf import P_ONE, P_X, RatFunc, avoid_contain_gf, engine\n"
        "real = engine._evaluate\n"
        "def evaluate(state, algebra, memo):\n"
        "    if algebra.decode(state) == (((1,),), ()):\n"
        "        return RatFunc(P_ONE, P_X)\n"
        "    return real(state, algebra, memo)\n"
        "engine._evaluate = evaluate\n"
        "try:\n"
        "    print(avoid_contain_gf([], [(1,)]))\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("constant term broken"), proc.stdout


def test_pattern_algebra_is_per_query(monkeypatch):
    # each query builds its own algebra, so a repeated query repeats the
    # engine's occurrence tests: no memo outlives a query
    calls = {"count_occurrences": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    for run in (lambda: avoid_set_gf(ulk_members(5, 3)),
                lambda: avoid_contain_gf([(2, 1, 3)], [(1, 2, 3), (2, 3, 1)])):
        counts = []
        for _ in range(2):
            for name in calls:
                calls[name] = 0
            run()
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["count_occurrences"] > 0


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------

def test_ulk_members():
    assert ulk_members(3, 2) == ((1, 2, 3), (2, 1, 3))
    assert ulk_members(4, 1) == ((1, 2, 3, 4),)
    assert len(ulk_members(5, 3)) == 6
    with pytest.raises(PreconditionViolated):
        ulk_members(2, 3)


def test_ulk_avoid_gf_examples():
    assert ulk_avoid_gf(3, 2) == RatFunc(Poly([1]), Poly([1, -1, -1]))
    assert ulk_avoid_gf(4, 2) == RatFunc(Poly([1, -1, -1]), Poly([1, -2, -1]))
    assert ulk_avoid_gf(3, 3) == RatFunc(Poly([1, 1, 2]))  # Catalan partial sum
    assert ulk_avoid_gf(5, 1) == cf_iterative(5, RatFunc())


def test_ulk_catalog_matches_recurrence():
    for l in range(1, 7):
        for k in range(l, 8):
            assert ulk_avoid_gf(k, l) == avoid_set_gf(ulk_members(k, l)), (k, l)


def test_ulk_exact_once_examples():
    x = Poly([0, 1])
    assert ulk_exact_once_gf(2, 1) == RatFunc(x ** 2, Poly([1, -1]) ** 2)
    assert ulk_exact_once_gf(3, 1) == RatFunc(x ** 3, Poly([1, -2]) ** 2)
    assert ulk_exact_once_gf(3, 2) == RatFunc(x ** 3, Poly([1, -1, -1]) ** 2)
    assert ulk_exact_once_gf(4, 2) == RatFunc(x ** 4, Poly([1, -2, -1]) ** 2)


def test_ulk_exact_once_is_squared_product_form():
    # the paper's exactly-once family: x^k * (prod_{j<=k-l} R[j; C_l])^2
    for k in range(2, 9):
        for l in range(1, k):
            product = cf_product_closed(k - l, catalan_poly(l))
            x_k = RatFunc(Poly([0, 1]) ** k)
            assert ulk_exact_once_gf(k, l) == x_k * product * product, (k, l)


def test_ulk_exact_once_member_validation():
    assert ulk_exact_once_gf(3, 2, (2, 1, 3)) == ulk_exact_once_gf(3, 2, (1, 2, 3))
    # checked directly, without listing the 11! members
    member = (11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6, 12)
    assert ulk_exact_once_gf(12, 11, member) == ulk_exact_once_gf(12, 11)
    for bad in ((3, 2, 1), (2, 1), (2, 1, 3, 4), (1, 1, 3)):
        with pytest.raises(PreconditionViolated):
            ulk_exact_once_gf(3, 2, bad)
    with pytest.raises(PreconditionViolated):
        ulk_exact_once_gf(3, 3)


def test_ulk_exact_once_matches_engine():
    for (k, l) in ((2, 1), (3, 1), (3, 2), (4, 2)):
        members = ulk_members(k, l)
        t = members[0]
        rest = [m for m in members if m != t]
        assert ulk_exact_once_gf(k, l, t) == avoid_contain_gf(rest, [t]), (k, l)


def test_lift_by_largest():
    # lifting by a new largest entry is one step of the continued fraction
    assert cf_iterative(1, RatFunc(Poly([1, 1]))) == RatFunc(Poly([1]), Poly([1, -1, -1]))
    assert cf_iterative(1, RF_ONE) == RatFunc(Poly([1]), Poly([1, -1]))
    assert cf_iterative(1, RatFunc(Poly([1, -1]), Poly([1, -2]))) \
        == RatFunc(Poly([1, -2]), Poly([1, -3, 1]))
    # lifting really is appending a new largest entry to every pattern
    assert cf_iterative(1, avoid_set_gf([(2, 1)])) == avoid_set_gf([(2, 1, 3)])
    from patgf import DegenerateContinuedFraction, P_X
    with pytest.raises(DegenerateContinuedFraction):
        cf_iterative(1, RatFunc(Poly([1]), P_X))


def test_u2k_both_once_formula():
    assert u2k_both_once_gf(3) == RatFunc()
    assert u2k_both_once_gf(4) == RatFunc()
    f5 = u2k_both_once_gf(5)
    w1 = Poly([1, -3, 0, 1])     # q_4 - x^2 q_2
    w2 = Poly([1, -2, -1])       # q_3 - x^2 q_1
    w3 = Poly([1, -1, -1])       # q_2 - x^2 q_0
    assert f5 == RatFunc(Poly([2]) * Poly([0, 1]) ** 9, w1 * w1 * w2 * w3)
    with pytest.raises(PreconditionViolated):
        u2k_both_once_gf(2)


def test_u2k_engine_matches_oracle():
    # the recurrence engine (not the closed sum) agrees with brute force
    for k in (3, 4):
        pats = ulk_members(k, 2)
        assert engine_series((), pats, 8) == oracle_series((), pats, 8), k



@settings(derandomize=True, max_examples=40, deadline=None)
@given(avoid=st.lists(st.sampled_from(AVOIDERS_TO_4), min_size=1, max_size=2, unique=True),
       once=st.lists(st.sampled_from(AVOIDERS_TO_4), max_size=2, unique=True))
def test_engine_matches_census_on_random_queries(avoid, once):
    assume(not set(avoid) & set(once))
    assert engine_series(avoid, once, 7) == oracle_series(avoid, once, 7), (avoid, once)


_ALL_2_TO_5 = [p for n in range(2, 6) for p in itertools.permutations(range(1, n + 1))]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(holder=st.sampled_from([t for t in _ALL_2_TO_5 if contains(t, P132)]),
       others=st.lists(st.sampled_from(_ALL_2_TO_5), max_size=3, unique=True),
       roles=st.lists(st.sampled_from((False, False, True)), min_size=4, max_size=4))
def test_engine_reduces_patterns_that_hold_132_in_every_role(holder, others, roles):
    # inside the 132 class, the engine's answer is the census's with 132
    # avoided; roles[i] puts pattern i in the exactly-once set, one time in 3
    patterns = list(dict.fromkeys([holder] + others))
    avoid = [t for t, required in zip(patterns, roles) if not required]
    once = [t for t, required in zip(patterns, roles) if required]
    if not once and all(contains(t, P132) for t in avoid):
        with pytest.raises(PreconditionViolated, match=UNRESTRICTED):
            avoid_contain_gf(avoid, once)
        return
    f = avoid_contain_gf(avoid, once)
    if any(contains(t, P132) for t in once):
        assert f == RF_ZERO, (avoid, once)
    if P132 not in once:  # else 132 would be both avoided and required once
        assert f.series(8).as_ints() == oracle_series(avoid, once, 8), (avoid, once)


def _inverse(t):
    return tuple(t.index(v) + 1 for v in range(1, len(t) + 1))


_PATTERNS_2_TO_5 = [t for t in AVOIDERS_TO_5 if len(t) >= 2]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(avoid=st.lists(st.sampled_from(_PATTERNS_2_TO_5), max_size=2, unique=True),
       once=st.lists(st.sampled_from(_PATTERNS_2_TO_5), max_size=2, unique=True))
def test_engine_is_invariant_under_inverse(avoid, once):
    # inverse fixes 132 and every occurrence count, but the block
    # decompositions of t and its inverse differ, so the case table and
    # the canonical states are exercised on two other paths
    assume((avoid or once) and not set(avoid) & set(once))
    want = avoid_contain_gf(avoid, once)
    assert avoid_contain_gf([_inverse(t) for t in avoid], [_inverse(t) for t in once]) == want, \
        (avoid, once)
