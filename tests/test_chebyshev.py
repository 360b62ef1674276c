"""Reduced Chebyshev sequence and the k-step continued fraction."""

import sys
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from patgf import (
    DegenerateContinuedFraction,
    IndexOutOfRange,
    P_X,
    Poly,
    RF_ONE,
    RatFunc,
    catalan_poly,
    catalan_series,
    cf_closed,
    cf_denominator,
    cf_iterative,
    cf_product_closed,
    reduced_chebyshev,
    reduced_w,
    ulk_exact_once_gf,
)
from patgf.verify import e_battery

ZERO = RatFunc()
ONE_PLUS_X = RatFunc(Poly([1, 1]))


def test_q_sequence():
    assert reduced_chebyshev(-1) == Poly()
    assert reduced_chebyshev(0) == Poly([1])
    assert reduced_chebyshev(1) == Poly([1])
    assert reduced_chebyshev(2) == Poly([1, -1])
    assert reduced_chebyshev(3) == Poly([1, -2])
    assert reduced_chebyshev(4) == Poly([1, -3, 1])
    for k in range(2, 20):
        assert reduced_chebyshev(k) == reduced_chebyshev(k - 1) - P_X * reduced_chebyshev(k - 2)
        assert reduced_chebyshev(k).degree == k // 2
        assert reduced_chebyshev(k).coefficient(0) == 1
    with pytest.raises(IndexOutOfRange):
        reduced_chebyshev(-2)


def test_q_past_the_recursion_limit():
    # q_k = sum_j (-1)^j C(k-j, j) x^j, asked for with nothing cached
    k = sys.getrecursionlimit() + 100
    reduced_chebyshev.cache_clear()
    q = reduced_chebyshev(k)
    assert q.degree == k // 2
    assert all(q.coefficient(j) == (-1) ** j * comb(k - j, j) for j in range(k // 2 + 1))


def test_cf_iterative_examples():
    assert cf_iterative(0, ONE_PLUS_X) == ONE_PLUS_X
    assert cf_iterative(1, ZERO) == RF_ONE
    assert cf_iterative(3, ZERO) == RatFunc(Poly([1, -1]), Poly([1, -2]))
    assert cf_iterative(2, ONE_PLUS_X) == RatFunc(Poly([1, -1, -1]), Poly([1, -2, -1]))
    # E = 1/(x + x^2): the step (x + x^2)/x^2 shares x and reduces to (1 + x)/x
    step = cf_iterative(1, RatFunc(Poly([1]), Poly([0, 1, 1])))
    assert (step.num.coeffs, step.den.coeffs) == ((1, 1), (0, 1))
    with pytest.raises(IndexOutOfRange):
        cf_iterative(-1, ZERO)


def test_cf_iterative_degenerate():
    # E = 1/x makes the first denominator 1 - x*E vanish identically
    with pytest.raises(DegenerateContinuedFraction):
        cf_iterative(1, RatFunc(Poly([1]), P_X))


def test_cf_closed_examples():
    e = RatFunc(Poly([2, -1, 3]))
    assert cf_closed(1, e) == RF_ONE / (RF_ONE - RatFunc(P_X) * e)
    assert cf_closed(3, ZERO) == RatFunc(Poly([1, -1]), Poly([1, -2]))
    for k in range(1, 8):
        assert cf_closed(k, RF_ONE) == cf_iterative(k + 1, ZERO)
    with pytest.raises(IndexOutOfRange):
        cf_closed(0, ZERO)


def test_cf_closed_matches_iterative():
    battery = [ZERO, RF_ONE, ONE_PLUS_X, RatFunc(Poly([-2, 1, 0, 3])),
               RatFunc(Poly([1, 2]), Poly([1, 1]))]
    for e in battery:
        for k in range(1, 9):
            assert cf_closed(k, e) == cf_iterative(k, e)


_small = st.integers(-3, 3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(k=st.integers(1, 12), num=st.lists(_small, max_size=4),
       den0=st.sampled_from([1, 0, 2, -1, -3]), den_rest=st.lists(_small, max_size=3))
@example(k=3, num=[1], den0=0, den_rest=[1])  # E = 1/x: D_2 and D_3 share the factor x
def test_cf_closed_skips_the_gcd_only_where_coprimality_is_proved(k, num, den0, den_rest):
    # den(E)(0) = 1, den(E)(0) not in {0, 1}, and den(E)(0) = 0, which must
    # take the gcd: each held to RatFunc on the full gcd path
    den = Poly([den0] + den_rest)
    assume(not den.is_zero())
    e = RatFunc(Poly(num), den)
    assume(not cf_denominator(k, e).is_zero())
    with mock.patch.object(RatFunc, "from_coprime", side_effect=RatFunc.from_coprime) as spy:
        closed = cf_closed(k, e)
    assert closed == RatFunc(cf_denominator(k - 1, e), cf_denominator(k, e))
    assert spy.called == (e.den.coefficient(0) != 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(k=st.integers(1, 12), num=st.lists(_small, max_size=4),
       den0=st.sampled_from([1, 0, 2, -1, -3]), den_rest=st.lists(_small, max_size=3))
@example(k=3, num=[1], den0=0, den_rest=[1, 1])  # E = 1/(x + x^2): the first step shares x
def test_cf_iterative_skips_the_gcd_only_where_coprimality_is_proved(k, num, den0, den_rest):
    # k literal steps on the full gcd path, counting those from a d with d(0) != 0
    den = Poly([den0] + den_rest)
    assume(not den.is_zero())
    e = r = RatFunc(Poly(num), den)
    coprime_steps = 0
    for _ in range(k):
        step_den = r.den - P_X * r.num
        assume(not step_den.is_zero())
        coprime_steps += r.den.coefficient(0) != 0
        r = RatFunc(r.den, step_den)
    with mock.patch.object(RatFunc, "from_coprime", side_effect=RatFunc.from_coprime) as spy:
        assert cf_iterative(k, e) == r
    assert spy.call_count == coprime_steps
    # a chain from den(E)(0) != 0 takes no gcd at all
    assert (spy.call_count == k) == (e.den.coefficient(0) != 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(2, 14), l=st.integers(1, 13))
def test_ulk_exact_once_needs_no_gcd(k, l):
    assume(l < k)
    den = cf_denominator(k - l, catalan_poly(l))
    assert ulk_exact_once_gf(k, l) == RatFunc(P_X ** k, den * den)


def test_cf_product_examples():
    assert cf_product_closed(1, ZERO) == RF_ONE
    assert cf_product_closed(3, ZERO) == RatFunc(Poly([1]), Poly([1, -2]))
    assert cf_product_closed(2, ONE_PLUS_X) == RatFunc(Poly([1]), Poly([1, -2, -1]))


def test_cf_product_matches_literal():
    for e in [ZERO, RF_ONE, ONE_PLUS_X, RatFunc(Poly([3, -2, 0, 1]))]:
        literal = RF_ONE
        for k in range(1, 9):
            literal = literal * cf_iterative(k, e)
            assert cf_product_closed(k, e) == literal


def test_cf_denominator_matches_quotient_form():
    # D_k/den(E) is the denominator q_k - x*E*q_{k-1} written over Q(x)
    x = RatFunc(P_X)
    for e in [RatFunc(p) for p in e_battery()] + [RatFunc(Poly([2, 1]), Poly([1, -1, 3]))]:
        for k in range(0, 17):
            old = RatFunc(reduced_chebyshev(k)) - x * e * RatFunc(reduced_chebyshev(k - 1))
            assert RatFunc(cf_denominator(k, e), e.den) == old, (k, e)
    with pytest.raises(IndexOutOfRange):
        cf_denominator(-1, ZERO)


def test_cf_shift_identity():
    for k in range(0, 8):
        one_more = RF_ONE / (RF_ONE - RatFunc(P_X) * cf_iterative(k, ZERO))
        assert one_more == cf_iterative(k + 1, ZERO)


def test_reduced_w():
    assert reduced_w(3, 1) == Poly([1, -1, -1])
    assert reduced_w(5, 1) == Poly([1, -3, 0, 1])
    assert reduced_w(4, 2) == Poly([1, -1, -1])  # q_2 - x^2*q_0
    with pytest.raises(IndexOutOfRange):
        reduced_w(2, 2)
    with pytest.raises(IndexOutOfRange):
        reduced_w(1, 3)


def test_catalan_series():
    assert catalan_series(3).as_ints() == [1, 1, 2, 5]
    assert catalan_series(0).as_ints() == [1]
    assert catalan_series(5).as_ints() == [1, 1, 2, 5, 14, 42]
    with pytest.raises(IndexOutOfRange):
        catalan_series(-1)


def test_catalan_prefix_of_fraction():
    # coefficients of the depth-k fraction agree with Catalan numbers below k
    cat = catalan_series(12).as_ints()
    for k in range(1, 13):
        series = cf_iterative(k, ZERO).series(max(k - 1, 0)).as_ints()
        assert series == cat[:k]
