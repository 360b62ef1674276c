"""The depth-k continued fraction and its Chebyshev-style closed forms.

The object of interest is the k-step continued fraction

    R[k; E] = 1/(1 - x/(1 - x/(... 1 - x*E)))     R[0; E] = E,

built by k applications of R -> 1/(1 - x*R).

Closed forms involve the Chebyshev polynomials of the second kind U_k
(U_{-1} = 0, U_0 = 1, U_k(t) = 2t*U_{k-1}(t) - U_{k-2}(t)) evaluated at
t = 1/(2*sqrt(x)).  No square root ever appears here: rescaling by x^{k/2}
absorbs the half-integer grading.  Writing

    q_k(x) = x^{k/2} * U_k(1/(2*sqrt(x)))

and substituting t = 1/(2*sqrt(x)) into the three-term recurrence gives

    sqrt(x)*U_k = U_{k-1} - sqrt(x)*U_{k-2}
    =>  q_k = q_{k-1} - x*q_{k-2},          q_{-1} = 0, q_0 = q_1 = 1,

an ordinary integer polynomial sequence with deg q_k = floor(k/2) and
q_k(0) = 1 for k >= 0.  In the same way:

    closed form:    R[k; E] = (q_{k-1} - x*E*q_{k-2}) / (q_k - x*E*q_{k-1})
    product form:   prod_{j=1..k} R[j; E] = 1 / (q_k - x*E*q_{k-1})
    w_{k,j}:        x^{(k-j)/2} * (U_{k-j} - x*U_{k-j-2})(1/(2*sqrt(x)))
                    = q_{k-j} - x^2*q_{k-j-2}

Each identity is exact in Q(x).  With E = n/d, clearing d from the first
two gives D_k = d*q_k - x*n*q_{k-1} (`cf_denominator`), R[k; E] = D_{k-1}/D_k
and prod_{j=1..k} R[j; E] = d/D_k: each closed form is one quotient of
polynomials.

The pair (D_k, D_{k-1}) is M*(d, n) with M = [[q_k, -x*q_{k-1}],
[q_{k-1}, -x*q_{k-2}]], and det M = x*(q_{k-1}^2 - q_k*q_{k-2}) = x^k by
the Chebyshev identity q_{k-1}^2 - q_k*q_{k-2} = x^{k-1}.  So the adjugate
of M maps (D_k, D_{k-1}) to x^k*(d, n), and a common factor of D_k and
D_{k-1} divides x^k, since d and n are coprime.  D_k(0) = d(0)*q_k(0) = d(0),
so when d(0) != 0 no factor x is shared either: then D_{k-1}/D_k is already
in lowest terms, and `cf_closed` builds it with no gcd.  When d(0) = 0 it
takes the full reduction.  The exactly-once catalog form x^k/D_k^2 of the
engine has d = 1, so D_k(0) = 1 and it needs no gcd either.

Formally, the coefficients of R[k; 0] stabilize to the Catalan numbers as k
grows (coefficient n is Catalan(n) once k > n); the limit object is realized
here only as the Catalan sequence itself, never as a surd.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import DegenerateContinuedFraction, IndexOutOfRange
from .ratfunc import P_ONE, P_X, P_ZERO, Poly, PowerSeries, RatFunc, as_ratfunc


@lru_cache(maxsize=None)
def reduced_chebyshev(k: int) -> Poly:
    """q_k: the x^{k/2}-rescaled Chebyshev polynomial described above.

    >>> reduced_chebyshev(2).render()
    '1 - x'
    >>> reduced_chebyshev(4).render()
    '1 - 3*x + x^2'
    """
    if k < -1:
        raise IndexOutOfRange(f"q_{k} is undefined (k >= -1 required)")
    if k == -1:
        return P_ZERO
    # q_1 = q_0 - x*q_{-1} too, so k steps from (q_{-1}, q_0) reach q_k;
    # a loop, not recursion, so that no k meets the recursion limit.
    prev, q = P_ZERO, P_ONE
    for _ in range(k):
        prev, q = q, q - P_X * prev
    return q


def cf_denominator(k: int, e) -> Poly:
    """D_k = den(E)*q_k - x*num(E)*q_{k-1} (k >= 0, where q_{k-1} is defined):
    the denominator of R[k; E] = D_{k-1}/D_k and of prod_{j<=k} R[j; E] = den(E)/D_k.

    >>> cf_denominator(2, 0).render()
    '1 - x'
    >>> cf_denominator(2, RatFunc(P_ONE, Poly([1, -1]))).render()
    '1 - 3*x + x^2'
    """
    e = as_ratfunc(e)
    return e.den * reduced_chebyshev(k) - P_X * e.num * reduced_chebyshev(k - 1)


def cf_iterative(k: int, e) -> RatFunc:
    """R[k; E] by literally unrolling the definition k times:
    with R = n/d, each step is 1/(1 - x*n/d) = d/(d - x*n), which takes no
    gcd when d(0) != 0."""
    if k < 0:
        raise IndexOutOfRange(f"continued fraction depth {k} < 0")
    r = as_ratfunc(e)
    for _ in range(k):
        den = r.den - P_X * r.num
        if den.is_zero():
            raise DegenerateContinuedFraction(
                "intermediate denominator 1 - x*R is identically zero")
        if den.coefficient(0):
            # a common factor of d and d - x*n divides x*n and is prime to n,
            # so it divides x, which (d - x*n)(0) = d(0) != 0 rules out
            r = RatFunc.from_coprime(r.den, den)
        else:
            r = RatFunc(r.den, den)
    return r


def cf_closed(k: int, e) -> RatFunc:
    """R[k; E] = D_{k-1}/D_k, the reduced Chebyshev closed form (k >= 1);
    reduced by a gcd only when den(E)(0) = 0 (module docstring)."""
    if k < 1:
        raise IndexOutOfRange(f"closed form requires k >= 1, got {k}")
    e = as_ratfunc(e)
    den = cf_denominator(k, e)
    if den.is_zero():
        raise DegenerateContinuedFraction("closed-form denominator is identically zero")
    num = cf_denominator(k - 1, e)
    if e.den.coefficient(0):
        # a common factor divides x^k, and x does not divide D_k (module docstring)
        return RatFunc.from_coprime(num, den)
    return RatFunc(num, den)


def cf_product_closed(k: int, e) -> RatFunc:
    """prod_{j=1..k} R[j; E] = den(E)/D_k, the reduced closed form (k >= 1)."""
    if k < 1:
        raise IndexOutOfRange(f"product closed form requires k >= 1, got {k}")
    e = as_ratfunc(e)
    den = cf_denominator(k, e)
    if den.is_zero():
        raise DegenerateContinuedFraction("product denominator is identically zero")
    return RatFunc(e.den, den)


def reduced_w(k: int, j: int) -> Poly:
    """w_{k,j} = q_{k-j} - x^2 * q_{k-j-2}, the square-root-free W form.

    q_m is defined for m >= -1 only, so k - j >= 1 is required.

    >>> reduced_w(3, 1).render()
    '1 - x - x^2'
    >>> reduced_w(5, 1).render()
    '1 - 3*x + x^3'
    """
    if k - j < 1:
        raise IndexOutOfRange(f"w(k={k}, j={j}) needs k - j >= 1")
    return reduced_chebyshev(k - j) - (P_X * P_X) * reduced_chebyshev(k - j - 2)


def catalan_series(order: int) -> PowerSeries:
    """Catalan numbers c_0..c_order, c_n = binomial(2n, n)/(n + 1).

    >>> catalan_series(5).as_ints()
    [1, 1, 2, 5, 14, 42]
    """
    if order < 0:
        raise IndexOutOfRange("catalan_series needs order >= 0")
    # no Catalan number is zero, so all order + 1 coefficients are kept
    return PowerSeries(catalan_poly(order + 1).coeffs)


def catalan_poly(l: int) -> Poly:
    """The partial sum c_0 + c_1*x + ... + c_{l-1}*x^{l-1} (zero for l = 0)."""
    if l < 0:
        raise IndexOutOfRange(f"catalan_poly needs l >= 0, got {l}")
    return Poly(comb(2 * n, n) // (n + 1) for n in range(l))
