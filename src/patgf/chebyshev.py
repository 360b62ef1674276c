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

Each identity is exact in Q(x).

Formally, the coefficients of R[k; 0] stabilize to the Catalan numbers as k
grows (coefficient n is Catalan(n) once k > n); the limit object is realized
here only as the Catalan sequence itself, never as a surd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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


def cf_iterative(k: int, e) -> RatFunc:
    """R[k; E] by literally unrolling the definition k times."""
    if k < 0:
        raise IndexOutOfRange(f"continued fraction depth {k} < 0")
    r = as_ratfunc(e)
    for _ in range(k):
        den = RatFunc(P_ONE) - RatFunc(P_X) * r
        if den.is_zero():
            raise DegenerateContinuedFraction(
                "intermediate denominator 1 - x*R is identically zero")
        r = RatFunc(P_ONE) / den
    return r


def cf_closed(k: int, e) -> RatFunc:
    """R[k; E] via the reduced Chebyshev closed form (k >= 1)."""
    if k < 1:
        raise IndexOutOfRange(f"closed form requires k >= 1, got {k}")
    e = as_ratfunc(e)
    x = RatFunc(P_X)
    num = RatFunc(reduced_chebyshev(k - 1)) - x * e * RatFunc(reduced_chebyshev(k - 2))
    den = RatFunc(reduced_chebyshev(k)) - x * e * RatFunc(reduced_chebyshev(k - 1))
    if den.is_zero():
        raise DegenerateContinuedFraction("closed-form denominator is identically zero")
    return num / den


def cf_product_closed(k: int, e) -> RatFunc:
    """prod_{j=1..k} R[j; E] via the reduced closed form (k >= 1)."""
    if k < 1:
        raise IndexOutOfRange(f"product closed form requires k >= 1, got {k}")
    e = as_ratfunc(e)
    den = RatFunc(reduced_chebyshev(k)) - RatFunc(P_X) * e * RatFunc(reduced_chebyshev(k - 1))
    if den.is_zero():
        raise DegenerateContinuedFraction("product denominator is identically zero")
    return RatFunc(P_ONE) / den


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
    """Catalan numbers c_0..c_order via the convolution recurrence
    c_{n+1} = sum_{i=0..n} c_i * c_{n-i}.

    >>> catalan_series(5).as_ints()
    [1, 1, 2, 5, 14, 42]
    """
    if order < 0:
        raise IndexOutOfRange("catalan_series needs order >= 0")
    cs = [Fraction(1)]
    for n in range(order):
        cs.append(sum((cs[i] * cs[n - i] for i in range(n + 1)), Fraction(0)))
    return PowerSeries(tuple(cs))


def catalan_poly(l: int) -> Poly:
    """The partial sum c_0 + c_1*x + ... + c_{l-1}*x^{l-1} (zero for l = 0)."""
    if l == 0:
        return P_ZERO
    return Poly(catalan_series(l - 1).coeffs)
