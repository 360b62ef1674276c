"""Exact univariate polynomials over Z and rational functions over Q.

A polynomial is a tuple of Python ints, ascending and with no trailing zero
(the zero polynomial is the empty tuple), so all arithmetic is integer
arithmetic.  By Fatou's lemma a rational power series with integer
coefficients is P/Q with P, Q in Z[x] coprime and Q(0) = 1, so every
generating function here has den(0) = 1, and its series is computed in ints
too: `RatFunc.series` rejects any other den(0).

Rational functions are kept in a canonical form in which structural
equality is equality of formal power series at the origin: num and den
share no factor of positive degree, their contents are coprime, and the
lowest nonzero denominator coefficient is positive.  The gcd is the
primitive polynomial remainder sequence over Z[x] (Knuth, TAOCP vol. 2,
4.6.1; Brown, JACM 18, 1971), divided out exactly.  `RatFunc.from_coprime`
skips it for a pair whose coprimality the caller has proved, and shares
every other step of the normalisation with `RatFunc(num, den)`.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .errors import DivisionByZero, IndexOutOfRange, PoleAtOrigin, PreconditionViolated


class Poly:
    """Immutable univariate polynomial with integer coefficients.

    >>> Poly([1, -2, -1, 0]).coeffs
    (1, -2, -1)
    """

    __slots__ = ("coeffs",)  # ascending ints, no trailing zero

    def __init__(self, coeffs: Iterable[int] = ()):
        ints = []
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficient must be int, got {type(c).__name__}")
            ints.append(int(c))
        object.__setattr__(self, "coeffs", _strip(ints))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.render()})"

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Poly":
        return _lincomb(self.coeffs, _as_poly(other).coeffs, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return _lincomb(self.coeffs, _as_poly(other).coeffs, -1)

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        a, b = self.coeffs, _as_poly(other).coeffs
        if not a or not b:
            return P_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        # Z has no zero divisors, so the leading coefficient is nonzero
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        """Binary powering: one squaring per bit of e below its top bit, and
        one product per set bit after the first, so `p ** 1` multiplies
        nothing."""
        if e < 0:
            raise ValueError("negative polynomial power")
        if e == 0:
            return P_ONE
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        result = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                result = result * base
            e >>= 1
        return result

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Human-readable text like ``1 - 2*x - x^2``, in ascending powers."""
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 else f"{mag}*{xpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(parts)


def _strip(ints: list) -> tuple:
    while ints and ints[-1] == 0:
        ints.pop()
    return tuple(ints)


def _raw(ints) -> Poly:
    """The Poly of ints, which has no trailing zero."""
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs", tuple(ints))
    return p


def _lincomb(a: tuple, b: tuple, sign: int) -> Poly:
    """a + sign*b."""
    out = list(a)
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for i, c in enumerate(b):
        out[i] += sign * c
    return _raw(_strip(out))


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly([value])
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


# ---------------------------------------------------------------------------
# Integer polynomials as lists: content, pseudo-division, primitive PRS gcd
# ---------------------------------------------------------------------------

def _primitive(ints):
    """(content, primitive part) of a nonzero integer polynomial; the part is
    ints itself when the content is 1, which ends the gcd walk early."""
    g = 0
    for c in ints:
        g = gcd(g, c)
        if g == 1:
            return 1, ints
    return g, [c // g for c in ints]


def _pdiv(a: list[int], b: list[int]) -> tuple[int, list[int], tuple[int, ...]]:
    """Pseudo-division in Z[x] for deg a >= deg b: (scale, quo, rem) with
    scale*a = quo*b + rem, scale > 0, deg rem < deg b and rem stripped.  Each
    step scales by |lead(b)|/gcd rather than by lead(b), which keeps scale
    small; when b divides a in Z[x], scale is 1 and quo is exact."""
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quo = [0] * (len(rem) - db)
    scale = 1
    for shift in range(len(quo) - 1, -1, -1):
        c = rem.pop()
        if c == 0:
            continue
        g = gcd(c, lead) if lead > 0 else -gcd(c, lead)
        m, f = lead // g, c // g
        if m != 1:
            for i in range(len(rem)):
                rem[i] *= m
            for i in range(shift + 1, len(quo)):
                quo[i] *= m
            scale *= m
        quo[shift] = f
        for i in range(db):
            rem[shift + i] -= f * b[i]
    return scale, quo, _strip(rem)


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of two primitive integer polynomials of degree >= 1, primitive
    and up to sign, by the primitive polynomial remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _pdiv(a, b)[2]
        if not r:
            return b
        if len(r) == 1:
            return [1]
        a, b = b, _primitive(r)[1]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd over Z[x] of the primitive parts of a and b, with a positive
    leading coefficient: the gcd over the rationals, made primitive.

    >>> poly_gcd(Poly([-2, 0, 2]), Poly([3, -3]))
    Poly(-1 + x)
    """
    if a.is_zero() or b.is_zero():
        # gcd(p, 0) = p, made primitive
        g = (b if a.is_zero() else a).coeffs
        if not g:
            return P_ZERO
        g = _primitive(g)[1]
    else:
        pa, pb = _primitive(a.coeffs)[1], _primitive(b.coeffs)[1]
        if len(pa) == 1 or len(pb) == 1:
            return P_ONE
        g = _prs_gcd(pa, pb)
    return _raw(g if g[-1] > 0 else [-c for c in g])


P_ZERO = _raw(())
P_ONE = _raw((1,))
P_X = _raw((0, 1))


class RatFunc:
    """Rational function num/den in the canonical form described above.

    >>> RatFunc(Poly([2, 2]), Poly([4, 2]))
    RatFunc((1 + x)/(2 + x))
    >>> RatFunc(Poly([1]), Poly([2, 1]))
    RatFunc(1/(2 + x))
    """

    __slots__ = ("num", "den")

    def __init__(self, num=P_ZERO, den=P_ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", P_ZERO)
            object.__setattr__(self, "den", P_ONE)
            return
        # num/den = cn/cd * pn/pd, with pn and pd primitive
        cn, pn = _primitive(num.coeffs)
        cd, pd = _primitive(den.coeffs)
        # a nonzero constant has gcd 1 with anything
        if len(pn) > 1 and len(pd) > 1:
            g = _prs_gcd(pn, pd)
            if len(g) > 1:
                pn = _pdiv(pn, g)[1]
                pd = _pdiv(pd, g)[1]
        self._settle(cn, pn, cd, pd)

    @staticmethod
    def from_coprime(num: Poly, den: Poly) -> "RatFunc":
        """RatFunc(num, den) without the gcd, for num and den that share no
        factor of positive degree.  The caller proves that: a common factor
        left in place would break the canonical form silently, so each call
        site states its proof.

        >>> RatFunc.from_coprime(Poly([0, 0, 2]), Poly([4, -2]))
        RatFunc(x^2/(2 - x))
        """
        if num.is_zero() or den.is_zero():
            return RatFunc(num, den)
        f = object.__new__(RatFunc)
        f._settle(*_primitive(num.coeffs), *_primitive(den.coeffs))
        return f

    def _settle(self, cn: int, pn, cd: int, pd) -> None:
        """Set num/den to (cn*pn)/(cd*pd), for coprime primitive pn and pd.
        Factors of primitive polynomials are primitive, so the contents are
        cn and cd: make them coprime, and the lowest den coefficient
        positive."""
        g = gcd(cn, cd)
        cn, cd = cn // g, cd // g
        if next(c for c in pd if c) < 0:
            cn, cd = -cn, -cd
        object.__setattr__(self, "num", _raw(pn if cn == 1 else [cn * c for c in pn]))
        object.__setattr__(self, "den", _raw(pd if cd == 1 else [cd * c for c in pd]))

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.render()})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other) -> "RatFunc":
        return as_ratfunc(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return as_ratfunc(other) / self

    # -- series -------------------------------------------------------------

    def series(self, order: int) -> "PowerSeries":
        """First order+1 Taylor coefficients at the origin, in ints.

        Solves den * result = num coefficientwise, so den(0) = 1 is needed:
        den(0) = 0 raises PoleAtOrigin, any other PreconditionViolated.  A
        canonical function has den(0) = 1 just when its series is integral:
        by Fatou's lemma such a series is P/Q, coprime with Q(0) = 1, so
        den = c*Q, and coprime contents and den(0) > 0 make c = 1.
        """
        if order < 0:
            raise IndexOutOfRange(f"series needs order >= 0, got {order}")
        n, d = self.num.coeffs, self.den.coeffs
        if d[0] == 0:
            raise PoleAtOrigin(f"{self.render()} has a pole at the origin")
        if d[0] != 1:
            raise PreconditionViolated(f"{self.render()} has no integer series: den(0) = {d[0]}")
        out: list[int] = []
        top = len(d) - 1
        for k in range(order + 1):
            acc = n[k] if k < len(n) else 0
            for i in range(1, min(k, top) + 1):
                acc -= d[i] * out[k - i]
            out.append(acc)
        return PowerSeries(tuple(out))

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        num_text = self.num.render()
        if self.den == P_ONE:
            return num_text
        if sum(1 for c in self.num.coeffs if c) > 1:
            num_text = f"({num_text})"
        return f"{num_text}/({self.den.render()})"

    def to_json_dict(self) -> dict:
        return {"num": [str(c) for c in self.num.coeffs],
                "den": [str(c) for c in self.den.coeffs]}


def as_ratfunc(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Poly)):
        return RatFunc(value)
    raise TypeError(f"cannot treat {type(value).__name__} as a rational function")


RF_ZERO = RatFunc()
RF_ONE = RatFunc(P_ONE)
RF_X = RatFunc(P_X)


class PowerSeries:
    """Explicitly truncated power series: exactly order+1 stored coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not PowerSeries:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs,))

    def __repr__(self):
        return f"PowerSeries(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return PowerSeries, (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def mul(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product truncated to the shorter order."""
        order = min(self.order, other.order)
        return PowerSeries(tuple(sum(self.coeffs[i] * other.coeffs[n - i] for i in range(n + 1))
                                 for n in range(order + 1)))

    def as_ints(self) -> list[int]:
        """Integer coefficient list; raises if any coefficient is non-integral."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError(f"non-integral series coefficient {c}")
            out.append(int(c.numerator))
        return out
