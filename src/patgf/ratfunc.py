"""Exact univariate polynomials and rational functions over the rationals.

A polynomial is stored as a tuple of Python ints, ascending and with no
trailing zero (the zero polynomial is the empty tuple), over one positive
common denominator, in lowest terms: the gcd of the ints and the
denominator is 1.  Every generating function this package produces has
integer coefficients, so the denominator is nearly always 1 and the
arithmetic is integer arithmetic.  `fractions.Fraction` appears only at the
boundary: a coefficient that is not an integer, JSON input, and the series
of a rational function whose coefficients are not integers.  A coefficient
is read as an `int` when the polynomial is integral and as a `Fraction`
otherwise; the two compare and hash equal.

Rational functions are kept in a canonical form chosen so that structural
equality coincides with equality of formal power series at the origin:
gcd(num, den) = 1 and the lowest nonzero denominator coefficient is 1, which
is den(0) whenever den(0) != 0.  Every generating function produced by this
package is Taylor-expandable at 0, so its denominator has den(0) = 1.  The
gcd is the primitive polynomial remainder sequence over Z[x] (Knuth, TAOCP
vol. 2, 4.6.1; Brown, JACM 18, 1971), divided out exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import DivisionByZero, IndexOutOfRange, ParseError, PoleAtOrigin

Coeff = Union[int, Fraction]


class Poly:
    """Immutable univariate polynomial with exact rational coefficients."""

    __slots__ = ("_ints", "_den")

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        pairs = []
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
            pairs.append((int(c.numerator), int(c.denominator)))
        den = lcm(*(d for _, d in pairs))
        # over the least common denominator the ints are already in lowest terms
        ints = [n * (den // d) for n, d in pairs]
        while ints and ints[-1] == 0:
            ints.pop()
        _init(self, tuple(ints), den if ints else 1)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Coeff, ...]:
        """Ascending coefficients: ints when integral, else Fractions."""
        if self._den == 1:
            return self._ints
        return tuple(Fraction(c, self._den) for c in self._ints)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._ints) - 1

    def is_zero(self) -> bool:
        return not self._ints

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self._ints == other._ints and self._den == other._den

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.render()})"

    def coefficient(self, i: int) -> Coeff:
        if not 0 <= i < len(self._ints):
            return 0
        c = self._ints[i]
        return c if self._den == 1 else Fraction(c, self._den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Poly":
        return _lincomb(self, _as_poly(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw([-c for c in self._ints], self._den)

    def __sub__(self, other) -> "Poly":
        return _lincomb(self, _as_poly(other), -1)

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self._ints, other._ints
        if not a or not b:
            return P_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _reduced(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = P_ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
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


def _init(p: Poly, ints: tuple, den: int) -> None:
    object.__setattr__(p, "_ints", ints)
    object.__setattr__(p, "_den", den)


def _raw(ints, den: int = 1) -> Poly:
    """The Poly ints/den, with ints stripped and already in lowest terms."""
    p = object.__new__(Poly)
    _init(p, tuple(ints), den)
    return p


def _reduced(ints: list, den: int) -> Poly:
    """The Poly ints/den for den > 0: strips the list and brings it to lowest terms."""
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return P_ZERO
    g = _content(ints, den)
    if g != 1:
        ints = [c // g for c in ints]
        den //= g
    return _raw(ints, den)


def _lincomb(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign*q."""
    a, b, den = p._ints, q._ints, p._den
    ma = mb = 1
    if den != q._den:
        g = gcd(den, q._den)
        ma, mb = q._den // g, den // g
        den *= ma
    out = [c * ma for c in a] if ma != 1 else list(a)
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    mb *= sign
    for i, c in enumerate(b):
        out[i] += mb * c
    return _reduced(out, den)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly([value])
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


# ---------------------------------------------------------------------------
# Integer polynomials as lists: content, pseudo-division, primitive PRS gcd
# ---------------------------------------------------------------------------

def _content(ints, g: int = 0) -> int:
    """The positive gcd of g and nonzero ints, stopping as soon as it is 1."""
    for c in ints:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _primitive(ints):
    """(content, primitive part) of a nonzero integer polynomial; the part is
    ints itself when the content is 1."""
    g = _content(ints)
    return g, (ints if g == 1 else [c // g for c in ints])


def _pdiv(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
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
    while rem and rem[-1] == 0:
        rem.pop()
    return scale, quo, rem


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
    """Monic gcd over the rationals, from the primitive gcd over Z[x]."""
    if a.is_zero() or b.is_zero():
        # gcd(p, 0) = p, made monic
        g = list((b if a.is_zero() else a)._ints)
        if not g:
            return P_ZERO
    else:
        pa, pb = _primitive(a._ints)[1], _primitive(b._ints)[1]
        if len(pa) == 1 or len(pb) == 1:
            return P_ONE
        g = _prs_gcd(pa, pb)
    lead = g[-1]
    sign = 1 if lead > 0 else -1
    return _reduced([sign * c for c in g], abs(lead))


P_ZERO = _raw(())
P_ONE = _raw((1,))
P_X = _raw((0, 1))


class RatFunc:
    """Rational function num/den in the canonical form described above."""

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
        # num/den = (cn * den._den) / (cd * num._den) * pn/pd, pn and pd primitive
        cn, pn = _primitive(num._ints)
        cd, pd = _primitive(den._ints)
        # a nonzero constant has gcd 1 with anything
        if len(pn) > 1 and len(pd) > 1:
            g = _prs_gcd(pn, pd)
            if len(g) > 1:
                pn = _pdiv(pn, g)[1]
                pd = _pdiv(pd, g)[1]
        # scale so that the lowest nonzero denominator coefficient is 1
        anchor = next(c for c in pd if c)
        sign = 1 if anchor > 0 else -1
        p, q = sign * cn * den._den, cd * num._den * abs(anchor)
        g = gcd(p, q)
        p, q = p // g, q // g
        if sign < 0:
            pd = [-c for c in pd]
        # pn and pd are primitive and gcd(p, q) = 1, so both are in lowest terms
        object.__setattr__(self, "num", _raw(pn if p == 1 else [p * c for c in pn], q))
        object.__setattr__(self, "den", _raw(pd, abs(anchor)))

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
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
        for f, c in ((self, other), (other, self)):
            if len(c.num._ints) <= 1 and len(c.den._ints) == 1:
                # a constant c: c*num stays coprime to den, and den stays anchored
                return _canonical(f.num * c.num, f.den) if c else RF_ZERO
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
        """First order+1 Taylor coefficients at the origin, exactly.

        Solves den * result = num coefficientwise; den(0) != 0 is required,
        and then it is 1 in canonical form.  The recurrence runs in ints
        when num and den are integral, and in Fractions otherwise.
        """
        if order < 0:
            raise IndexOutOfRange(f"series needs order >= 0, got {order}")
        num, den = self.num, self.den
        if den._ints[0] == 0:
            raise PoleAtOrigin(f"{self.render()} has a pole at the origin")
        n, d = num.coeffs, den.coeffs
        out: list = []
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
        if sum(1 for c in self.num._ints if c) > 1:
            num_text = f"({num_text})"
        return f"{num_text}/({self.den.render()})"

    def to_json_dict(self) -> dict:
        return {
            "num": [_frac_str(c) for c in self.num.coeffs],
            "den": [_frac_str(c) for c in self.den.coeffs],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "RatFunc":
        """Parse what `to_json_dict` writes: `num` and `den` are lists of
        exact coefficient strings such as "3" or "-1/2", and den is nonzero."""
        try:
            parts = data["num"], data["den"]
            if not all(isinstance(part, list) and all(isinstance(c, str) for c in part)
                       for part in parts):
                raise TypeError("num and den must be lists of strings")
            if not all(_EXACT.fullmatch(c) for part in parts for c in part):
                raise ValueError("coefficients must be exact integers or fractions")
            num, den = (Poly([Fraction(c) for c in part]) for part in parts)
            if den.is_zero():
                raise ValueError("zero denominator")
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed rational-function JSON: {data!r}") from exc
        return RatFunc(num, den)


_EXACT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _canonical(num: Poly, den: Poly) -> RatFunc:
    """The RatFunc num/den, already in canonical form."""
    f = object.__new__(RatFunc)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _frac_str(c: Coeff) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def as_ratfunc(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction, Poly)):
        return RatFunc(value)
    raise TypeError(f"cannot treat {type(value).__name__} as a rational function")


RF_ZERO = RatFunc()
RF_ONE = RatFunc(P_ONE)
RF_X = RatFunc(P_X)


@dataclass(frozen=True)
class PowerSeries:
    """Explicitly truncated power series: exactly order+1 stored coefficients."""

    coeffs: tuple[Coeff, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Coeff:
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
