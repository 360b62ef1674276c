"""Exact univariate polynomials and rational functions over rationals.

Coefficients are fractions.Fraction throughout: no floating point, no
overflow.  Polynomials are stored as ascending coefficient tuples with no
trailing zero; the zero polynomial is the empty tuple.

Rational functions are kept in a canonical form chosen so that structural
equality coincides with equality of formal power series at the origin:
gcd(num, den) = 1 and the lowest nonzero denominator coefficient is 1, which
is den(0) whenever den(0) != 0.  Every generating function produced by this
package is Taylor-expandable at 0, so its denominator has den(0) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import DivisionByZero, ParseError, PoleAtOrigin

Coeff = Union[int, Fraction]


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    """Immutable univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        object.__setattr__(self, "coeffs", _strip([_coerce(c) for c in coeffs]))

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
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.render()})"

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coefficient(i) + other.coefficient(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coefficient(i) - other.coefficient(i) for i in range(n)])

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division with remainder over the rationals."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        dd = other.degree
        rem = list(self.coeffs)
        if len(rem) - 1 < dd:
            return Poly(), Poly(rem)
        dlead = other.coeffs[-1]
        quo = [Fraction(0)] * (len(rem) - dd)
        for shift in range(len(rem) - 1 - dd, -1, -1):
            c = rem[shift + dd]
            if c == 0:
                continue
            factor = c / dlead
            quo[shift] = factor
            for i, oc in enumerate(other.coeffs):
                rem[shift + i] -= factor * oc
        return Poly(quo), Poly(rem)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Human-readable text like ``1 - 2*x - x^2``, in ascending powers."""
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append((c, i))
        parts = []
        for pos, (c, i) in enumerate(terms):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 else f"{mag}*{xpow}"
            if pos == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly([value])
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return Poly([c / lead for c in a.coeffs])


P_ZERO = Poly()
P_ONE = Poly([1])
P_X = Poly([0, 1])


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
        # a nonzero constant has gcd 1 with anything
        if num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        anchor = next(c for c in den.coeffs if c != 0)
        object.__setattr__(self, "num", Poly([c / anchor for c in num.coeffs]))
        object.__setattr__(self, "den", Poly([c / anchor for c in den.coeffs]))

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

        Solves den * result = num coefficientwise; den(0) != 0 is required
        (it is 1 in canonical form whenever it is nonzero).
        """
        d0 = self.den.coefficient(0)
        if d0 == 0:
            raise PoleAtOrigin(f"{self.render()} has a pole at the origin")
        out: list[Fraction] = []
        for n in range(order + 1):
            acc = self.num.coefficient(n)
            for i in range(1, min(n, self.den.degree) + 1):
                acc -= self.den.coefficient(i) * out[n - i]
            out.append(acc / d0)
        return PowerSeries(tuple(out))

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        num_text = self.num.render()
        if self.den == P_ONE:
            return num_text
        if sum(1 for c in self.num.coeffs if c != 0) > 1:
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
        exact coefficient strings such as "3" or "-1/2"."""
        try:
            parts = data["num"], data["den"]
            if not all(isinstance(part, list) and all(isinstance(c, str) for c in part)
                       for part in parts):
                raise TypeError("num and den must be lists of strings")
            num, den = (Poly([Fraction(c) for c in part]) for part in parts)
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"malformed rational-function JSON: {data!r}") from exc
        return RatFunc(num, den)


def _frac_str(c: Fraction) -> str:
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

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def mul(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product truncated to the shorter order."""
        order = min(self.order, other.order)
        out = []
        for n in range(order + 1):
            out.append(sum((self.coeffs[i] * other.coeffs[n - i] for i in range(n + 1)),
                           Fraction(0)))
        return PowerSeries(tuple(out))

    def as_ints(self) -> list[int]:
        """Integer coefficient list; raises if any coefficient is non-integral."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError(f"non-integral series coefficient {c}")
            out.append(c.numerator)
        return out
