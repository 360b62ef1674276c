"""Exact polynomial / rational-function arithmetic and series expansion."""

import json
import random
from fractions import Fraction

import pytest

from patgf import (
    DivisionByZero,
    ParseError,
    PatternQuery,
    Poly,
    PoleAtOrigin,
    PowerSeries,
    RF_ONE,
    RatFunc,
    census,
    poly_gcd,
)

X = Poly([0, 1])
P132 = (1, 3, 2)


def test_poly_arith_examples():
    assert Poly([1, -1]) * Poly([1, 1]) == Poly([1, 0, -1])
    p = Poly([3, 0, 2, -1])
    assert p - p == Poly()
    q = Poly([1, Fraction(-1, 2)])
    assert p - q == p + (-q) == Poly([2, Fraction(1, 2), 2, -1])
    assert q - p == q + (-p)
    assert Poly([1, -1]) * Poly([1, -2]) == Poly([1, -3, 2])


def test_poly_structure():
    assert Poly([0, 0]).is_zero()
    assert Poly([1, 2, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([1, 2]).degree == 1
    assert Poly().degree == -1


def test_poly_divmod():
    a = Poly([2, 0, -3, 1])
    b = Poly([1, 1])
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_poly_gcd():
    a = Poly([1, -1]) * Poly([1, 1])
    b = Poly([1, -1]) * Poly([1, -2])
    assert poly_gcd(a, b) == Poly([-1, 1])  # monic: x - 1


def test_rf_examples():
    fib = RF_ONE / RatFunc(Poly([1, -1, -1]))
    assert fib == RatFunc(Poly([1]), Poly([1, -1, -1]))
    f = RatFunc(Poly([1, 2]), Poly([1, 0, 3]))
    assert f * RF_ONE == f
    geom = RatFunc(X, Poly([1, -1])) + RF_ONE
    assert geom == RatFunc(Poly([1]), Poly([1, -1]))


def test_rf_normalization():
    assert RatFunc(Poly([1, 0, -1]), Poly([1, -1])) == RatFunc(Poly([1, 1]))
    assert RatFunc(Poly([2, -2]), Poly([2, -4])) == RatFunc(Poly([1, -1]), Poly([1, -2]))
    zero = RatFunc(Poly(), Poly([1, -1]))
    assert zero.num == Poly() and zero.den == Poly([1])
    f = RatFunc(Poly([2, 2]), Poly([4, 2]))
    assert f.den.coefficient(0) == 1
    assert poly_gcd(f.num, f.den).degree <= 0


def test_rf_normalization_at_pole():
    # den(0) = 0: the lowest nonzero denominator coefficient becomes 1
    f = RatFunc(Poly([1]), Poly([0, 2]))
    assert f.den == X
    assert f.num == Poly([Fraction(1, 2)])


def test_rf_division_by_zero():
    with pytest.raises(DivisionByZero):
        RatFunc(Poly([1]), Poly())
    with pytest.raises(DivisionByZero):
        RF_ONE / RatFunc(Poly())


def test_series_examples():
    assert RatFunc(Poly([1]), Poly([1, -1])).series(4).as_ints() == [1, 1, 1, 1, 1]
    fib = RatFunc(Poly([1]), Poly([1, -1, -1]))
    assert fib.series(5).as_ints() == [1, 1, 2, 3, 5, 8]
    pell = RatFunc(Poly([1, -1, -1]), Poly([1, -2, -1]))
    assert pell.series(4).as_ints() == [1, 1, 2, 5, 12]


def test_series_oracle_cross_check():
    # the n=4 count for the half-companion-Pell family equals the census
    pell = RatFunc(Poly([1, -1, -1]), Poly([1, -2, -1]))
    q = PatternQuery(avoid=(P132, (1, 2, 3, 4), (2, 1, 3, 4)))
    assert pell.series(4).as_ints()[4] == census(q, 4) == 12


def test_series_pole():
    with pytest.raises(PoleAtOrigin):
        RatFunc(Poly([1]), X).series(3)


def test_series_of_zero():
    assert RatFunc().series(3).coeffs == (0, 0, 0, 0)


def test_power_series_type():
    s = PowerSeries((Fraction(1), Fraction(2)))
    assert s.order == 1
    assert s[1] == 2
    with pytest.raises(ValueError):
        PowerSeries((Fraction(1, 2),)).as_ints()


def test_series_multiplicative():
    rng = random.Random(7)
    for _ in range(20):
        f = RatFunc(Poly([rng.randint(-3, 3) for _ in range(4)]),
                    Poly([1] + [rng.randint(-2, 2) for _ in range(3)]))
        g = RatFunc(Poly([rng.randint(-3, 3) for _ in range(4)]),
                    Poly([1] + [rng.randint(-2, 2) for _ in range(3)]))
        assert (f * g).series(8) == f.series(8).mul(g.series(8))


def test_series_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        p = Poly([1] + [rng.randint(-3, 3) for _ in range(4)])
        inv = (RF_ONE / RatFunc(p)).series(9)
        conv = inv.mul(PowerSeries(tuple(p.coefficient(i) for i in range(10))))
        assert conv.coeffs == (Fraction(1),) + (Fraction(0),) * 9


def test_field_axioms_random():
    rng = random.Random(3)
    for _ in range(30):
        def rand_rf():
            num = Poly([rng.randint(-4, 4) for _ in range(3)])
            den = Poly([rng.randint(-4, 4) for _ in range(3)])
            return RatFunc(num, den if not den.is_zero() else Poly([1]))
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        if not a.is_zero():
            assert (b / a) * a == b


def test_render():
    assert Poly([1, -2, -1]).render() == "1 - 2*x - x^2"
    assert Poly().render() == "0"
    assert Poly([0, 0, 3]).render() == "3*x^2"
    pell = RatFunc(Poly([1, -1, -1]), Poly([1, -2, -1]))
    assert pell.render() == "(1 - x - x^2)/(1 - 2*x - x^2)"
    assert RatFunc(Poly([0, 0, 0, 1]), Poly([1, -4, 4])).render() == "x^3/(1 - 4*x + 4*x^2)"
    assert RatFunc(Poly([1, 1])).render() == "1 + x"


def test_json_round_trip():
    pell = RatFunc(Poly([1, -1, -1]), Poly([1, -2, -1]))
    blob = json.dumps(pell.to_json_dict())
    parsed = RatFunc.from_json_dict(json.loads(blob))
    assert parsed == pell
    assert json.dumps(parsed.to_json_dict()) == blob
    frac = RatFunc(Poly([1]), Poly([2, -1]))
    again = RatFunc.from_json_dict(json.loads(json.dumps(frac.to_json_dict())))
    assert again == frac


@pytest.mark.parametrize("data", [
    {"num": "12", "den": ["1"]},  # a string, not a list of strings
    {"num": [0.1], "den": ["1"]},  # a float, not an exact string
    {"num": ["1"], "den": [1]},
])
def test_json_requires_lists_of_strings(data):
    with pytest.raises(ParseError):
        RatFunc.from_json_dict(data)


def test_rf_scalar_coercion():
    f = RatFunc(Poly([1]), Poly([1, -1]))
    assert f - 1 == RatFunc(X, Poly([1, -1]))
    assert 1 / RatFunc(Poly([1, -1])) == f
    assert 2 * f == RatFunc(Poly([2]), Poly([1, -1]))
