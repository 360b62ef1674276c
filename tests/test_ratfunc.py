"""Exact polynomial / rational-function arithmetic and series expansion."""

import json
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patgf import (
    DivisionByZero,
    IndexOutOfRange,
    PatternQuery,
    Poly,
    PoleAtOrigin,
    PreconditionViolated,
    PowerSeries,
    RF_ONE,
    RatFunc,
    as_ratfunc,
    census,
    poly_gcd,
)
from patgf.perms import PATTERN_132 as P132

X = Poly([0, 1])


def test_poly_arith_examples():
    assert Poly([1, -1]) * Poly([1, 1]) == Poly([1, 0, -1])
    p = Poly([3, 0, 2, -1])
    assert p - p == Poly()
    q = Poly([1, -3])
    assert p - q == p + (-q) == Poly([2, 3, 2, -1])
    assert q - p == q + (-p)
    assert Poly([1, -1]) * Poly([1, -2]) == Poly([1, -3, 2])


def test_poly_power_takes_the_fewest_binary_products(monkeypatch):
    # floor(log2 e) squarings and popcount(e) - 1 products, so p ** 1 and
    # p ** 0 multiply nothing; each power equals the repeated product
    p = Poly([1, -2, 0, 3])
    powers = [Poly([1])]
    for _ in range(16):
        powers.append(powers[-1] * p)
    calls = []
    product = Poly.__mul__

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting)
    for e in range(17):
        calls.clear()
        assert p ** e == powers[e], e
        want = 0 if e == 0 else e.bit_length() - 1 + bin(e).count("1") - 1
        assert len(calls) == want, e


def test_poly_structure():
    assert Poly([0, 0]).is_zero()
    assert Poly([1, 2, 0]).coeffs == (1, 2)
    assert Poly([1, 2]).degree == 1
    assert Poly().degree == -1


def test_poly_gcd():
    a = Poly([1, -1]) * Poly([1, 1])
    b = Poly([1, -1]) * Poly([1, -2])
    assert poly_gcd(a, b) == Poly([-1, 1])  # x - 1
    # primitive, with a positive leading coefficient, whatever the contents and signs
    assert poly_gcd(2 * a, -3 * b) == Poly([-1, 1])
    assert poly_gcd(Poly([2, 2]) * Poly([3, 1]), Poly([2, 2])) == Poly([1, 1])
    assert poly_gcd(Poly([4, -6]), Poly()) == Poly([-2, 3])
    assert poly_gcd(Poly(), Poly()) == Poly()


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
    # (2 + 2x)/(4 + 2x) = (1 + x)/(2 + x): the contents 2 and 2 share the factor 2
    f = RatFunc(Poly([2, 2]), Poly([4, 2]))
    assert (f.num, f.den) == (Poly([1, 1]), Poly([2, 1]))
    assert poly_gcd(f.num, f.den).degree <= 0
    # the lowest nonzero den coefficient is positive, and the contents stay coprime
    g = RatFunc(Poly([6, 3]), Poly([-4, 0, 8]))
    assert (g.num, g.den) == (Poly([-6, -3]), Poly([4, 0, -8]))


def test_rf_normalization_at_pole():
    # den(0) = 0: the lowest nonzero denominator coefficient is made positive
    f = RatFunc(Poly([1]), Poly([0, -2]))
    assert (f.num, f.den) == (Poly([-1]), Poly([0, 2]))
    assert RatFunc(Poly([0, 3]), Poly([0, 0, 6])) == RatFunc(Poly([1]), Poly([0, 2]))


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
    # 1/(2 + x) has no integer series, and the message names den(0)
    with pytest.raises(PreconditionViolated, match=r"no integer series: den\(0\) = 2$"):
        RatFunc(Poly([1]), Poly([2, 1])).series(3)


def test_series_of_zero():
    assert RatFunc().series(3).coeffs == (0, 0, 0, 0)


def test_power_series_type():
    s = PowerSeries((Fraction(1), Fraction(2)))
    assert s.order == 1
    assert s[1] == 2
    with pytest.raises(ValueError):
        PowerSeries((Fraction(1, 2),)).as_ints()
    assert s == PowerSeries((1, 2)) and hash(s) == hash(PowerSeries((1, 2)))
    assert s != (1, 2) and pickle.loads(pickle.dumps(s)) == s
    assert repr(PowerSeries((1, 2))) == "PowerSeries(coeffs=(1, 2))"
    with pytest.raises(AttributeError):
        s.coeffs = ()


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
    # a non-integral function renders in integers
    assert RatFunc(Poly([1]), Poly([2, 1])).render() == "1/(2 + x)"


def test_json_round_trip():
    pell = RatFunc(Poly([1, -1, -1]), Poly([1, -2, -1]))
    blob = json.dumps(pell.to_json_dict())
    assert json.loads(blob) == {"num": ["1", "-1", "-1"], "den": ["1", "-2", "-1"]}
    frac = RatFunc(Poly([1]), Poly([2, -1]))
    assert frac.to_json_dict() == {"num": ["1"], "den": ["2", "-1"]}


def test_rf_scalar_coercion():
    f = RatFunc(Poly([1]), Poly([1, -1]))
    assert f - 1 == RatFunc(X, Poly([1, -1]))
    assert 1 / RatFunc(Poly([1, -1])) == f
    assert 2 * f == RatFunc(Poly([2]), Poly([1, -1]))


def test_values_equal_only_their_own_type():
    # equal values hash equally, so a Poly or RatFunc equals no int and a
    # RatFunc no Poly, as in sets and dict keys
    assert RF_ONE != 1 and Poly([2]) != 2
    assert RatFunc(Poly([1, 2])) != Poly([1, 2])
    assert len({RF_ONE, 1}) == 2
    assert RF_ONE == RatFunc(Poly([1])) and hash(RF_ONE) == hash(RatFunc(Poly([1])))


def test_series_rejects_a_negative_order():
    with pytest.raises(IndexOutOfRange):
        RatFunc(Poly([1]), Poly([1, -1])).series(-3)
    assert RatFunc(Poly([1]), Poly([1, -1])).series(0).coeffs == (1,)


def test_coefficients_are_ints():
    p = Poly([1, 2, -3, True])
    assert all(type(c) is int for c in p.coeffs) and p.coeffs == (1, 2, -3, 1)
    assert p.coefficient(2) == -3 and type(p.coefficient(3)) is int and p.coefficient(5) == 0
    assert hash(p) == hash((1, 2, -3, 1))


@pytest.mark.parametrize("make", [
    lambda: Poly([Fraction(1, 2)]),
    lambda: Poly([1, Fraction(2)]),  # integral, but still a Fraction
    lambda: Poly([1.0]),
    lambda: RatFunc(Fraction(1, 2)),
    lambda: RatFunc(Poly([1]), Fraction(2)),
    lambda: as_ratfunc(Fraction(1, 3)),
    lambda: RF_ONE * Fraction(1, 2),
])
def test_fractions_are_rejected(make):
    with pytest.raises(TypeError):
        make()


def test_integer_constant_product_keeps_the_contents_coprime():
    # 1/(2 + 4x) is canonical, but its den is not primitive: 2 * it is 1/(1 + 2x)
    f = RatFunc(Poly([1]), Poly([2, 4]))
    want = RatFunc(Poly([1]), Poly([1, 2]))
    for got in (2 * f, f * 2, f * RatFunc(Poly([2])), RatFunc(Poly([2])) * f):
        assert (got.num, got.den) == (want.num, want.den) and hash(got) == hash(want)
        assert got.render() == "1/(1 + 2*x)"
    # a constant with a den of its own: (1/2) * 1/(1 - x) is 1/(2 - 2x)
    half = RatFunc(Poly([1]), Poly([2]))
    g = RatFunc(Poly([1]), Poly([1, -1]))
    for got in (half * g, g * half):
        assert (got.num, got.den) == (Poly([1]), Poly([2, -2]))


# ---------------------------------------------------------------------------
# The Fraction reference: the arithmetic ratfunc did in Fraction before it
# moved to ints, kept as functions on ascending Fraction tuples with no
# trailing zero.  The property test below holds ratfunc to it.
# ---------------------------------------------------------------------------

def _ref(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _ref_at(a, i):
    return a[i] if 0 <= i < len(a) else Fraction(0)


def _ref_add(a, b, sign=1):
    return _ref(_ref_at(a, i) + sign * _ref_at(b, i) for i in range(max(len(a), len(b))))


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_divmod(a, b):
    db = len(b) - 1
    rem = list(a)
    if len(rem) - 1 < db:
        return (), _ref(rem)
    quo = [Fraction(0)] * (len(rem) - db)
    for shift in range(len(rem) - 1 - db, -1, -1):
        factor = rem[shift + db] / b[-1]
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
    return _ref(quo), _ref(rem)


def _ref_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else a


def _ref_canonical(num, den):
    """gcd(num, den) = 1 and the lowest nonzero den coefficient 1."""
    if not num:
        return (), (Fraction(1),)
    if len(num) > 1 and len(den) > 1:
        g = _ref_gcd(num, den)
        if len(g) > 1:
            num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    anchor = next(c for c in den if c != 0)
    return tuple(c / anchor for c in num), tuple(c / anchor for c in den)


def _ref_series(num, den, order):
    out = []
    for n in range(order + 1):
        acc = _ref_at(num, n)
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc / den[0])
    return tuple(out)


def _ref_render(a):
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        mag = abs(c)
        xpow = "x" if i == 1 else f"x^{i}"
        body = str(mag) if i == 0 else (xpow if mag == 1 else f"{mag}*{xpow}")
        parts.append((body if c > 0 else f"-{body}") if not parts
                     else f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts)


def _ref_render_rf(num, den):
    text = _ref_render(num)
    if den == (1,):
        return text
    if sum(1 for c in num if c != 0) > 1:
        text = f"({text})"
    return f"{text}/({_ref_render(den)})"


def _ref_json(num, den):
    return {"num": [str(c) for c in num], "den": [str(c) for c in den]}


def _over_z(*parts):
    """The parts times the one positive rational that makes them integral
    with joint content 1: the Z[x] form of the reference's Q-canonical
    (num, den), or of its monic gcd, as int tuples."""
    m = lcm(*(c.denominator for part in parts for c in part))
    ints = [[int(c * m) for c in part] for part in parts]
    g = gcd(*(c for part in ints for c in part)) or 1
    return tuple(tuple(c // g for c in part) for part in ints)


def _int_poly(ref):
    """The Poly of an integral reference tuple."""
    assert all(c.denominator == 1 for c in ref)
    return Poly([int(c) for c in ref])


def _agrees(p, ref):
    """Same value, int coefficients, and equal and hashed alike as a Poly."""
    ints = tuple(int(c) for c in ref)
    return (p.coeffs == ints == ref and all(type(c) is int for c in p.coeffs)
            and p == Poly(ints) and hash(p) == hash(ref))


_poly = st.lists(st.integers(-9, 9), max_size=6)
# an integer factor: its lower coefficients and a nonzero leading one
_factor = st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
                    st.integers(1, 3) | st.integers(-3, -1))


def _ref_product(factors):
    out = (Fraction(1),)
    for body, lead in factors:
        out = _ref_mul(out, _ref(body + [lead]))
    return out


# a shared factor of degree 30, where pseudo-remainders swell
_WIDE = ([([1, -1, 2, 0, 3], 1)] * 3 + [([2, 1, -1, 1, 0], -2)] * 3
         + [([0, 1], 1)] * 2)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(a=_poly, b=_poly, common=st.lists(_factor, max_size=8), content=st.integers(1, 4))
@example(a=[1, -2], b=[3, 0, 1], common=_WIDE, content=1)
@example(a=[1, 2], b=[9, -2], common=_WIDE, content=2)
def test_ratfunc_matches_the_fraction_reference(a, b, common, content):
    ra, rb = _ref(a), _ref(b)
    pa, pb = Poly(a), Poly(b)
    for p, r in ((pa, ra), (pb, rb)):
        assert _agrees(p, r)
        assert p.render() == _ref_render(r)
    assert _agrees(pa + pb, _ref_add(ra, rb))
    assert _agrees(pa - pb, _ref_add(ra, rb, -1))
    assert _agrees(-pa, _ref_add((), ra, -1))
    assert _agrees(pa * pb, _ref_mul(ra, rb))
    # a shared factor of high degree, so that the gcd is not trivial, times
    # an integer content, so that contents are divided out too
    shared = _ref_mul(_ref_product(common), (Fraction(content),))
    num, den = _ref_mul(shared, ra), _ref_mul(shared, rb)
    assert _agrees(poly_gcd(_int_poly(num), _int_poly(den)), _over_z(_ref_gcd(num, den))[0])
    if not den:
        return
    f = RatFunc(_int_poly(num), _int_poly(den))
    want = _ref_canonical(num, den)
    zn, zd = _over_z(*want)
    assert _agrees(f.num, zn) and _agrees(f.den, zd)
    assert f.render() == _ref_render_rf(zn, zd)
    assert f.to_json_dict() == _ref_json(zn, zd)
    # the series is integral just where den(0) = 1, and is refused elsewhere
    if zd[0] == 1:
        s = f.series(12)
        assert s.coeffs == _ref_series(*want, 12) and all(type(c) is int for c in s.coeffs)
    else:
        with pytest.raises(PreconditionViolated if zd[0] else PoleAtOrigin):
            f.series(12)
    # g = b / (1 + x*a): nonzero den, so the field operations are defined
    g_num, g_den = rb, _ref_add((Fraction(1),), _ref_mul((0, Fraction(1)), ra))
    g = RatFunc(pb, _int_poly(g_den))
    gn, gd = _ref_canonical(g_num, g_den)
    fn, fd = want
    cases = [(f + g, _ref_add(_ref_mul(fn, gd), _ref_mul(gn, fd)), _ref_mul(fd, gd)),
             (f - g, _ref_add(_ref_mul(fn, gd), _ref_mul(gn, fd), -1), _ref_mul(fd, gd)),
             (f * g, _ref_mul(fn, gn), _ref_mul(fd, gd))]
    # constant factors, zero included, on either side
    for c in (0, b[0] if b else 1):
        cases += [(f * c, _ref_mul(fn, (Fraction(c),)), fd),
                  (c * g, _ref_mul(gn, (Fraction(c),)), gd)]
    # and a constant with a den of its own
    q = RatFunc(Poly([content]), Poly([content + 1]))
    cases += [(f * q, _ref_mul(fn, (Fraction(content, content + 1),)), fd),
              (q * g, _ref_mul(gn, (Fraction(content, content + 1),)), gd)]
    if gn:
        cases.append((f / g, _ref_mul(fn, gd), _ref_mul(fd, gn)))
    for got, wn, wd in cases:
        want_n, want_d = _over_z(*_ref_canonical(wn, wd))
        assert _agrees(got.num, want_n) and _agrees(got.den, want_d)
        assert got.render() == _ref_render_rf(want_n, want_d)
