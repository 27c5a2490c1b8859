"""Field, polynomial, rational, and Laurent-series arithmetic."""

from __future__ import annotations

import random

import pytest

from drinfeld import (
    Fq,
    FqElem,
    LaurentKInf,
    ParseError,
    PolyA,
    PrecisionError,
    RatK,
    format_poly,
    is_square_fq,
    is_square_kinf,
    laurent_expand,
    parse_poly,
    quad_irreducible_kinf,
    sqrt_fq,
)
from drinfeld import ffarith
from conftest import SEED, get_field, poly_sqrt


# --- finite fields ---------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_field_axioms_exhaustive(q):
    F = get_field(q)
    xs = [FqElem(F, x) for x in range(q)]
    for x in xs:
        for y in xs:
            assert x + y == y + x
            assert x * y == y * x
            for z in xs:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
    one = F.elem(1)
    for x in xs:
        if not x.is_zero():
            assert x * x.inverse() == one


def test_prime_power_factoring_matches_brute_force():
    # trial division stops at isqrt(q): a q with no divisor up to there is prime
    odd_primes = [p for p in range(3, 201) if all(p % r for r in range(2, p))]
    powers = {p**e: (p, e) for p in odd_primes for e in range(1, 8) if p**e <= 200}
    for q in range(-2, 201):
        if q in powers:
            assert ffarith._factor_prime_power(q) == powers[q]
        else:
            with pytest.raises(ValueError):
                ffarith._factor_prime_power(q)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
def test_frobenius_fixes_every_element(q):
    F = get_field(q)
    for code in range(q):
        x = FqElem(F, code)
        assert x ** q == x


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_generator_has_full_order(q):
    F = get_field(q)
    seen = set()
    x = F.elem(1)
    for _ in range(q - 1):
        x = x * F.gen
        seen.add(F.coords[x.code])
    assert len(seen) == q - 1


def test_is_square_fq_matches_exhaustive_squaring():
    for q in (3, 5, 7, 9):
        F = get_field(q)
        units = [FqElem(F, x) for x in range(1, q)]
        squares = {F.coords[(x * x).code] for x in units}
        for x in units:
            assert is_square_fq(x) == (F.coords[x.code] in squares)
            if is_square_fq(x):
                y = sqrt_fq(x)
                assert y is not None and y * y == x
            else:
                assert sqrt_fq(x) is None


def test_is_square_fq_known_values():
    F7 = get_field(7)
    assert is_square_fq(F7.elem(2)) is True
    assert is_square_fq(F7.elem(3)) is False
    assert is_square_fq(F7.elem(1)) is True
    with pytest.raises(ValueError):
        is_square_fq(F7.elem(0))


# --- polynomial parsing and printing --------------------------------------


def test_parse_poly_known_values():
    F7 = get_field(7)
    p = parse_poly("4*T+3", F7)
    assert list(p.coeffs) == [3, 4]
    assert parse_poly("0", F7).is_zero()
    F3 = get_field(3)
    p2 = parse_poly("T^2+1", F3)
    assert list(p2.coeffs) == [1, 0, 1]


def test_parse_poly_round_trips_through_printing():
    rng = random.Random(SEED)
    for q in (3, 7, 9):
        F = get_field(q)
        elems = [FqElem(F, x) for x in range(q)]
        for _ in range(50):
            coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, 6))]
            poly = PolyA(F, [elems[c] for c in coeffs])
            assert parse_poly(format_poly(poly), F) == poly


def test_parse_poly_errors_carry_positions():
    F7 = get_field(7)
    for bad in ("4*T+", "T^", "x+1", "7*T", "++T", ""):
        with pytest.raises(ParseError):
            parse_poly(bad, F7)
    try:
        parse_poly("T+%", F7)
    except ParseError as e:
        assert e.pos == 2


def test_parse_poly_degree_is_capped_per_term():
    F7 = get_field(7)
    assert parse_poly("T^4096+1", F7).degree == 4096
    for bad, pos in (("T^4097", 0), ("1+T^4000*2*T^97", 2)):
        with pytest.raises(ParseError) as info:
            parse_poly(bad, F7)
        assert info.value.pos == pos
        assert "POLY_DEG_MAX = 4096" in str(info.value)


def test_integer_literals_are_capped_at_int_digits_max():
    F7 = get_field(7)
    cap = ffarith.INT_DIGITS_MAX
    assert parse_poly("a^%s*T" % ("0" * (cap - 1) + "1"), get_field(9)).degree == 1
    assert ffarith.parse_int(" -" + "9" * cap, 5) == -int("9" * cap)
    for text, pos in (("T^" + "0" * cap + "1", 2), ("1+" + "1" * 5000, 2)):
        with pytest.raises(ParseError) as info:
            parse_poly(text, F7)
        assert info.value.pos == pos
        assert "INT_DIGITS_MAX = %d" % cap in str(info.value)
    with pytest.raises(ParseError) as info:
        ffarith.parse_int("  +" + "1" * (cap + 1), 10)
    assert info.value.pos == 13
    for bad in ("", "x", "1_0", "--1", "+-1", "1 2"):
        with pytest.raises(ParseError, match="expected an integer") as info:
            ffarith.parse_int(bad, 4)
        assert info.value.pos == 4


def test_generator_symbol_only_in_extension_fields():
    with pytest.raises(ParseError):
        parse_poly("a*T", get_field(7))
    F9 = get_field(9)
    p = parse_poly("a*T+a^2", F9)
    assert p.degree == 1
    assert format_poly(p) == "a*T+a^2"


def test_printed_form_uses_decreasing_degree():
    F5 = get_field(5)
    assert format_poly(parse_poly("3+T^2", F5)) == "T^2+3"
    assert format_poly(parse_poly("2*T", F5)) == "2*T"
    assert format_poly(PolyA.zero(F5)) == "0"


# --- Laurent expansion -----------------------------------------------------


def test_expand_monomial():
    F5 = get_field(5)
    f = laurent_expand(RatK(PolyA.T(F5)), 8)
    assert f.val == -1
    assert [F5.coords[c.code][0] for c in f.coeffs] == [1, 0, 0, 0, 0, 0, 0, 0]


def test_expand_simple_pole_alternates():
    F3 = get_field(3)
    x = RatK(PolyA.one(F3), parse_poly("T+1", F3))
    f = laurent_expand(x, 6)
    assert f.val == 1
    assert [F3.coords[c.code][0] for c in f.coeffs] == [1, 2, 1, 2, 1, 2]


def test_expand_cancels_common_factors():
    F3 = get_field(3)
    x = RatK(parse_poly("T^2+T", F3), PolyA.T(F3))
    assert laurent_expand(x, 10) == laurent_expand(RatK(parse_poly("T+1", F3)), 10)
    assert laurent_expand(x, 10).val == -1


def test_expand_zero_gives_zero_series():
    F3 = get_field(3)
    f = laurent_expand(RatK(PolyA.zero(F3)), 10)
    assert f.is_zero() and f.val is None


def test_valuation_is_minus_degree_for_polynomials():
    F5 = get_field(5)
    rng = random.Random(SEED)
    for deg in range(11):
        coeffs = [rng.randrange(5) for _ in range(deg)] + [rng.randrange(1, 5)]
        poly = PolyA.from_ints(F5, coeffs)
        assert laurent_expand(RatK(poly), 4).val == -deg
        assert RatK(poly).valuation() == -deg


def test_expand_is_multiplicative():
    rng = random.Random(SEED)
    F7 = get_field(7)

    def rand_ratk():
        while True:
            num = PolyA.from_ints(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 5))])
            den = PolyA.from_ints(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 5))])
            if not num.is_zero() and not den.is_zero():
                return RatK(num, den)

    for _ in range(40):
        x, y = rand_ratk(), rand_ratk()
        a, b = laurent_expand(x, 16), laurent_expand(y, 16)
        prod = laurent_expand(x * y, 16)
        assert a * b == prod.truncate((a * b).prec)


def test_multiplying_back_recovers_numerator():
    F5 = get_field(5)
    num = parse_poly("T^2+3*T+1", F5)
    den = parse_poly("T^3+2", F5)
    f = laurent_expand(RatK(num, den), 20)
    assert f.val == 1
    back = f * laurent_expand(RatK(den), 20)
    want = laurent_expand(RatK(num), 20)
    assert back == want.truncate(back.prec)


# --- series windows --------------------------------------------------------


def test_series_sqrt_squares_back():
    F7 = get_field(7)
    x = RatK(parse_poly("T^2+3", F7), parse_poly("T^2+T+1", F7))
    f = laurent_expand(x * x, 24)
    y = f.sqrt()
    assert (y * y) == f.truncate((y * y).prec)
    with pytest.raises(ValueError):
        laurent_expand(RatK(PolyA.T(F7)), 12).sqrt()


# --- local squareness ------------------------------------------------------


def test_is_square_kinf_basic_values():
    F7 = get_field(7)
    t2 = laurent_expand(RatK(parse_poly("T^2", F7)), 8)
    assert is_square_kinf(t2) is True
    t = laurent_expand(RatK(PolyA.T(F7)), 8)
    assert is_square_kinf(t) is False
    with pytest.raises(ValueError):
        is_square_kinf(LaurentKInf(F7, None, ()))
    with pytest.raises(PrecisionError):
        is_square_kinf(laurent_expand(RatK(PolyA.T(F7)), 1))


def test_is_square_kinf_on_random_squares_and_nonsquares():
    rng = random.Random(SEED)
    F5 = get_field(5)
    nonsquare = next(x for x in map(F5.elem, range(1, 5)) if not is_square_fq(x))
    for _ in range(300):
        while True:
            num = PolyA.from_ints(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
            den = PolyA.from_ints(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
            if not num.is_zero() and not den.is_zero():
                break
        x = RatK(num, den)
        assert is_square_kinf(laurent_expand(x * x, 16)) is True
        f = laurent_expand(x, 16)
        if f.val % 2 != 0:
            assert is_square_kinf(f) is False
            assert is_square_kinf(f * nonsquare) is False
        else:
            assert is_square_kinf(f * nonsquare) != is_square_kinf(f)


def test_local_square_with_even_valuation_and_square_lead():
    # (T^2+1)/(T^2+5T+1) has valuation 0 and leading coefficient 1: the
    # Hensel lift must verify it as a local square even though it is not a
    # square in K itself.
    F7 = get_field(7)
    four = RatK.from_value(F7, 4)
    x = four * RatK(parse_poly("T^2+1", F7), parse_poly("T^2+5*T+1", F7))
    f = laurent_expand(x, 32)
    assert is_square_kinf(f) is True
    assert poly_sqrt(x.num * x.den) is None


def test_quad_irreducible_known_values():
    F7 = get_field(7)
    b = RatK(PolyA.zero(F7))
    c_minus_one = RatK.from_value(F7, -1)
    assert quad_irreducible_kinf(b, c_minus_one) is False
    c_minus_t = RatK(-PolyA.T(F7))
    assert quad_irreducible_kinf(b, c_minus_t) is True
    # zero discriminant: double rational root
    two = RatK.from_value(F7, 2)
    one = RatK.from_value(F7, 1)
    assert quad_irreducible_kinf(two, one) is False


def test_quad_with_locally_square_discriminant_is_locally_reducible():
    # z^2 + ((2T+4)/(T+6))z + 4/(T+6) over F_7: the discriminant
    # (4T^2+4)/(T^2+5T+1) is a square in F_7((1/T)) (even valuation, square
    # leading coefficient), so the quadratic has a root there; it has no
    # root in F_7(T) because the discriminant is not a square in K.
    F7 = get_field(7)
    b = RatK(parse_poly("2*T+4", F7), parse_poly("T+6", F7))
    c = RatK(parse_poly("4", F7), parse_poly("T+6", F7))
    disc = b * b - RatK.from_value(F7, 4) * c
    assert is_square_kinf(laurent_expand(disc, 32)) is True
    assert quad_irreducible_kinf(b, c) is False
    assert poly_sqrt(disc.num * disc.den) is None


# --- exact squareness in K -------------------------------------------------


def test_poly_sqrt_recovers_squares():
    rng = random.Random(SEED)
    F5 = get_field(5)
    for _ in range(100):
        y = PolyA.from_ints(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 6))])
        if y.is_zero():
            continue
        r = poly_sqrt(y * y)
        assert r is not None and r * r == y * y
    assert poly_sqrt(PolyA.T(F5)) is None
    assert poly_sqrt(parse_poly("T^2+T", F5)) is None
    assert poly_sqrt(PolyA.zero(F5)).is_zero()


# --- field construction ----------------------------------------------------


def test_extension_field_modulus_and_generator():
    F9 = get_field(9)
    assert F9.p == 3 and F9.e == 2
    assert F9.modulus == (1, 0, 1)
    assert len({F9.coords[(F9.gen ** k).code] for k in range(8)}) == 8


def test_even_q_rejected():
    with pytest.raises(ValueError):
        Fq(4)
    with pytest.raises(ValueError):
        Fq(2)
