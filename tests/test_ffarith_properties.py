"""Seeded property tests of the integer-coded field and polynomial core.

Fields: F_3, F_9, F_25, F_27 with their default moduli, and F_9 under the
modulus x^2 + x + 2.  Field operations are checked against schoolbook
arithmetic on coordinate vectors, which does not use the exp/log or Zech
tables.  The closed-form K_inf irreducibility test is checked against the
Laurent expansion it replaced, on F_5 and F_7 as well.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (
    Fq,
    FqElem,
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

FIELDS = [Fq(3), Fq(9), Fq(25), Fq(27), Fq(9, modulus=(2, 1, 1))]
FIELD_IDS = ["3", "9", "25", "27", "9-mod211"]

SEEDED = settings(derandomize=True, max_examples=150, deadline=None)

by_field = pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)


def elements(F):
    return st.integers(0, F.q - 1).map(lambda c: F.elem(F.coords[c]))


def polys(F, max_len=6):
    return st.lists(elements(F), max_size=max_len).map(lambda cs: PolyA(F, cs))


def nonzero_polys(F, max_len=6):
    return polys(F, max_len).filter(lambda f: not f.is_zero())


def ratks(F, max_len=5):
    return st.builds(RatK, polys(F, max_len), nonzero_polys(F, max_len))


def coord_add(F, x, y):
    return tuple((a + b) % F.p for a, b in zip(F.coords[x.code], F.coords[y.code]))


def coord_mul(F, x, y):
    """Schoolbook product of coordinate vectors reduced by the modulus."""
    p, e = F.p, F.e
    prod = [0] * (2 * e - 1)
    for i, a in enumerate(F.coords[x.code]):
        for j, b in enumerate(F.coords[y.code]):
            prod[i + j] += a * b
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        for i in range(e):
            prod[k - e + i] -= c * F.modulus[i]
    return tuple(c % p for c in prod[:e])


@by_field
def test_field_axioms_and_inverses(F):
    @SEEDED
    @given(elements(F), elements(F), elements(F))
    def check(x, y, z):
        assert F.coords[(x + y).code] == coord_add(F, x, y)
        if F.e > 1:
            assert F.coords[(x * y).code] == coord_mul(F, x, y)
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - y == x + (-y) and (x - x).is_zero()
        if not x.is_zero():
            assert x * x.inverse() == F.one
            assert (y * x.inverse()) * x == y

    check()


@by_field
def test_generator_power_of_discrete_log(F):
    @SEEDED
    @given(elements(F))
    def check(x):
        if not x.is_zero():
            assert F.gen ** F.log[x.code] == x

    check()


@by_field
def test_divmod_invariant(F):
    @SEEDED
    @given(polys(F), polys(F))
    def check(a, b):
        if b.is_zero():
            return
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree

    check()


@by_field
def test_parse_inverts_format(F):
    @SEEDED
    @given(polys(F))
    def check(f):
        assert parse_poly(format_poly(f), F) == f

    check()


@by_field
def test_squares_against_exhaustive_squaring(F):
    roots = {}
    for code in range(F.q):
        y = FqElem(F, code)
        roots.setdefault((y * y).code, y)  # the root with the lesser code
    for code in range(1, F.q):
        x = FqElem(F, code)
        assert is_square_fq(x) == (x.code in roots)
        assert sqrt_fq(x) == roots.get(x.code)


def test_sort_key_orders_coordinates_low_digit_first():
    # For q = 9 the coordinate order is not the code order: code 3 is
    # (0, 1) and sorts before code 1, which is (1, 0).
    F = FIELDS[1]
    consts = sorted((PolyA(F, [FqElem(F, x)]) for x in range(F.q)), key=PolyA.sort_key)
    assert [f.coeffs for f in consts] == [
        (), (3,), (6,), (1,), (4,), (7,), (2,), (5,), (8,),
    ]
    assert [format_poly(f) for f in consts] == [
        "0", "a^6", "a^2", "1", "a", "a^3", "a^4", "a^7", "a^5",
    ]
    assert consts[3].sort_key() == ((1, 0),)
    linear = sorted(
        (parse_poly(s, F) for s in ("T+1", "a*T", "T", "a*T+a^2", "T+a^6", "2*T+1")),
        key=PolyA.sort_key,
    )
    assert [format_poly(f) for f in linear] == [
        "T", "a*T", "T+a^6", "a*T+a^2", "T+1", "a^4*T+1",
    ]


@by_field
def test_ratk_canonical_form(F):
    one = PolyA.one(F)

    @SEEDED
    @given(polys(F, 5), nonzero_polys(F, 5), nonzero_polys(F, 4))
    def check(n, d, c):
        x = RatK(n, d)
        assert x.den.coeffs[-1:] == (1,)  # monic
        assert x.num.gcd(x.den) == one
        assert x.num * d == n * x.den
        if n.is_zero():
            assert x.den == one
        assert RatK(n * c, d * c) == x

    check()

    @SEEDED
    @given(elements(F), elements(F).filter(bool), polys(F, 4), elements(F))
    def check_linear(r, lead, m, s):
        # a linear denominator lead*(T - r) divides (T - r)*m + s iff s = 0;
        # m = 0 = s is the zero numerator
        t_minus_r = PolyA(F, [-r, F.one])
        n, d = t_minus_r * m + s, t_minus_r * lead
        x = RatK(n, d)
        assert x.den.coeffs[-1:] == (1,)  # monic
        assert x.num.gcd(x.den) == one
        assert x.num * d == n * x.den
        assert x.den == (one if s.is_zero() else t_minus_r)

    check_linear()


def _expanded_quad_irreducible(b, c, prec):
    """The expansion path the closed form replaced, kept as its reference."""
    disc = b * b - RatK.from_value(b.field, 4) * c
    if disc.is_zero():
        return False
    return not is_square_kinf(laurent_expand(disc, prec))


QUAD_FIELDS = [Fq(3), Fq(5), Fq(7), FIELDS[1], FIELDS[4], FIELDS[2], FIELDS[3]]


@pytest.mark.parametrize(
    "F", QUAD_FIELDS, ids=["3", "5", "7", "9", "9-mod211", "25", "27"]
)
def test_quad_irreducible_matches_the_expansion(F):
    four = RatK.from_value(F, 4)
    quarter = RatK.from_value(F, F.elem(4).inverse())

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(ratks(F), ratks(F), st.booleans(), st.integers(0, 40))
    def check(b, c, double_root, prec):
        if double_root:
            c = b * b * quarter
        if prec < 2 and not (b * b - four * c).is_zero():
            with pytest.raises(PrecisionError):
                quad_irreducible_kinf(b, c, prec)
            with pytest.raises(PrecisionError):
                _expanded_quad_irreducible(b, c, prec)
            return
        expected = _expanded_quad_irreducible(b, c, prec)
        assert quad_irreducible_kinf(b, c, prec) == expected

    check()
