"""Truncated u-series: arithmetic, support classes, splitting, parsing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (
    Fq,
    FqElem,
    ParseError,
    PolyA,
    RatK,
    SupportError,
    USeries,
    check_support,
    parse_poly,
    parse_useries,
    scale_u,
    split,
)
from conftest import get_field


@pytest.fixture
def F5():
    return get_field(5)


# ------------------------------------------------------------ construction


def test_series_construction_and_accessors(F5):
    f = USeries.from_terms(F5, {2: 1, 4: 3})
    assert f.prec == 64
    assert f.support() == (2, 4)
    assert f.coeff(2) == RatK.from_value(F5, 1)
    assert f.coeff(3).is_zero()
    assert not f.is_zero()
    assert USeries(F5, [0]).is_zero()
    assert USeries(F5, [], prec=7).prec == 7


def test_series_type_residue_is_canonical(F5):
    f = USeries(F5, [1], weight=8, type_residue=6)
    assert f.type_residue == 2
    assert USeries(F5, [1]).type_residue is None


def test_series_construction_validates(F5):
    with pytest.raises(ValueError):
        USeries(F5, [])
    with pytest.raises(ValueError):
        USeries(F5, [1, 2, 3], prec=2)
    with pytest.raises(ValueError):
        USeries.from_terms(F5, {70: 1}, prec=64)
    with pytest.raises(ValueError):
        USeries.from_terms(F5, {-1: 1})


# --------------------------------------------------------------- arithmetic


def test_addition_needs_matching_weights_and_tracks_types(F5):
    f = USeries.from_terms(F5, {1: 1}, weight=4, type_residue=2)
    g = USeries.from_terms(F5, {2: 3}, weight=4, type_residue=2)
    h = USeries.from_terms(F5, {3: 1}, weight=4, type_residue=0)
    assert (f + g).type_residue == 2
    assert (f + h).type_residue is None
    with pytest.raises(ValueError):
        f + USeries.from_terms(F5, {1: 1}, weight=6)


def test_addition_truncates_to_the_shared_precision(F5):
    f = USeries.from_terms(F5, {1: 1}, prec=10)
    g = USeries.from_terms(F5, {1: 2}, prec=6)
    assert (f + g).prec == 6


# ---------------------------------------------------------------- scaling


def test_scaling_multiplies_coefficient_n_by_inverse_alpha_to_n(F5):
    f = parse_useries("1+u+u^2+u^3", F5, prec=8)
    g = scale_u(f, 2)
    inv = F5.elem(2).inverse()
    power = F5.elem(1)
    for n in range(4):
        expected = RatK(PolyA(F5, [power]))
        assert g.coeff(n) == expected
        power = power * inv
    assert scale_u(f, 1) == f
    with pytest.raises(ValueError):
        scale_u(f, 0)


def test_scaling_composes_and_commutes_with_addition(F5):
    f = parse_useries("1+2*u+u^3", F5, prec=10)
    g = parse_useries("3+u^2", F5, prec=10)
    two_then_three = scale_u(scale_u(f, 2), 3)
    assert two_then_three == scale_u(f, F5.elem(2) * F5.elem(3))
    assert scale_u(f + g, 4) == scale_u(f, 4) + scale_u(g, 4)


# ------------------------------------------------------- support and split


def test_check_support_detects_the_weight_classes(F5):
    f = parse_useries("u^2+3*u^4", F5)
    assert check_support(f, 4, 5) is True
    assert check_support(f, 6, 5) is False
    with pytest.raises(ValueError):
        check_support(f, 3, 5)
    with pytest.raises(ValueError):
        check_support(f, 4, 7)


def test_split_sorts_support_into_the_two_type_classes(F5):
    f = parse_useries("u^2+3*u^4", F5, weight=4)
    f1, f2 = split(f, 4, 5)
    assert f1.support() == (2,)
    assert f2.support() == (4,)
    assert (f1.type_residue, f2.type_residue) == (2, 0)
    assert (f1.weight, f2.weight) == (4, 4)
    assert f1 + f2 == f
    # splitting a pure piece returns it unchanged plus zero
    again, rest = split(f1, 4, 5)
    assert again == f1
    assert rest.is_zero()


def test_split_raises_at_the_first_unsupported_exponent(F5):
    f = parse_useries("u^2+u^3", F5)
    with pytest.raises(SupportError) as info:
        split(f, 4, 5)
    assert info.value.exponent == 3
    assert isinstance(info.value, ValueError)


def test_split_validates_weight_parity_and_type_compatibility(F5):
    f = parse_useries("u^2", F5)
    with pytest.raises(ValueError):
        split(f, 3, 5)
    with pytest.raises(ValueError):
        split(f, 4, 7)
    typed = USeries.from_terms(F5, {2: 1}, weight=4, type_residue=1)
    with pytest.raises(ValueError):
        split(typed, 4, 5)


def test_split_commutes_with_scaling(F5):
    f = parse_useries("u^2+3*u^4+2*u^6", F5, weight=4)
    for alpha in (1, 2, 3, 4):
        left = split(scale_u(f, alpha), 4, 5)
        right = tuple(scale_u(part, alpha) for part in split(f, 4, 5))
        assert left == right


# ------------------------------------------------------------------ parsing


def test_parse_round_trips_repr(F5):
    for text in ("u^2+3*u^4", "(T+1)*u+2", "3+u", "0"):
        f = parse_useries(text, F5)
        assert parse_useries(repr(f), F5) == f


def test_parse_known_series(F5):
    f = parse_useries(" (T+1)*u - 2 ", F5)
    assert f.coeff(0) == RatK.from_value(F5, -2)
    assert f.coeff(1) == RatK(parse_poly("T+1", F5))
    assert parse_useries("u", F5).support() == (1,)
    assert parse_useries("-u^3+u^3", F5).is_zero()
    assert parse_useries("0", F5).is_zero()
    assert parse_useries("u^9", F5, prec=None).prec == 64
    assert parse_useries("u^80", F5).prec == 81


def test_parse_rejects_malformed_series(F5):
    for bad in ("", "+", "((T)*u", ")", "u^", "u^2+", "w^2"):
        with pytest.raises(ParseError):
            parse_useries(bad, F5)


def test_series_repr_formats(F5):
    assert repr(parse_useries("u^2+3*u^4", F5)) == "u^2 + 3*u^4"
    assert repr(parse_useries("(T+1)*u", F5)) == "(T+1)*u"
    assert repr(USeries(F5, [0])) == "0"
    assert repr(parse_useries("u-2", F5)) == "3 + u"


@pytest.mark.parametrize(
    "F", [Fq(3), Fq(7), Fq(9), Fq(9, modulus=(2, 1, 1)), Fq(27)],
    ids=["3", "7", "9", "9-mod211", "27"],
)
def test_parse_useries_inverts_repr(F):
    coeffs = st.lists(st.integers(0, F.q - 1), max_size=4).map(
        lambda cs: RatK(PolyA(F, [FqElem(F, c) for c in cs]))
    )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.dictionaries(st.integers(0, 80), coeffs, max_size=6))
    def check(terms):
        f = USeries.from_terms(F, terms)
        g = parse_useries(repr(f), F)
        assert g.support() == f.support()
        assert all(g.coeff(n) == f.coeff(n) for n in f.support())

    check()
