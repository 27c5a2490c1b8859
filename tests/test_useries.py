"""Truncated u-series: arithmetic, support classes, splitting, parsing."""

from __future__ import annotations

import re

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
from drinfeld.useries import USERIES_EXP_MAX
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
    assert USeries.from_terms(F5, {0: 0}, prec=1).support() == ()
    assert USeries.from_terms(F5, {}, prec=7).prec == 7


def test_coeff_rejects_exponents_outside_the_window(F5):
    f = USeries.from_terms(F5, {2: 1}, prec=4)
    assert f.coeff(0).is_zero() and f.coeff(3).is_zero()
    for n in (-1, -2, 4, 5):
        with pytest.raises(IndexError):
            f.coeff(n)


def test_series_type_residue_is_canonical(F5):
    f = USeries.from_terms(F5, {0: 1}, weight=8, type_residue=6)
    assert f.type_residue == 2
    assert USeries.from_terms(F5, {0: 1}).type_residue is None


def test_series_construction_validates(F5):
    with pytest.raises(ValueError, match="at least one coefficient"):
        USeries.from_terms(F5, {}, prec=0)
    with pytest.raises(ValueError, match="exponent 2 outside precision window"):
        USeries.from_terms(F5, {0: 1, 1: 2, 2: 3}, prec=2)
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
    assert rest.support() == ()


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
    assert parse_useries("-u^3+u^3", F5).support() == ()
    assert parse_useries("0", F5).support() == ()
    assert parse_useries("u^9", F5, prec=None).prec == 64
    assert parse_useries("u^80", F5).prec == 81


def test_parse_rejects_malformed_series(F5):
    for bad in ("", "+", "((T)*u", ")", "u^", "u^2+", "w^2"):
        with pytest.raises(ParseError):
            parse_useries(bad, F5)


def test_whitespace_separates_tokens(F5):
    # Whitespace ends a token: deleted first, it would glue "T^2 2*u" into
    # T^22*u and "1 2*u^2" into 12*u^2 (at q = 13).
    for bad, F in (("T^2 2*u", F5), ("1 2*u^2", get_field(13)), ("u^1 0", F5)):
        with pytest.raises(ParseError, match="expected '\\+' or '-' between terms"):
            parse_useries(bad, F)
    # every kind of whitespace, not only the space
    assert parse_useries("u^2\t+u^4", F5) == parse_useries("u^2+u^4", F5)
    assert parse_useries(" 3 * u ^ 4\n- ( T + 1 ) ", F5) == parse_useries("3*u^4-(T+1)", F5)


def test_parse_error_positions_count_from_the_whole_text(F5):
    # counted inside the coefficient alone, this position would read 2
    with pytest.raises(ParseError) as info:
        parse_useries("(T+(1))*u^2", F5)
    assert info.value.pos == 3
    with pytest.raises(ParseError) as info:
        parse_useries("u + 3*u^4097", F5)
    assert info.value.pos == 6


def test_coefficient_forms(F5):
    # a product of factors, or a polynomial in (redundant outer) parentheses
    assert parse_useries("2*T^2*3*u", F5) == parse_useries("(T^2)*u", F5)
    assert parse_useries("((T+1))*u^3", F5) == parse_useries("(T+1)*u^3", F5)
    assert parse_useries("-(T-1)", F5) == parse_useries("1+4*T", F5)
    for bad in ("2*(T+1)*u", "(T+1)*2*u", "((T)+1)*u", "(T)*(T)*u", "(u)", "u*2", "2u", "()"):
        with pytest.raises(ParseError):
            parse_useries(bad, F5)
    # parentheses are counted, not recursed into
    deep = 5000
    f = parse_useries("(" * deep + "T" + ")" * deep + "*u", F5)
    assert f == parse_useries("T*u", F5)
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_useries("(" * deep + "T" + ")" * (deep - 1), F5)


def test_series_repr_formats(F5):
    assert repr(parse_useries("u^2+3*u^4", F5)) == "u^2 + 3*u^4"
    assert repr(parse_useries("(T+1)*u", F5)) == "(T+1)*u"
    assert repr(USeries.from_terms(F5, {0: 0}, prec=1)) == "0"
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


# ------------------------------------------------- against a dense model
#
# A series is stored as its support; the model is the plain list
# a_0 .. a_{prec-1} that the operations are defined on.

MODEL_FIELDS = pytest.mark.parametrize(
    "F", [get_field(5), get_field(9)], ids=["5", "9"]
)
MODEL = settings(derandomize=True, max_examples=60, deadline=None)


def model_coeffs(F):
    polys = st.lists(st.integers(0, F.q - 1), max_size=3).map(
        lambda cs: PolyA(F, [FqElem(F, c) for c in cs])
    )
    dens = polys.filter(lambda d: not d.is_zero())
    return st.builds(RatK, polys, dens)


def model_series(F, max_prec=24):
    """(terms, prec): a term map, zero values included, inside the window."""
    return st.integers(1, max_prec).flatmap(
        lambda prec: st.tuples(
            st.dictionaries(st.integers(0, prec - 1), model_coeffs(F), max_size=8),
            st.just(prec),
        )
    )


def dense(F, terms, prec):
    zero = RatK.from_value(F, 0)
    return [terms.get(n, zero) for n in range(prec)]


def agrees(f, model):
    assert f.prec == len(model)
    assert f.coeffs == tuple(model)
    assert [f.coeff(n) for n in range(f.prec)] == model
    assert f.support() == tuple(n for n, c in enumerate(model) if not c.is_zero())


@MODEL_FIELDS
def test_construction_agrees_with_the_dense_model(F):
    @MODEL
    @given(model_series(F))
    def check(series):
        terms, prec = series
        model = dense(F, terms, prec)
        f = USeries.from_terms(F, terms, prec=prec)
        agrees(f, model)
        # the dense map and descending keys build the same series
        g = USeries.from_terms(F, dict(enumerate(model)), prec=prec)
        h = USeries.from_terms(F, dict(sorted(terms.items(), reverse=True)), prec=prec)
        assert f == g == h
        assert f != USeries.from_terms(F, terms, prec=prec + 1)
        assert list(f.terms) == sorted(f.terms)

    check()


@MODEL_FIELDS
def test_addition_agrees_with_the_dense_model(F):
    @MODEL
    @given(model_series(F), model_series(F))
    def check(left, right):
        f = USeries.from_terms(F, left[0], prec=left[1])
        g = USeries.from_terms(F, right[0], prec=right[1])
        a, b = dense(F, *left), dense(F, *right)
        agrees(f + g, [x + y for x, y in zip(a, b)])
        # cancellation to zero, also against a longer series
        minus_f = USeries.from_terms(
            F, {n: RatK(-c.num, c.den) for n, c in left[0].items()}, prec=60
        )
        total = f + minus_f
        assert total.support() == () and repr(total) == "0"
        assert total == USeries.from_terms(F, {}, prec=f.prec)

    check()


@MODEL_FIELDS
def test_scaling_agrees_with_the_dense_model(F):
    @MODEL
    @given(model_series(F), st.integers(1, F.q - 1))
    def check(series, code):
        alpha = FqElem(F, code)
        inv = alpha.inverse()
        model = [c * inv**n for n, c in enumerate(dense(F, *series))]
        agrees(scale_u(USeries.from_terms(F, series[0], prec=series[1]), alpha), model)

    check()


@MODEL_FIELDS
def test_split_agrees_with_the_dense_model(F):
    q = F.q

    @MODEL
    @given(model_series(F, max_prec=40), st.integers(0, 10))
    def check(series, half_k):
        k = 2 * half_k
        terms = {n: c for n, c in series[0].items() if (2 * n - k) % (q - 1) == 0}
        prec = series[1]
        f = USeries.from_terms(F, terms, weight=k, prec=prec)
        zero = RatK.from_value(F, 0)
        model = dense(F, terms, prec)
        in_first = [n % (q - 1) == half_k % (q - 1) for n in range(prec)]
        f1, f2 = split(f, k, q)
        agrees(f1, [c if first else zero for c, first in zip(model, in_first)])
        agrees(f2, [zero if first else c for c, first in zip(model, in_first)])
        assert f1 + f2 == f

    check()


# ------------------------------------------- against the former series parser
#
# REFERENCE ONLY: the series parser this module had before the series text
# was read by the polynomial grammar.  It deleted the spaces, split the text
# at + and - outside parentheses, stripped redundant outer parentheses from
# each piece, matched c*u^n with a regular expression and read c with
# parse_poly.  On whitespace-free text it accepts the same strings and reads
# the same series as parse_useries.


def _reference_strip_parens(text):
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        ok = True
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    ok = False
                    break
        if not ok:
            break
        text = text[1:-1]
    return text


_REFERENCE_TERM_RE = re.compile(r"(?:(?P<c>.+)\*)?u(?:\^(?P<e>[0-9]+))?$")


def reference_parse_useries(text, field):
    src = text.replace(" ", "")
    if not src:
        raise ParseError("empty series", 0)
    pieces = []  # (sign, chunk)
    depth = 0
    sign = 1
    start = 0
    if src[0] in "+-":
        sign = -1 if src[0] == "-" else 1
        start = 1
    cur = start
    for i in range(start, len(src)):
        ch = src[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", i)
        elif ch in "+-" and depth == 0:
            pieces.append((sign, src[cur:i]))
            sign = -1 if ch == "-" else 1
            cur = i + 1
    if depth != 0:
        raise ParseError("unbalanced parentheses", len(src))
    pieces.append((sign, src[cur:]))
    terms = {}
    for sgn, chunk in pieces:
        if not chunk:
            raise ParseError("empty term", 0)
        m = _REFERENCE_TERM_RE.fullmatch(chunk)
        if m is None:
            coeff = RatK(parse_poly(_reference_strip_parens(chunk), field))
            n = 0
        else:
            ctext = m.group("c")
            if ctext is None:
                coeff = RatK.from_value(field, 1)
            else:
                coeff = RatK(parse_poly(_reference_strip_parens(ctext), field))
            n = int(m.group("e")) if m.group("e") is not None else 1
            if n > USERIES_EXP_MAX:
                raise ParseError("exponent %d exceeds USERIES_EXP_MAX" % n, 0)
        if sgn < 0:
            coeff = RatK(-coeff.num, coeff.den)
        terms[n] = terms[n] + coeff if n in terms else coeff
    return USeries.from_terms(field, terms)


# Strings over u T a ( ) * ^ + - 0-9 with no whitespace, from two sources:
# fragments joined at random, which are mostly malformed, and sums of
# signed terms in the series grammar, where a missing sign between terms
# or the symbol a at prime q still makes some malformed.
_FRAGMENTS = st.lists(
    st.sampled_from(
        list("uTa()*^+-0123456789")
        + ["u^", "*u", "*u^", "T^", "a^", "(T+1)", "((", "))", "2*", "4096", "4097", "00"]
    ),
    max_size=12,
).map("".join)
_PRODUCT = st.lists(
    st.sampled_from(["0", "1", "2", "4", "T", "T^2", "T^0", "a", "a^3"]),
    min_size=1,
    max_size=3,
).map("*".join)


def _signed_sum(term):
    signed = st.tuples(st.sampled_from(["", "+", "-"]), term).map("".join)
    return st.lists(signed, min_size=1, max_size=4).map("".join)


_COEFF = st.one_of(
    _PRODUCT,
    st.tuples(st.integers(1, 3), _signed_sum(_PRODUCT)).map(
        lambda dp: "(" * dp[0] + dp[1] + ")" * dp[0]
    ),
)
_UPART = st.sampled_from(["u", "u^0", "u^2", "u^13", "u^4096", "u^4097"])
_TERMS = _signed_sum(st.one_of(_UPART, _COEFF, st.tuples(_COEFF, _UPART).map("*".join)))
SERIES_TEXT = st.one_of(_FRAGMENTS, _TERMS)


@MODEL_FIELDS
def test_parse_agrees_with_the_former_series_parser(F):
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(SERIES_TEXT)
    def check(text):
        try:
            want = reference_parse_useries(text, F)
        except ParseError:
            with pytest.raises(ParseError):
                parse_useries(text, F)
            return
        got = parse_useries(text, F)
        assert (repr(got), got.prec) == (repr(want), want.prec)

    check()
