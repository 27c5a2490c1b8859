"""Congruence subgroup descriptors, membership, indices, and cosets."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (
    Fq,
    FqElem,
    GroupSpec,
    Mat2,
    ParseError,
    PolyA,
    coset_rep_nonsquare,
    det_image_order,
    gamma2_of,
    is_square_fq,
    member,
    parse_group,
    parse_poly,
    quotient_order,
)
from conftest import SEED, get_field, is_square_mod, sample_unit_matrices


def mat(field, a, b, c, d):
    return Mat2(
        parse_poly(a, field),
        parse_poly(b, field),
        parse_poly(c, field),
        parse_poly(d, field),
    )


# --- matrices ---------------------------------------------------------------


def test_matrix_requires_constant_unit_determinant():
    F5 = get_field(5)
    with pytest.raises(ValueError):
        mat(F5, "T", "0", "0", "T")  # det T^2
    with pytest.raises(ValueError):
        mat(F5, "1", "1", "1", "1")  # det 0


def test_matrix_inverse_and_product():
    F7 = get_field(7)
    g = mat(F7, "4*T+4", "1", "5*T+2", "3")
    assert g.det == F7.elem(3)
    identity = mat(F7, "1", "0", "0", "1")
    assert (g * g.inverse()).entries() == identity.entries()
    assert (g.inverse() * g).entries() == identity.entries()


# --- membership -------------------------------------------------------------


def test_membership_congruence_shapes():
    F7 = get_field(7)
    N = parse_poly("4*T+3", F7)
    g = mat(F7, "4*T+4", "1", "5*T+2", "3")
    assert member(g, GroupSpec("gamma1", N)) is True
    assert member(g, GroupSpec("gamma1", N, det_index=2)) is False  # det 3 non-square
    assert member(g, GroupSpec("gamma0", N)) is True
    assert member(g, GroupSpec("gammaN", N)) is False
    assert member(g, GroupSpec("full", None)) is True
    for family, level in (("full", None), ("gamma0", N), ("gamma1", N), ("gammaN", N)):
        assert member(mat(F7, "1", "0", "0", "1"), GroupSpec(family, level)) is True


def test_membership_distinguishes_families():
    F5 = get_field(5)
    t = PolyA.T(F5)
    g_upper = mat(F5, "1", "3", "0", "2")  # c = 0, a = 1, det 2
    assert member(g_upper, GroupSpec("gamma0", t)) is True
    assert member(g_upper, GroupSpec("gamma1", t)) is True
    assert member(g_upper, GroupSpec("gammaN", t)) is False  # d = 2 not 1
    g_lower = mat(F5, "2", "0", "T", "3")  # c = T = 0 mod T but a = 2
    assert member(g_lower, GroupSpec("gamma0", t)) is True
    assert member(g_lower, GroupSpec("gamma1", t)) is False


def test_group_spec_validation():
    F5 = get_field(5)
    with pytest.raises(ValueError):
        GroupSpec("gamma0", None)  # level required
    with pytest.raises(ValueError):
        GroupSpec("full", PolyA.T(F5))  # no level allowed
    with pytest.raises(ValueError):
        GroupSpec("gamma0", PolyA.const(F5, F5.elem(2)))  # constant level
    with pytest.raises(ValueError):
        GroupSpec("bogus", PolyA.T(F5))


# --- determinant images and indices ----------------------------------------


def test_det_image_orders():
    F7 = get_field(7)
    t = PolyA.T(F7)
    assert det_image_order(GroupSpec("gamma0", t), F7) == 6
    assert det_image_order(GroupSpec("gamma0", t, det_index=2), F7) == 3
    assert det_image_order(GroupSpec("gamma0", t, det_index=6), F7) == 1
    assert det_image_order(GroupSpec("full", None), F7) == 6
    assert det_image_order(GroupSpec("gamma1", t), F7) == 6
    assert det_image_order(GroupSpec("gammaN", t), F7) == 1


def test_gamma2_of_restricts_determinants():
    F5 = get_field(5)
    t = PolyA.T(F5)
    G2 = gamma2_of(GroupSpec("gamma0", t))
    assert G2.det_index == 2
    assert det_image_order(G2, F5) == 2


def test_det_allowed_rejects_zero():
    F9 = get_field(9)
    for idx in (1, 2, 4):
        G = GroupSpec("full", None, det_index=idx)
        assert not G.det_allowed(F9.zero)
        units = [FqElem(F9, x) for x in range(1, 9)]
        assert [G.det_allowed(x) for x in units].count(True) == 8 // idx


def test_coset_representative():
    F7 = get_field(7)
    rep = coset_rep_nonsquare(F7)
    assert rep.entries() == Mat2.diagonal(F7, F7.elem(3), F7.elem(1)).entries()
    assert is_square_fq((rep * rep).det)
    F5 = get_field(5)
    rep5 = coset_rep_nonsquare(F5)
    assert rep5.entries() == Mat2.diagonal(F5, F5.elem(2), F5.elem(1)).entries()


def test_quotient_orders():
    F7 = get_field(7)
    t = PolyA.T(F7)
    for family, level in (("full", None), ("gamma0", t), ("gamma1", t)):
        H = GroupSpec(family, level)
        assert quotient_order(H, gamma2_of(H), F7) == 2
    G = GroupSpec("gamma0", t)
    assert quotient_order(G, G, F7) == 1
    assert quotient_order(G, GroupSpec("gamma0", t, det_index=6), F7) == 6
    with pytest.raises(ValueError):
        quotient_order(gamma2_of(G), G, F7)  # containment reversed
    with pytest.raises(ValueError):
        quotient_order(G, GroupSpec("gamma1", t), F7)  # family mismatch
    with pytest.raises(ValueError):
        quotient_order(G, GroupSpec("gamma0", parse_poly("T+1", F7)), F7)


# --- descriptor parsing ------------------------------------------------------


def test_parse_group_descriptors():
    F7 = get_field(7)
    G = parse_group("gamma1:4*T+3", F7)
    assert G.family == "gamma1" and G.det_index == 1
    assert G.level == parse_poly("4*T+3", F7)
    assert parse_group("full", F7).family == "full"
    assert parse_group("gamma0:T!sq", F7).det_index == 2
    assert parse_group("gamma0:T!one", F7).det_index == 6
    assert parse_group("gamma0:T!idx3", F7).det_index == 3
    assert parse_group("gamma0", F7, "T").level == PolyA.T(F7)
    assert str(parse_group("gamma1:4*T+3!sq", F7)) == "gamma1:4*T+3!sq"


def test_parse_group_errors():
    F7 = get_field(7)
    for bad in ("bogus", "gamma0", "gamma0:1", "gamma0:T!wat", "full:T", "gamma0:T!idx5"):
        with pytest.raises((ParseError, ValueError)):
            parse_group(bad, F7)


@pytest.mark.parametrize(
    "F",
    [Fq(3), Fq(7), Fq(9), Fq(9, modulus=(2, 1, 1)), Fq(25), Fq(27)],
    ids=["3", "7", "9", "9-mod211", "25", "27"],
)
def test_parse_group_inverts_str(F):
    indices = st.sampled_from([m for m in range(1, F.q) if (F.q - 1) % m == 0])
    codes = st.lists(st.integers(0, F.q - 1), min_size=2, max_size=4)
    levels = codes.map(lambda cs: PolyA(F, [FqElem(F, c) for c in cs]))
    families = st.sampled_from(["gammaN", "gamma1", "gamma0"])
    specs = st.one_of(
        st.builds(GroupSpec, st.just("full"), st.none(), indices),
        st.builds(GroupSpec, families, levels.filter(lambda f: f.degree >= 1), indices),
    )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(specs)
    def check(G):
        parsed = parse_group(str(G), F)
        assert str(parsed) == str(G)
        assert parsed == G

    check()


# --- sampled group laws ------------------------------------------------------


# q = 9 draws degree-1 entries: at degree 2 a unit determinant is too rare
_SAMPLED_FIELDS = pytest.mark.parametrize(
    "q, modulus, deg", [(5, None, 2), (9, (1, 0, 1), 1), (9, (2, 1, 1), 1)]
)


@_SAMPLED_FIELDS
@pytest.mark.parametrize("family", ["full", "gamma0"])
def test_square_determinant_subgroup_is_normal(family, q, modulus, deg):
    rng = random.Random(SEED)
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    c_times_t = family == "gamma0"
    level = PolyA.T(F) if c_times_t else None
    G = GroupSpec(family, level)
    G2 = gamma2_of(G)
    gammas = sample_unit_matrices(rng, F, 200, deg=deg, c_times_t=c_times_t)
    deltas = sample_unit_matrices(
        rng, F, 200, deg=deg, c_times_t=c_times_t,
        det_pred=lambda x: is_square_fq(FqElem(F, x)),
    )
    for g, d in zip(gammas, deltas):
        assert member(g, G)
        assert member(d, G2)
        assert member(g * d * g.inverse(), G2)


@_SAMPLED_FIELDS
@pytest.mark.parametrize("family", ["full", "gamma0"])
def test_membership_closed_under_product_and_inverse(family, q, modulus, deg):
    rng = random.Random(SEED + 1)
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    c_times_t = family == "gamma0"
    level = PolyA.T(F) if c_times_t else None
    G = GroupSpec(family, level)
    ms = sample_unit_matrices(rng, F, 100, deg=deg, c_times_t=c_times_t)
    for g, h in zip(ms[::2], ms[1::2]):
        assert member(g * h, G)
        assert member(g.inverse(), G)
        assert (g * h).det == g.det * h.det


def test_nonsquare_coset_translates_into_square_subgroup():
    rng = random.Random(SEED + 2)
    F5 = get_field(5)
    G2 = gamma2_of(GroupSpec("full", None))
    rep_inv = coset_rep_nonsquare(F5).inverse()
    outside = sample_unit_matrices(
        rng, F5, 200, deg=2, det_pred=lambda x: not is_square_mod(x, 5)
    )
    for g in outside:
        assert not member(g, G2)
        assert member(rep_inv * g, G2)
