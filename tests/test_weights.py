"""Weight/type congruences, decompositions, dimensions, valence checks."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (
    VanishingProfile,
    decompose_gamma2,
    dim_gamma0T,
    type_solutions,
    valence_check,
)


def brute_solutions(k, q):
    return {l for l in range(q - 1) if (2 * l - k) % (q - 1) == 0}


def test_type_solutions_known_values():
    assert type_solutions(8, 7) == {4, 1}
    assert type_solutions(3, 5) == set()
    assert type_solutions(0, 5) == {0, 2}


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_type_solutions_matches_brute_force(q):
    for k in range(0, 201):
        assert type_solutions(k, q) == brute_solutions(k, q)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_solutions_differ_by_half_the_modulus(q):
    for k in range(0, 201, 2):
        sols = sorted(type_solutions(k, q))
        assert len(sols) == 2
        assert (sols[1] - sols[0]) % ((q - 1) // 2) == 0
        assert abs(sols[1] - sols[0]) in ((q - 1) // 2, q - 1 - (q - 1) // 2)


def test_decompose_known_values():
    assert decompose_gamma2(4, 0, 5) == (2, 0)
    assert decompose_gamma2(2, 0, 3) == (1, 0)
    with pytest.raises(ValueError):
        decompose_gamma2(3, 0, 5)  # odd weight
    with pytest.raises(ValueError):
        decompose_gamma2(4, 1, 5)  # 1 is not k/2 mod (q-1)/2


@pytest.mark.parametrize("q", [5, 7, 9])
def test_decompose_agrees_with_type_solutions(q):
    for k in range(0, 101, 2):
        l2 = (k // 2) % ((q - 1) // 2)
        pair = decompose_gamma2(k, l2, q)
        assert set(pair) == type_solutions(k, q)
        assert pair[0] == (k // 2) % (q - 1)
        assert pair[1] == (pair[0] + (q - 1) // 2) % (q - 1)


def test_dimension_formula_values():
    assert dim_gamma0T(2, 1, 3) == 1
    assert dim_gamma0T(8, 0, 5) == 3
    assert dim_gamma0T(2, 3, 5) == 0  # k < 2l
    assert dim_gamma0T(5, 0, 5) == 0  # no divisibility
    assert dim_gamma0T(0, 0, 5) == 1
    with pytest.raises(ValueError):
        dim_gamma0T(4, -1, 5)
    with pytest.raises(ValueError):
        dim_gamma0T(4, 4, 5)  # type not reduced


@pytest.mark.parametrize("q", [3, 5, 7])
def test_positive_dimension_implies_type_congruence(q):
    for k in range(0, 80):
        for l in range(q - 1):
            if dim_gamma0T(k, l, q) > 0:
                assert (k - 2 * l) % (q - 1) == 0


def test_valence_known_profiles():
    assert valence_check(VanishingProfile(k=4, v_e=1), 5) is True
    assert valence_check(VanishingProfile(k=6, v_inf=1), 5) is True
    assert valence_check(VanishingProfile(k=0), 5) is True
    assert valence_check(VanishingProfile(k=4, v_inf=1), 5) is False


@pytest.mark.parametrize("q", [3, 5, 7])
def test_valence_is_scale_consistent(q):
    base = VanishingProfile(k=q - 1, v_e=1)
    assert valence_check(base, q)
    for m in (2, 3, 5):
        scaled = VanishingProfile(k=m * (q - 1), v_e=m)
        assert valence_check(scaled, q) is True
    other = VanishingProfile(k=q * q - 1, v_inf=q - 1)
    assert valence_check(other, q) is True
    scaled = VanishingProfile(k=2 * (q * q - 1), v_inf=2 * (q - 1))
    assert valence_check(scaled, q) is True


def test_valence_uses_exact_rationals():
    # orders at plain points count once; elliptic/infinity get 1/(q+1), 1/(q-1)
    assert valence_check(VanishingProfile(k=8, v_e=2), 5) is True
    assert valence_check(VanishingProfile(k=24, v_other=(1,)), 5) is True
    assert valence_check(VanishingProfile(k=28, v_other=(1,), v_e=1), 5) is True
    assert valence_check(VanishingProfile(k=28, v_other=(1,), v_inf=1), 5) is False


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 9, 13, 25, 27, 2187]),
    st.integers(0, 60),
    st.integers(0, 60),
    st.lists(st.integers(0, 4), max_size=3),
    st.integers(-2, 2),
)
def test_valence_matches_the_fraction_identity(q, v_inf, v_e, v_other, shift):
    # sum(other orders) + v_e/(q+1) + v_inf/(q-1) = k/(q^2-1); k on the identity when shift is 0
    lhs = Fraction(sum(v_other)) + Fraction(v_e, q + 1) + Fraction(v_inf, q - 1)
    k = max(0, int(lhs * (q * q - 1)) + shift)
    prof = VanishingProfile(k=k, v_inf=v_inf, v_e=v_e, v_other=v_other)
    assert valence_check(prof, q) is (lhs == Fraction(k, q * q - 1))


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("k", {"k": -24}),
        ("v_inf", {"k": 0, "v_inf": -2, "v_e": 3}),
        ("v_e", {"k": 4, "v_e": -1}),
        ("v_other", {"k": 24, "v_other": (2, -1)}),
    ],
)
def test_vanishing_orders_are_nonnegative(field, kwargs):
    # a pole is not a vanishing order: (0, -2, 3) would satisfy the formula
    with pytest.raises(ValueError, match=field):
        VanishingProfile(**kwargs)


@pytest.mark.parametrize("q", [-1, 0, 1, 2, 4, 8])
@pytest.mark.parametrize(
    "call",
    [
        lambda q: type_solutions(4, q),
        lambda q: decompose_gamma2(4, 0, q),
        lambda q: dim_gamma0T(4, 0, q),
        lambda q: valence_check(VanishingProfile(2), q),
    ],
    ids=["type_solutions", "decompose_gamma2", "dim_gamma0T", "valence_check"],
)
def test_weight_functions_refuse_q_that_is_not_an_odd_prime_power(call, q):
    # q = 1 and q = 2 once divided by q - 1 = 0 or (q - 1) // 2 = 0
    with pytest.raises(ValueError, match="q must be an odd prime power"):
        call(q)


@pytest.mark.parametrize("q", [15, 21, 4])
@pytest.mark.parametrize(
    "call",
    [
        lambda q: type_solutions(4, q),
        lambda q: decompose_gamma2(4, 2, q),
        lambda q: dim_gamma0T(4, 2, q),
        lambda q: valence_check(VanishingProfile(2), q),
    ],
    ids=["type_solutions", "decompose_gamma2", "dim_gamma0T", "valence_check"],
)
def test_weight_functions_refuse_composite_q_that_is_not_an_odd_prime_power(call, q):
    # the q check is ffarith's: odd q = 15 and 21 once passed it, and
    # type_solutions(4, 15) was {9, 2}
    with pytest.raises(ValueError):
        call(q)
