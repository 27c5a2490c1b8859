"""Weight and type arithmetic for Drinfeld modular forms.

A form has an integer weight k >= 0 and a type l, a residue mod (q-1);
nonzero spaces satisfy k = 2l (mod q-1).  This module solves that
congruence, lifts the types of a square-determinant subgroup's forms to
the two type pieces of the full group, evaluates the dimension formula for
Gamma_0(T), and checks the valence formula as an integer identity, cleared
of its denominators q + 1, q - 1 and q^2 - 1.
"""

from __future__ import annotations

from collections import namedtuple

from .ffarith import _factor_prime_power


class VanishingProfile(namedtuple("VanishingProfile", "k v_inf v_e v_other")):
    """Vanishing orders of a level-one form: at infinity, at the elliptic
    point, and at the remaining (unweighted) points."""

    __slots__ = ()

    def __new__(cls, k, v_inf=0, v_e=0, v_other=()):
        v_other = tuple(v_other)
        for name, value in (("k", k), ("v_inf", v_inf), ("v_e", v_e)):
            if value < 0:
                raise ValueError("%s must be nonnegative, got %d" % (name, value))
        if min(v_other, default=0) < 0:
            raise ValueError("v_other must be nonnegative, got %s" % (v_other,))
        return super().__new__(cls, k, v_inf, v_e, v_other)


def _units(q):
    """q - 1, the order of F_q^*, once `_factor_prime_power` accepts q."""
    _factor_prime_power(q)
    return q - 1


def type_solutions(k, q):
    """All types l mod (q-1) with 2l = k (mod q-1).

    For odd k there are none (gcd(2, q-1) = 2 does not divide k); for even
    k exactly the pair {k/2, k/2 + (q-1)/2} mod (q-1).
    """
    _units(q)
    return _type_solutions(k, q)


def _type_solutions(k, q):
    """type_solutions for a q already checked."""
    if k % 2 != 0:
        return set()
    half, m = k // 2, q - 1
    return {half % m, (half + m // 2) % m}


def decompose_gamma2(k, l2, q):
    """The ordered pair of types (l1, l2') lifting a square-subgroup type.

    l2 is a residue mod (q-1)/2 compatible with k; the lifts are the two
    solutions of 2l = k (mod q-1), returned as (k/2, k/2 + (q-1)/2) reduced
    mod q-1.  Encodes the graded splitting of the square-determinant
    subgroup's forms into the two type pieces of the full group.
    """
    if k % 2 != 0:
        raise ValueError("no solutions for odd weight")
    m = _units(q)
    half_m = m // 2
    if (l2 - k // 2) % half_m != 0:
        raise ValueError("type %d incompatible with weight %d" % (l2, k))
    l1 = (k // 2) % m
    l2_lift = (l1 + half_m) % m
    return (l1, l2_lift)


def dim_gamma0T(k, l, q):
    """dim of the weight-k type-l forms on Gamma_0(T).

    Equals 1 + (k - 2l)/(q-1) when (q-1) | (k - 2l) and k >= 2l, else 0.
    The type l must be the canonical representative in [0, q-1).
    """
    if not 0 <= l < _units(q):
        raise ValueError("type must be reduced mod q-1")
    return _dim_gamma0T(k, l, q)


def _dim_gamma0T(k, l, q):
    """dim_gamma0T for a q already checked and l in [0, q-1)."""
    if (k - 2 * l) % (q - 1) != 0 or k < 2 * l:
        return 0
    return 1 + (k - 2 * l) // (q - 1)


def valence_check(prof, q):
    """Exact test of the valence formula.

    sum(other orders) + v_e/(q+1) + v_inf/(q-1) = k/(q^2-1), times q^2 - 1:
    sum(other orders)*(q^2-1) + v_e*(q-1) + v_inf*(q+1) = k.
    """
    m = _units(q)
    return sum(prof.v_other) * (q * q - 1) + prof.v_e * m + prof.v_inf * (q + 1) == prof.k
