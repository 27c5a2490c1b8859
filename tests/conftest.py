"""Shared fixtures: a fixed seed, a field cache, and fast matrix samplers.

Matrix sampling works on lists of field codes with the field's table
kernels, so the unit-determinant rejection loop avoids object construction
until a candidate passes; entries have degree <= deg, and a multiple-of-T
lower left corner or a determinant predicate can be requested.
"""

from __future__ import annotations

import random

import pytest

from drinfeld import Fq, FqElem, Mat2, PolyA, sqrt_fq

SEED = 20250814

_FIELDS = {}


def get_field(q):
    if q not in _FIELDS:
        _FIELDS[q] = Fq(q)
    return _FIELDS[q]


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def field_cache():
    return get_field


def _code_mul(f, g, field):
    add, mul = field.add, field.mul
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def is_square_mod(x, p):
    return pow(x, (p - 1) // 2, p) == 1


def poly_sqrt(poly):
    """The exact square root of a polynomial in A, or None.

    The tests' general square test in A: the witness search decides the
    squares it needs in closed form, and this is its independent check.
    The root is matched coefficient by coefficient from the top.
    """
    field = poly.field
    if poly.is_zero():
        return poly
    deg = poly.degree
    if deg % 2 != 0:
        return None
    top = sqrt_fq(poly.leading_coeff())
    if top is None:
        return None
    sub, mul = field.sub, field.mul
    half = deg // 2
    r = [0] * (half + 1)
    r[half] = top.code
    inv = field.inv(field.add(top.code, top.code))
    for j in range(half - 1, -1, -1):
        acc = poly.coeffs[half + j]
        for i in range(j + 1, half):
            acc = sub(acc, mul(r[i], r[half + j - i]))
        r[j] = mul(acc, inv)
    cand = PolyA(field, [FqElem(field, x) for x in r])
    return cand if cand * cand == poly else None


def sample_unit_matrices(rng, field, count, deg=2, det_pred=None, c_times_t=False):
    """Random members of GL_2(A) with entries of degree <= deg.

    Rejection sampling on the determinant being a nonzero constant, with an
    optional predicate on its code (the value itself for prime q) and an
    optional constraint that the lower-left entry be a multiple of T.
    """
    q = field.q
    out = []
    while len(out) < count:
        a = [rng.randrange(q) for _ in range(deg + 1)]
        b = [rng.randrange(q) for _ in range(deg + 1)]
        d = [rng.randrange(q) for _ in range(deg + 1)]
        if c_times_t:
            c = [0] + [rng.randrange(q) for _ in range(deg)]
        else:
            c = [rng.randrange(q) for _ in range(deg + 1)]
        if field.mul(a[-1], d[-1]) != field.mul(b[-1], c[-1]):
            continue  # ad - bc has a nonzero T^(2 deg) coefficient
        det = list(map(field.sub, _code_mul(a, d, field), _code_mul(b, c, field)))
        if det[0] == 0 or any(det[1:]):
            continue
        if det_pred is not None and not det_pred(det[0]):
            continue
        entries = [PolyA(field, [FqElem(field, x) for x in e]) for e in (a, b, c, d)]
        out.append(Mat2(*entries))
    return out


@pytest.fixture(scope="session")
def matrix_sampler():
    return sample_unit_matrices
