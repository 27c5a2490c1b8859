"""Seeded property tests of the int-coded residue ring A/N behind `cusps`,
and of the trace rule behind `elliptic_search`.

Fields: F_3, F_5, F_7, F_9 under the moduli x^2 + 1 and x^2 + x + 2, F_25
and F_27.  Levels have degree 1 or 2 within the residue-space bound
q^(2 deg N) <= ELLIPTIC_BOX_LIMIT and any nonzero leading coefficient.  The
code tables are checked against the same arithmetic on PolyA: one orbit
step, every entry of a multiplication table, the root-mask rule for
primitive pairs and units (against gcds with N), the code order (against
`PolyA.sort_key`), and code -> PolyA -> code against the identity.  The
witness search allows every determinant for a nonconstant trace; that
tr^2 - 4*delta is then a nonzero non-square is checked with `poly_sqrt`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import Fq, FqElem, PolyA
from drinfeld.curveinv import ELLIPTIC_BOX_LIMIT, _Residues
from conftest import poly_sqrt

FIELDS = [Fq(3), Fq(5), Fq(7), Fq(9, modulus=(1, 0, 1)), Fq(9, modulus=(2, 1, 1)),
          Fq(25), Fq(27)]

SEEDED = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def levels(draw):
    F = draw(st.sampled_from(FIELDS))
    degree = draw(st.sampled_from([d for d in (1, 2) if F.q ** (2 * d) <= ELLIPTIC_BOX_LIMIT]))
    codes = draw(st.lists(st.integers(0, F.q - 1), min_size=degree, max_size=degree))
    codes.append(draw(st.integers(1, F.q - 1)))
    return PolyA(F, [FqElem(F, c) for c in codes])


def _code(res, f):
    """The code of a reduced residue f, from its coefficients."""
    return sum(c * p for c, p in zip(f.coeffs, res.place))


@SEEDED
@given(levels(), st.data())
def test_a_table_step_is_the_step_on_polynomials(N, data):
    res = _Residues(N)
    R = len(res.order)
    assert R == N.field.q ** N.degree
    a, b, c, d, u, v = (data.draw(st.integers(0, R - 1)) for _ in range(6))
    ma, mb, mc, md = (res.mul_table(m) for m in (a, b, c, d))
    x = res.add[ma[u]][mb[v]]
    y = res.add[mc[u]][md[v]]
    A, B, C, D, U, V = (res.poly(r) for r in (a, b, c, d, u, v))
    assert (res.poly(x), res.poly(y)) == ((A * U + B * V) % N, (C * U + D * V) % N)


@SEEDED
@given(levels())
def test_codes_and_residues_round_trip(N):
    res = _Residues(N)
    R = len(res.order)
    assert [_code(res, res.poly(r)) for r in range(R)] == list(range(R))
    assert all(res.poly(r).degree < N.degree for r in range(R))


@SEEDED
@given(levels(), st.data())
def test_a_multiplication_table_is_multiplication_mod_the_level(N, data):
    res = _Residues(N)
    R = len(res.order)
    m = data.draw(st.integers(0, R - 1))
    M = res.poly(m)
    assert res.mul_table(m) == [_code(res, M * res.poly(r) % N) for r in range(R)]


@SEEDED
@given(levels())
def test_the_root_masks_decide_units_and_primitive_pairs(N):
    res = _Residues(N)
    one = PolyA.one(N.field)
    polys = [res.poly(r) for r in range(len(res.order))]
    units = [f.gcd(N) == one for f in polys]
    assert units == [not mask for mask in res.mask]
    # a pair with a unit in it is primitive under both rules, so the pairs
    # of non-units decide the rest
    others = [r for r, unit in enumerate(units) if not unit]
    for u in others:
        for v in others:
            primitive = polys[u].gcd(polys[v]).gcd(N) == one
            assert primitive == (not res.mask[u] & res.mask[v])


@SEEDED
@given(levels())
def test_the_code_order_is_the_sort_key_order(N):
    res = _Residues(N)
    R = len(res.order)
    assert res.order == sorted(range(R), key=lambda r: res.poly(r).sort_key())


@SEEDED
@given(st.sampled_from(FIELDS), st.data())
def test_a_nonconstant_trace_never_gives_a_square_discriminant(F, data):
    degree = data.draw(st.integers(1, 3))
    codes = data.draw(st.lists(st.integers(0, F.q - 1), min_size=degree, max_size=degree))
    codes.append(data.draw(st.integers(1, F.q - 1)))
    tr = PolyA(F, [FqElem(F, c) for c in codes])
    delta = PolyA(F, [FqElem(F, data.draw(st.integers(1, F.q - 1)))])
    disc = tr * tr - delta * 4
    assert not disc.is_zero()
    assert poly_sqrt(disc) is None
