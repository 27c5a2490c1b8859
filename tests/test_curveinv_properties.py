"""Seeded property tests of the int-coded residue ring A/N behind `cusps`,
and of the trace rule behind `elliptic_search`.

Fields: F_3, F_5, F_7, F_9 under the moduli x^2 + 1 and x^2 + x + 2, F_25
and F_27.  Levels have degree 1 or 2 within the residue-space bound
q^(2 deg N) <= ELLIPTIC_BOX_LIMIT and any nonzero leading coefficient.  One
orbit step read from the code tables is checked against the same step
computed on PolyA, and code -> PolyA -> code against the identity.  The
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


@SEEDED
@given(levels(), st.data())
def test_a_table_step_is_the_step_on_polynomials(N, data):
    res = _Residues(N)
    R = len(res.polys)
    assert R == N.field.q ** N.degree
    a, b, c, d, u, v = (data.draw(st.integers(0, R - 1)) for _ in range(6))
    ma, mb, mc, md = (res.mul_table(res.polys[m]) for m in (a, b, c, d))
    add = res.add_table()
    x = add[ma[u]][mb[v]]
    y = add[mc[u]][md[v]]
    A, B, C, D, U, V = (res.polys[r] for r in (a, b, c, d, u, v))
    assert (res.polys[x], res.polys[y]) == ((A * U + B * V) % N, (C * U + D * V) % N)


@SEEDED
@given(levels())
def test_codes_and_residues_round_trip(N):
    res = _Residues(N)
    assert [res.code(f) for f in res.polys] == list(range(len(res.polys)))
    assert all(f.degree < N.degree for f in res.polys)


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
