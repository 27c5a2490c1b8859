"""Cusp orbits, elliptic witness search, parity, and preset curve invariants."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from drinfeld import (
    CuspSet,
    EllipticWitness,
    Fq,
    FqElem,
    GroupSpec,
    Mat2,
    Parity,
    PolyA,
    RatK,
    WorkBoundError,
    assemble_invariants,
    cusps,
    elliptic_search,
    is_square_fq,
    is_square_kinf,
    laurent_expand,
    member,
    parity,
    parse_group,
    parse_poly,
)
from drinfeld.curveinv import ELLIPTIC_BOX_LIMIT
from conftest import get_field, poly_sqrt


def T_of(q):
    return PolyA.T(get_field(q))


# ------------------------------------------------------ primitive vectors


def _primitive_count(q, n, factor_degrees):
    """|N|^2 prod_{P | N} (1 - |P|^-2) with |N| = q^deg N: the pairs (u, v)
    of residues mod N that no prime P of N divides both of."""
    count = Fraction(q ** (2 * n))
    for d in factor_degrees:
        count *= 1 - Fraction(1, q ** (2 * d))
    return int(count)


# (q, modulus, level, degrees of the distinct prime factors of the level)
_PRIMITIVE_COUNT_LEVELS = [
    (3, None, "T", [1]),
    (5, None, "T", [1]),
    (7, None, "T", [1]),
    (3, None, "T^2", [1]),
    (3, None, "T^2+2*T", [1, 1]),
    (3, None, "T^2+1", [2]),
    (5, None, "T^2+3*T+2", [1, 1]),
    (5, None, "T^2+2", [2]),
    (9, (1, 0, 1), "T+1", [1]),
]


def test_the_closed_form_at_small_levels():
    assert [_primitive_count(q, 1, [1]) for q in (3, 5, 7)] == [8, 24, 48]
    assert _primitive_count(3, 2, [1]) == 72  # T^2
    assert _primitive_count(3, 2, [1, 1]) == 64  # T(T+2)


@pytest.mark.parametrize("q, modulus, level, factor_degrees", _PRIMITIVE_COUNT_LEVELS)
def test_cusp_orbits_partition_the_primitive_vectors(q, modulus, level, factor_degrees):
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    N = parse_poly(level, F)
    groups = [GroupSpec(family, N) for family in ("gammaN", "gamma1", "gamma0")]
    if N == PolyA.T(F):
        groups.append(GroupSpec("full", None))  # the full group runs at the level T
    for G in groups:
        cs = cusps(G, F)
        assert sum(cs.sizes) == cs.total == _primitive_count(q, N.degree, factor_degrees)


# ----------------------------------------------------------------- cusps


def test_cusp_orbits_of_gamma0_level_T_q5():
    F = get_field(5)
    cs = cusps(GroupSpec("gamma0", PolyA.T(F)), F)
    zero, one = PolyA.zero(F), PolyA.one(F)
    assert cs.reps == ((zero, one), (one, zero))
    assert cs.sizes == (20, 4)
    assert cs.total == 24
    assert cs.count == 2


@pytest.mark.parametrize("q", [3, 5, 7])
def test_full_group_has_one_cusp(q):
    cs = cusps(GroupSpec("full", None), get_field(q))
    assert cs.count == 1
    assert cs.sizes == (q * q - 1,)
    assert cs.total == q * q - 1


@pytest.mark.parametrize("q", [3, 5, 7])
def test_identity_congruence_group_has_q_plus_one_cusps(q):
    cs = cusps(GroupSpec("gammaN", T_of(q)), get_field(q))
    assert cs.count == q + 1
    assert all(size == q - 1 for size in cs.sizes)
    assert cs.total == q * q - 1


@pytest.mark.parametrize("family", ["full", "gamma0", "gamma1"])
def test_restricting_determinants_refines_cusps(family):
    F = get_field(5)
    level = None if family == "full" else PolyA.T(F)
    base = cusps(GroupSpec(family, level), F)
    refined = cusps(GroupSpec(family, level, 2), F)
    assert refined.count >= base.count
    assert refined.total == base.total


def test_cusps_enforce_the_level_degree_bound():
    F = get_field(3)
    t = PolyA.T(F)
    with pytest.raises(WorkBoundError, match="CUSP_LEVEL_DEG_LIMIT = 2: the level has degree 3"):
        cusps(GroupSpec("gamma0", t * t * t), F)


def _reference_polys(field, deg_bound):
    elems = [FqElem(field, x) for x in range(field.q)]
    return [PolyA(field, list(c)) for c in itertools.product(elems, repeat=deg_bound + 1)]


def _reference_generators(G, N):
    """An inverse-closed generating set of <image of G mod N, scalars>:
    every scalar, every elementary matrix, every unit of the torus and
    every allowed determinant."""
    field = N.field
    zero, one = PolyA.zero(field), PolyA.one(field)
    res = _reference_polys(field, N.degree - 1)
    nonzero = [r for r in res if not r.is_zero()]
    scalars = [PolyA.const(field, FqElem(field, x)) for x in range(1, field.q)]
    gens = [(x, zero, zero, x) for x in scalars]
    if G.family == "gammaN":
        return gens
    deltas = [PolyA.const(field, x) for x in G.det_values(field)]
    gens += [(one, x, zero, one) for x in nonzero]
    if G.family == "gamma1":
        return gens + [(one, zero, zero, delta) for delta in deltas]
    for r in res:
        # the inverse of r mod N, found by trying every residue
        inverse = next((s for s in res if (r * s) % N == one), None)
        if inverse is not None:
            gens.append((r, zero, zero, inverse))
    gens += [(delta, zero, zero, one) for delta in deltas]
    if G.family == "full":
        gens += [(one, zero, x, one) for x in nonzero]
    return gens


def _reference_cusps(G, field):
    N = G.level if G.level is not None else PolyA.T(field)
    gens = _reference_generators(G, N)
    one = PolyA.one(field)
    res = _reference_polys(field, N.degree - 1)
    prim = [(u, v) for u in res for v in res if u.gcd(v).gcd(N) == one]
    key = lambda w: (w[0].sort_key(), w[1].sort_key())
    products = {}

    def times(a, u):
        """a * u % N, each product of two residues computed once."""
        k = (a.coeffs, u.coeffs)
        if k not in products:
            products[k] = a * u % N
        return products[k]

    seen, keyed = set(), []
    for start in prim:
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            u, v = frontier.pop()
            for a, b, c, d in gens:
                # a sum of two residues is reduced already
                w = (times(a, u) + times(b, v), times(c, u) + times(d, v))
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        seen |= orbit
        keyed.append((min(orbit, key=key), len(orbit)))
    keyed.sort(key=lambda item: key(item[0]))
    return CuspSet(tuple(r for r, _ in keyed), tuple(n for _, n in keyed), len(prim))


# one level of each factor type: linear, irreducible, split, square
_CUSP_GROUPS_Q3 = ["full", "full!sq", "full!one"] + [
    "%s:%s%s" % (family, level, suffix)
    for family in ("gammaN", "gamma1", "gamma0")
    for level in ("T", "T^2+1", "T^2+2", "T^2")
    for suffix in ("", "!sq", "!one")
]
_CUSP_GROUPS_Q9 = ["full", "full!sq", "full!idx4", "full!one"] + [
    "%s:T+1%s" % (family, suffix)
    for family in ("gammaN", "gamma1", "gamma0")
    for suffix in ("", "!sq", "!idx4", "!one")
]



def _groups(levels, suffixes=("", "!sq")):
    return ["full" + suffix for suffix in suffixes] + [
        "%s:%s%s" % (family, level, suffix)
        for family in ("gammaN", "gamma1", "gamma0")
        for level in levels
        for suffix in suffixes
    ]


# non-monic levels: at q = 5 linear and one quadratic of each factor type
# (irreducible, split, square), at q = 7 linear; F_9 under the second
# modulus; linear levels at q = 25 and 27
_CUSP_CASES = (
    [(3, None, t) for t in _CUSP_GROUPS_Q3]
    + [(9, None, t) for t in _CUSP_GROUPS_Q9]
    + [(5, None, t) for t in _groups(["2*T+1", "2*T^2+4", "2*T^2+2*T", "2*T^2+4*T+2"])]
    + [(7, None, t) for t in _groups(["3*T+2"])]
    + [(9, (2, 1, 1), t) for t in _groups(["T+1", "a*T+a^2"])]
    + [(25, None, t) for t in _groups(["a*T+1"])]
    + [(27, None, t) for t in _groups(["a*T+1"])]
)


@pytest.mark.parametrize(
    "q, modulus, text",
    _CUSP_CASES,
    ids=["%d%s-%s" % (q, "/%d%d%d" % m if m else "", t) for q, m, t in _CUSP_CASES],
)
def test_cusps_match_the_closure_under_an_inverse_closed_generating_set(q, modulus, text):
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    G = parse_group(text, F)
    assert cusps(G, F) == _reference_cusps(G, F)


def _monic_polys(field, degree):
    top = PolyA.one(field)
    for _ in range(degree):
        top = top * PolyA.T(field)
    if degree == 0:
        return [top]
    return [f + top for f in _reference_polys(field, degree - 1)]


def _unit_count(g):
    """|(A/g)^x| for nonconstant g, by counting the residues prime to g."""
    one = PolyA.one(g.field)
    return sum(r.gcd(g) == one for r in _reference_polys(g.field, g.degree - 1))


def _gekeler_gamma0_cusp_count(N):
    """Gekeler's cusp count for Gamma_0(N) (Drinfeld Modular Curves, LNM 1231).

    The sum over monic D | N of |(A/gcd(D, N/D))^x| / (q - 1), with a term
    of 1 when the gcd is 1.
    """
    field = N.field
    count = 0
    for degree in range(N.degree + 1):
        for D in _monic_polys(field, degree):
            cofactor, rem = divmod(N, D)
            if rem:
                continue
            g = D.gcd(cofactor)
            count += 1 if g.is_constant() else _unit_count(g) // (field.q - 1)
    return count


@pytest.mark.parametrize(
    "q, modulus", [(3, None), (5, None), (7, None), (9, (1, 0, 1)), (9, (2, 1, 1))]
)
def test_gamma0_cusp_count_matches_gekeler(q, modulus):
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    levels = _monic_polys(F, 1) + _monic_polys(F, 2)
    assert len(levels) == q + q * q
    counts = {str(N): cusps(GroupSpec("gamma0", N), F).count for N in levels}
    assert counts == {str(N): _gekeler_gamma0_cusp_count(N) for N in levels}


@pytest.mark.parametrize(
    "q, modulus", [(3, None), (5, None), (7, None), (9, (1, 0, 1)), (9, (2, 1, 1))]
)
def test_gamma1_level_T_has_two_cusps(q, modulus):
    """Mod T, Gamma_1(T) and the scalars act on (u, v) != 0 in F_q^2 as
    (u, v) -> (s(u + b v), s d v) with s, d in F_q^x and b in F_q.

    So the vectors with v != 0 form one orbit of size q(q - 1), and those
    with v = 0 the other, of size q - 1.
    """
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    cs = cusps(GroupSpec("gamma1", PolyA.T(F)), F)
    assert cs.count == 2
    assert sorted(cs.sizes) == [q - 1, q * (q - 1)]


# ------------------------------------------------------- elliptic search


def test_witness_search_finds_the_quadratic_with_locally_square_discriminant():
    # the fixed-point quadratic z^2 + (2T+4)/(T+6) z + 4/(T+6) at q = 7:
    # its discriminant (4T^2+4)/(T^2+5T+1) is a square in the Laurent field
    # at infinity but not in K, so the witness must be kept
    F = get_field(7)
    G = GroupSpec("gamma0", parse_poly("T+6", F))
    ws = elliptic_search(G, 0, F)
    qb = RatK(parse_poly("2*T+4", F), parse_poly("T+6", F))
    qc = RatK(parse_poly("4", F), parse_poly("T+6", F))
    hits = [w for w in ws if w.quad_b == qb and w.quad_c == qc]
    assert hits
    dets = {F.format_elem(w.det) for w in hits}
    assert "3" in dets
    w = hits[0]
    disc = w.quad_b * w.quad_b - w.quad_c * 4
    assert disc == RatK(parse_poly("4*T^2+4", F), parse_poly("T^2+5*T+1", F))
    assert poly_sqrt(disc.num * disc.den) is None
    assert is_square_kinf(laurent_expand(disc))


@pytest.mark.parametrize(
    "q, modulus",
    [(3, None), (5, None), (7, None), (11, None), (9, (1, 0, 1)), (9, (2, 1, 1))],
)
@pytest.mark.parametrize("level", ["T", "T+1", "2*T+1"])
@pytest.mark.parametrize("suffix", ["", "!sq", "!one"])
@pytest.mark.parametrize("family", ["gamma1", "gamma0"])
def test_witness_count_at_degree_bound_zero_for_a_linear_level(
    q, modulus, level, suffix, family
):
    """At deg-bound 0 with linear level N, gamma1 has (q-1)^2 |dets|
    witnesses and gamma0 has (q-1)^3 |dets|.

    Entries written with a prime are constants.  gamma1: the box is
    (a'N + 1, b; c'N, d), and ad - bc = N(a'd - bc') + d.  For this to be a
    constant delta, a'd = bc' and d = delta, so d = delta and
    b = a'delta/c'.  The trace is a'N + 1 + delta.  If a' != 0 it is linear,
    and X^2 - 4 delta with X linear is never a square in A (X^2 - S^2 =
    4 delta would make X - S and X + S units, so X constant); it is never
    zero either, having degree 2.  If a' = 0 the discriminant is
    (1 + delta)^2 - 4 delta = (1 - delta)^2, a square or zero.  So the
    witnesses are delta in dets, c' != 0 and a' != 0: (q-1)^2 |dets|.

    gamma0: the box is (a1 N + a0, b; c'N, d), and ad - bc =
    N(a1 d - bc') + a0 d.  So a0 d = delta, which fixes a0 for each d != 0,
    and b = a1 d/c'.  The trace is a1 N + a0 + d: if a1 != 0 the candidate
    is a witness as above, and if a1 = 0 the discriminant is
    (a0 + d)^2 - 4 a0 d = (a0 - d)^2.  So the witnesses are delta in dets,
    d != 0, c' != 0 and a1 != 0: (q-1)^3 |dets|.
    """
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    G = parse_group("%s:%s%s" % (family, level, suffix), F)
    dets = {"": q - 1, "!sq": (q - 1) // 2, "!one": 1}[suffix]
    free = {"gamma1": 2, "gamma0": 3}[family]
    assert len(elliptic_search(G, 0, F)) == (q - 1) ** free * dets


def _matrix_key(w):
    """The coordinate tuples of a witness's entries: the search's sort order."""
    return tuple(x.sort_key() for x in w.gamma.entries())


def _plain(w):
    """A witness (or None) with its matrix as its entries, which compare by value."""
    return None if w is None else w._replace(gamma=w.gamma.entries())


@pytest.mark.parametrize(
    "q, modulus", [(3, None), (5, None), (9, (1, 0, 1)), (9, (2, 1, 1))]
)
@pytest.mark.parametrize(
    "descriptor",
    ["full", "full!sq", "full!one", "gamma1:T", "gamma1:T+1!sq", "gamma0:T",
     "gamma0:T+1!one"],
)
def test_witnesses_satisfy_their_defining_invariants(q, modulus, descriptor):
    # the search runs no membership test: its box lies in G by construction
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    G = parse_group(descriptor, F)
    ws = elliptic_search(G, 0, F)
    assert ws
    assert ws == sorted(ws, key=_matrix_key)
    assert len({w.gamma.entries() for w in ws}) == len(ws)
    for w in ws:
        assert isinstance(w, EllipticWitness)
        assert member(w.gamma, G)
        assert not w.gamma.c.is_zero()
        assert w.quad_b == RatK(w.gamma.d - w.gamma.a, w.gamma.c)
        assert w.quad_c == RatK(-w.gamma.b, w.gamma.c)
        disc = w.quad_b * w.quad_b - w.quad_c * 4
        assert not disc.is_zero()
        assert poly_sqrt(disc.num * disc.den) is None
        assert w.det == w.gamma.det
        assert w.det_is_square == is_square_fq(w.det)


@pytest.mark.parametrize(
    "q, descriptor, deg_bound, count",
    [
        (25, "full!one", 0, 7200),
        (25, "gamma1:T!one", 0, 576),
        (3, "full", 1, None),
        (3, "gamma1:T+1", 1, None),
        (3, "gamma0:T+1", 1, None),
    ],
)
def test_witnesses_are_sorted_where_code_and_coordinate_order_differ(
    q, descriptor, deg_bound, count
):
    # each block is sorted on the ranks of b, c and d; at q = 25 the codes
    # of F_q are not in coordinate order, and at q = 3, deg-bound 1 the
    # entries c'(T + 1) are not in the order of c', and entries of two
    # lengths share a block
    F = get_field(q)
    ws = elliptic_search(parse_group(descriptor, F), deg_bound, F)
    keys = [_matrix_key(w) for w in ws]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    if count is not None:
        assert len(ws) == count
    if q == 25:
        assert sorted(range(q), key=F.coords.__getitem__) != list(range(q))
    else:
        block = [w.gamma for w in ws if w.gamma.a == ws[0].gamma.a]
        assert any(len({len(getattr(g, x).coeffs) for g in block}) > 1 for x in "bcd")


# every family's product table at each deg_bound whose box fits
# ELLIPTIC_BOX_LIMIT (deg_bound 1 does not at q = 9, nor for gamma0 at q = 5)
@pytest.mark.parametrize(
    "q, descriptor, deg_bound",
    [(q, d, 0) for q in (3, 5, 9) for d in ("full", "gamma1:T", "gamma0:T")]
    + [(3, d, 1) for d in ("full", "gamma1:T", "gamma0:T")]
    + [(5, "full", 1), (5, "gamma1:T", 1)],
)
def test_quadratic_coefficients_read_from_the_product_table(q, descriptor, deg_bound):
    F = get_field(q)
    ws = elliptic_search(parse_group(descriptor, F), deg_bound, F)
    assert ws
    for w in ws:
        g = w.gamma
        assert (w.quad_b, w.quad_c) == (RatK(g.d - g.a, g.c), RatK(-g.b, g.c))


def test_gamma1_witnesses_are_gamma0_witnesses():
    F = get_field(5)
    t = PolyA.T(F)
    w1 = elliptic_search(GroupSpec("gamma1", t), 0, F)
    w0 = elliptic_search(GroupSpec("gamma0", t), 0, F)
    assert w1
    assert {w.gamma.entries() for w in w1} <= {w.gamma.entries() for w in w0}


def _reference_search(G, deg_bound, field):
    """Every (a, b, c, d) of the family's box, filtered one matrix at a time."""
    polys = _reference_polys(field, deg_bound)
    N, one = G.level, PolyA.one(field)
    if G.family == "full":
        box = itertools.product(polys, repeat=4)
    elif G.family == "gamma1":
        box = ((a * N + one, b, c * N, d) for a, b, c, d in itertools.product(polys, repeat=4))
    else:
        box = (
            (a1 * N + a0, b, c * N, d)
            for a1, a0, b, c, d in itertools.product(polys, repeat=5)
        )
    four = RatK.from_value(field, 4)
    seen, out = set(), []
    for a, b, c, d in box:
        if c.is_zero():
            continue
        try:
            gamma = Mat2(a, b, c, d)
        except ValueError:
            continue
        if not member(gamma, G) or gamma.entries() in seen:
            continue
        seen.add(gamma.entries())
        quad_b, quad_c = RatK(d - a, c), RatK(-b, c)
        disc = quad_b * quad_b - four * quad_c
        if disc.is_zero() or poly_sqrt(disc.num * disc.den) is not None:
            continue
        out.append(EllipticWitness(gamma, quad_b, quad_c, gamma.det, is_square_fq(gamma.det)))
    return sorted(out, key=_matrix_key)


_SEARCH_CASES = [
    (q, modulus, 0) for q, modulus in [(3, None), (5, None), (9, (1, 0, 1)), (9, (2, 1, 1))]
] + [(3, None, 1)]


@pytest.mark.parametrize("q, modulus, deg_bound", _SEARCH_CASES)
@pytest.mark.parametrize("family", ["full", "gamma1:T+1", "gamma0:T+1"])
@pytest.mark.parametrize("suffix", ["", "!sq", "!one"])
def test_witness_search_matches_the_four_parameter_box(q, modulus, deg_bound, family, suffix):
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    G = parse_group(family + suffix, F)
    found = elliptic_search(G, deg_bound, F)
    assert list(map(_plain, found)) == list(map(_plain, _reference_search(G, deg_bound, F)))


@pytest.mark.parametrize("q, modulus, deg_bound", _SEARCH_CASES)
@pytest.mark.parametrize("family", ["full", "gamma1:T+1", "gamma0:T+1"])
@pytest.mark.parametrize("suffix", ["", "!sq", "!one"])
def test_witness_records_match_an_independent_recomputation(
    q, modulus, deg_bound, family, suffix
):
    # each record is built from the walk's codes: the determinant is not
    # recomputed, and (d-a)/c and -b/c are reduced without Euclid when c has
    # degree <= 1; at deg-bound 1, c = c'N of degree 2 takes the Euclid path
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    G = parse_group(family + suffix, F)
    one = PolyA.one(F)
    ws = elliptic_search(G, deg_bound, F)
    assert ws
    for w in ws:
        a, b, c, d = w.gamma.entries()
        assert Mat2(a, b, c, d).det == w.det == w.gamma.det
        assert w.det_is_square == is_square_fq(w.det)
        for x, num in ((w.quad_b, d - a), (w.quad_c, -b)):
            assert x.num * c == num * x.den
            assert x.den.coeffs[-1:] == (1,)  # monic
            assert x.num.gcd(x.den) == one
    den_degrees = {x.den.degree for w in ws for x in (w.quad_b, w.quad_c)}
    assert max(den_degrees) == (deg_bound if family == "full" else deg_bound + 1)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_full_group_witnesses_are_the_elliptic_elements_of_gl2_fq(q):
    # at degree 0 the witnesses are the matrices of GL2(F_q) with
    # irreducible characteristic polynomial: (q^2 - q)/2 monic irreducible
    # quadratics, each with a conjugacy class of q(q - 1) elements
    ws = elliptic_search(GroupSpec("full", None), 0, get_field(q))
    assert len(ws) == q * q * (q - 1) ** 2 // 2


def test_witness_search_rejects_unsupported_groups_and_huge_boxes():
    F = get_field(7)
    t = PolyA.T(F)
    with pytest.raises(ValueError):
        elliptic_search(GroupSpec("gammaN", t), 0, F)
    with pytest.raises(ValueError):
        elliptic_search(GroupSpec("gamma0", t * t), 0, F)
    with pytest.raises(ValueError, match="got -1"):
        elliptic_search(GroupSpec("gamma0", t), -1, F)
    with pytest.raises(WorkBoundError, match=r"7\^8 candidates exceed"):
        elliptic_search(GroupSpec("full", None), 1, F)  # 49^4 matrices
    F5 = get_field(5)
    with pytest.raises(WorkBoundError, match=r"5\^10 candidates exceed"):
        elliptic_search(GroupSpec("gamma0", PolyA.T(F5)), 1, F5)  # 25^5


# ----------------------------------------------------------------- parity


@pytest.mark.parametrize("q", [3, 5, 7])
def test_full_group_is_classified_non_square(q):
    p = parity(GroupSpec("full", None), 0, get_field(q))
    assert p.kind == "NonSquare"
    assert p.bound == 0
    assert p.witness is not None and not p.witness.det_is_square


@pytest.mark.parametrize("q", [3, 5, 7])
def test_square_determinant_witnesses_exist_alongside_non_square_ones(q):
    # whenever the search finds witnesses at all, both determinant classes
    # are represented (set-level statement; individual quadratic classes
    # need not see both)
    F = get_field(q)
    for G in (GroupSpec("full", None), GroupSpec("gamma0", PolyA.T(F))):
        ws = elliptic_search(G, 0, F)
        assert ws
        assert any(w.det_is_square for w in ws)
        assert any(not w.det_is_square for w in ws)


def _parity_from_the_full_list(G, deg_bound, F):
    ws = elliptic_search(G, deg_bound, F)
    assert ws, "an admissible search finds a witness"
    non_square = [w for w in ws if not w.det_is_square]
    if non_square:
        return Parity("NonSquare", deg_bound, non_square[0])
    return Parity("Square", deg_bound)


@pytest.mark.parametrize("q, modulus, deg_bound", _SEARCH_CASES + [(7, None, 0)])
@pytest.mark.parametrize("family", ["full", "gamma0:T", "gamma1:T", "gamma1:T+1"])
@pytest.mark.parametrize("suffix", ["", "!sq", "!one"])
def test_parity_is_the_first_non_square_witness_of_the_full_list(
    q, modulus, deg_bound, family, suffix
):
    # parity stops at the first a-block that decides; the full list decides
    # the same way
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    G = parse_group(family + suffix, F)
    p, expected = parity(G, deg_bound, F), _parity_from_the_full_list(G, deg_bound, F)
    assert p._replace(witness=_plain(p.witness)) == expected._replace(
        witness=_plain(expected.witness)
    )


def _parity_oracle_cases():
    """(q, modulus, descriptor, deg_bound): full, and gamma0 and gamma1 at
    three linear levels, with every determinant index m | q - 1, at
    deg-bound 0 and at deg-bound 1 where the box fits."""
    fields = [(q, None) for q in (3, 5, 7, 11, 13)] + [(9, (1, 0, 1)), (9, (2, 1, 1))]
    for q, modulus in fields:
        levels = ["T", "T+1", "a*T+1" if modulus else "2*T+1"]
        groups = ["full"] + ["%s:%s" % (f, t) for f in ("gamma0", "gamma1") for t in levels]
        for text in groups:
            params = 5 if text.startswith("gamma0") else 4
            for deg_bound in (0, 1):
                if q ** ((deg_bound + 1) * params) > ELLIPTIC_BOX_LIMIT:
                    continue
                for m in range(1, q):
                    if (q - 1) % m == 0:
                        yield q, modulus, "%s!idx%d" % (text, m), deg_bound


_PARITY_ORACLE_CASES = list(_parity_oracle_cases())


def test_the_parity_oracle_covers_every_field_family_and_index():
    assert len(_PARITY_ORACLE_CASES) == 215


@pytest.mark.parametrize(
    "q, modulus, text, deg_bound",
    _PARITY_ORACLE_CASES,
    ids=[
        "q%d%s-%s-deg%d" % (q, "" if m is None else "-mod" + "".join(map(str, m)), t, d)
        for q, m, t, d in _PARITY_ORACLE_CASES
    ],
)
def test_parity_is_non_square_exactly_when_the_determinant_index_is_odd(
    q, modulus, text, deg_bound
):
    # F_q^x is cyclic of even order q - 1, so its index-m subgroup (the
    # allowed determinants) holds a non-square iff m is odd
    F = get_field(q) if modulus is None else Fq(q, modulus=modulus)
    G = parse_group(text, F)
    p = parity(G, deg_bound, F)
    if G.det_index % 2:
        assert p.kind == "NonSquare" and p.bound == deg_bound
        assert not p.witness.det_is_square and not is_square_fq(p.witness.det)
        assert p.witness.det.code in {x.code for x in G.det_values(F)}
    else:
        assert p == Parity("Square", deg_bound)


def test_parity_checks_its_arguments_before_any_work():
    F = get_field(7)
    t = PolyA.T(F)
    with pytest.raises(ValueError, match="deg_bound must be non-negative"):
        parity(GroupSpec("full", None), -1, F)
    with pytest.raises(ValueError, match="identity-congruence"):
        parity(GroupSpec("gammaN", t), 0, F)
    with pytest.raises(ValueError, match="linear level"):
        parity(GroupSpec("gamma0", t * t), 0, F)
    with pytest.raises(WorkBoundError, match="ELLIPTIC_BOX_LIMIT"):
        parity(GroupSpec("full", None), 2, F)
    with pytest.raises(ValueError, match="does not divide"):
        parity(GroupSpec("full", None, 4), 0, F)


def test_parity_records_validate_their_shape():
    with pytest.raises(ValueError):
        Parity("Bogus", 0)
    with pytest.raises(ValueError):
        Parity("NonSquare", 0)  # needs a witness
    F = get_field(5)
    ws = elliptic_search(GroupSpec("gamma0", PolyA.T(F)), 0, F)
    square = next(w for w in ws if w.det_is_square)
    with pytest.raises(ValueError):
        Parity("NonSquare", 0, square)
    with pytest.raises(ValueError):
        Parity("NoWitnessFound", 3)  # an admissible search always decides


# ------------------------------------------------------- preset invariants


# The presets are published data; the searches check them.
_PRESET_FIELDS = [(3, None), (5, None), (7, None), (9, (1, 0, 1)), (9, (2, 1, 1))]


def _preset_field(q, modulus):
    return get_field(q) if modulus is None else Fq(q, modulus=modulus)


@pytest.mark.parametrize("q, modulus", _PRESET_FIELDS)
def test_full_group_preset_invariants(q, modulus):
    F = _preset_field(q, modulus)
    inv = assemble_invariants("GL2A_2", F)
    assert inv.q == q
    assert inv.genus == 0
    assert inv.group == GroupSpec("full", None, 2)
    assert inv.cusp_stab_orders == ((q - 1) // 2,)
    assert cusps(inv.group, F).count == len(inv.cusp_stab_orders)
    assert len(inv.elliptic_points) == 1
    ep = inv.elliptic_points[0]
    assert (ep.stab_order, ep.stab_order_sq) == (q + 1, (q + 1) // 2)
    # [G_e : (G_2)_e] is 1 for a square group and 2 for a non-square one
    index = {"Square": 1, "NonSquare": 2}[parity(GroupSpec("full", None), 0, F).kind]
    assert ep.stab_order // ep.stab_order_sq == index


@pytest.mark.parametrize("q, modulus", _PRESET_FIELDS)
def test_gamma0_preset_invariants(q, modulus):
    F = _preset_field(q, modulus)
    inv = assemble_invariants("Gamma0T_2", F)
    assert inv.genus == 0
    assert inv.group == GroupSpec("gamma0", PolyA.T(F), 2)
    assert inv.cusp_stab_orders == ((q - 1) // 2, (q - 1) // 2)
    assert cusps(inv.group, F).count == len(inv.cusp_stab_orders)
    assert inv.elliptic_points == ()
    assert parity(GroupSpec("gamma0", PolyA.T(F)), 0, F).kind == "NonSquare"


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_preset_stabilizer_orders_are_prime_to_the_characteristic(q):
    field = get_field(q)
    p = field.p
    for preset in ("GL2A_2", "Gamma0T_2"):
        inv = assemble_invariants(preset, field)
        for e in inv.cusp_stab_orders:
            assert e % p != 0
        for ep in inv.elliptic_points:
            assert ep.stab_order % p != 0
            assert ep.stab_order_sq % p != 0


def test_unknown_preset_is_rejected():
    with pytest.raises(ValueError):
        assemble_invariants("GL3A_2", get_field(5))
