"""Q-divisors, Riemann-Roch sections, and graded section-ring presentations."""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, floor, gcd, lcm

import pytest

from drinfeld import (
    QDivisor,
    QPoint,
    WorkBoundError,
    assemble_invariants,
    decompose_gamma2,
    dim_gamma0T,
    h0,
    h0_weighted,
    log_canonical_divisor,
    presentation,
    type_solutions,
)
from drinfeld import qdiv as qdiv_module
from drinfeld.qdiv import (
    POINT_ORDER,
    PRESENTATION_WORK_BUDGET,
    DegreeLog,
    Generator,
    RingPresentation,
    Relation,
)
from conftest import SEED, get_field

Z, O, I = QPoint.ZERO, QPoint.ONE, QPoint.INFINITY


def qdiv(z=0, o=0, i=0):
    return QDivisor({Z: Fraction(z), O: Fraction(o), I: Fraction(i)})


def plus(D, E):
    """The coefficientwise sum of two divisors."""
    return QDivisor({pt: D.coeff(pt) + E.coeff(pt) for pt in (Z, O, I)})


# ---------------------------------------------------------------- divisors


def test_divisor_accessors():
    D = qdiv(z=Fraction(3, 2), i=-2)
    assert D.items() == ((Z, Fraction(3, 2)), (I, Fraction(-2)))
    assert D.coeff(Z) == Fraction(3, 2) and D.coeff(O) == 0
    assert D.support() == (Z, I)


def test_divisor_scalar_multiplication_on_both_sides():
    D = qdiv(z=Fraction(3, 2), i=-2)
    assert (2 * D).coeff(Z) == 3
    assert (D * 2).coeff(I) == -4
    half = Fraction(1, 2) * D
    assert half.coeff(Z) == Fraction(3, 4)
    with pytest.raises(TypeError):
        D * 0.5


def test_divisor_drops_zero_coefficients_and_keeps_exact_values():
    assert qdiv(z=0, o=2).support() == (O,)
    assert qdiv(o=2).items() == QDivisor({O: Fraction(4, 2)}).items()
    assert qdiv(o=2).items() == QDivisor({O: 2, Z: 0}).items() == ((O, Fraction(2)),)
    assert qdiv(o=1).items() != qdiv(z=1).items()
    with pytest.raises(TypeError):
        QDivisor({"inf": 1})


def test_divisor_repr_is_ordered_and_exact():
    assert repr(QDivisor()) == "0"
    assert repr(qdiv(z=Fraction(3, 2), i=Fraction(-1, 2))) == "3/2(0) + -1/2(inf)"
    assert repr(qdiv(o=Fraction(1, 2))) == "1/2(1)"


# ------------------------------------------- h0 and the section labels


def test_h0_known_values():
    assert h0(QDivisor()) == 1
    assert h0(qdiv(i=2)) == 3
    assert h0(qdiv(z=-1)) == 0
    assert h0(qdiv(z=Fraction(1, 2), o=Fraction(1, 2))) == 1


def test_h0_is_the_floor_degree_plus_one_clipped_at_zero():
    # Oracle: the floor of each Fraction coefficient, summed in the test
    def expected(D):
        return max(0, sum(floor(D.coeff(pt)) for pt in (Z, O, I)) + 1)

    # floors 1, -1 and 0: floor(1/2) = 0 adds nothing although 1/2 is in the support
    fixed = qdiv(z=Fraction(3, 2), o=Fraction(-1, 2), i=Fraction(1, 2))
    assert h0(fixed) == expected(fixed) == 1
    divisors = [QDivisor(), fixed]
    rng = random.Random(SEED + 3)
    for _ in range(500):
        points = [pt for pt in (Z, O, I) if rng.random() < 0.5]
        divisors.append(
            QDivisor({pt: Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for pt in points})
        )
    for D in divisors:
        assert h0(D) == expected(D), D


def test_generator_labels_are_the_section_basis_at_weight_two():
    # weight 2 has no products yet, so its generators are the whole basis
    # t^(m-a) (t-1)^(-b), m = 0 .. deg floor(D), of floor(D) = a(0) + b(1) + c(inf)
    def labels(D):
        return [g.label() for g in presentation(D, 2).generators]

    assert labels(qdiv(i=2)) == ["1", "t^1", "t^2"]
    assert labels(qdiv(z=1)) == ["t^-1", "1"]
    assert labels(qdiv(z=1, o=1)) == [
        "t^-1*(t-1)^-1",
        "(t-1)^-1",
        "t^1*(t-1)^-1",
    ]
    assert labels(qdiv(i=-1)) == []


def test_h0_is_monotone_under_effective_additions():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        D = QDivisor(
            {pt: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for pt in (Z, O, I)}
        )
        E = QDivisor({pt: rng.randint(0, 3) for pt in (Z, O, I)})
        assert h0(plus(D, E)) >= h0(D)
        for pt in (Z, O, I):
            bump = h0(plus(D, QDivisor({pt: 1})))
            assert h0(D) <= bump <= h0(D) + 1


# --------------------------------------------------- log-canonical divisors


@pytest.mark.parametrize(
    "preset,q,text",
    [
        ("GL2A_2", 5, "2/3(1) + -1/2(inf)"),
        ("GL2A_2", 3, "1/2(1)"),
        ("Gamma0T_2", 5, "3/2(0) + -1/2(inf)"),
        ("Gamma0T_2", 3, "2(0)"),
    ],
)
def test_log_canonical_divisors_of_the_presets(preset, q, text):
    inv = assemble_invariants(preset, get_field(q))
    assert repr(log_canonical_divisor(inv)) == text


def test_log_canonical_rejects_unsupported_shapes():
    inv = assemble_invariants("GL2A_2", get_field(5))
    with pytest.raises(ValueError):
        log_canonical_divisor(inv._replace(genus=1))
    ep = inv.elliptic_points[0]
    with pytest.raises(ValueError):
        log_canonical_divisor(inv._replace(elliptic_points=(ep, ep)))
    with pytest.raises(ValueError):
        log_canonical_divisor(inv._replace(cusp_stab_orders=(1, 1, 1)))


_ODD_PRIME_POWERS_UP_TO_81 = (
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47,
    49, 53, 59, 61, 67, 71, 73, 79, 81,
)


@pytest.mark.parametrize("q", _ODD_PRIME_POWERS_UP_TO_81)
def test_log_canonical_divisors_match_their_closed_forms(q):
    F = get_field(q)
    full = log_canonical_divisor(assemble_invariants("GL2A_2", F))
    assert full.items() == QDivisor(
        {O: 1 - Fraction(2, q + 1), I: -1 + Fraction(2, q - 1)}
    ).items()
    gamma0 = log_canonical_divisor(assemble_invariants("Gamma0T_2", F))
    assert gamma0.items() == QDivisor(
        {Z: 1 + Fraction(2, q - 1), I: -1 + Fraction(2, q - 1)}
    ).items()


# -------------------------------------------------------- weighted h0


def test_weighted_h0_known_row():
    assert [h0_weighted("Gamma0T_2", 5, 8, l) for l in range(4)] == [3, 0, 2, 0]


def test_weighted_h0_validates_arguments():
    with pytest.raises(ValueError):
        h0_weighted("GL2A_2", 5, 8, 0)
    with pytest.raises(ValueError):
        h0_weighted("Gamma0T_2", 5, 7, 0)
    with pytest.raises(ValueError):
        h0_weighted("Gamma0T_2", 5, 0, 0)
    with pytest.raises(ValueError):
        h0_weighted("Gamma0T_2", 5, 8, 4)
    with pytest.raises(ValueError):
        h0_weighted("Gamma0T_2", 5, 8, -1)


@pytest.mark.parametrize("q", [-1, 0, 1, 2, 4, 8, 15])
def test_weighted_h0_refuses_q_as_the_weight_functions_do(q):
    # the check is weights._units: h0_weighted(..., 2, 4, 0) once returned 5
    with pytest.raises(ValueError) as refused:
        dim_gamma0T(4, 0, q)
    with pytest.raises(ValueError) as raised:
        h0_weighted("Gamma0T_2", q, 4, 0)
    assert str(raised.value) == str(refused.value)
    assert "prime power" in str(raised.value)


def weighted_h0_by_fractions(q, k, l):
    """k*alpha + k + 1 at alpha = (2k - 2l - kq) / (k(q-1)), if a positive integer, else 0."""
    value = k * Fraction(2 * k - 2 * l - k * q, k * (q - 1)) + k + 1
    return int(value) if value.denominator == 1 and value > 0 else 0


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_weighted_h0_matches_the_fraction_endpoint_at_every_type(q):
    for k in range(2, 201, 2):
        for l in range(q - 1):
            assert h0_weighted("Gamma0T_2", q, k, l) == weighted_h0_by_fractions(q, k, l), (k, l)


@pytest.mark.parametrize("q", [2187, 59049])
def test_weighted_h0_matches_the_fraction_endpoint_at_seeded_types(q):
    rng = random.Random(SEED + q)
    nonzero = 0
    for k in range(2, 201, 2):
        # the two types of k, where the space can be nonzero, and seeded others
        for l in sorted(type_solutions(k, q)) + rng.sample(range(q - 1), 4):
            value = h0_weighted("Gamma0T_2", q, k, l)
            assert value == weighted_h0_by_fractions(q, k, l), (k, l)
            nonzero += value > 0
    assert nonzero == 100


@pytest.mark.parametrize("q", [3, 5, 7])
def test_weighted_h0_agrees_with_dimension_formula_and_divisor(q):
    inv = assemble_invariants("Gamma0T_2", get_field(q))
    D = log_canonical_divisor(inv)
    for k in range(2, 42, 2):
        total = 0
        for l in range(q - 1):
            val = h0_weighted("Gamma0T_2", q, k, l)
            assert val == dim_gamma0T(k, l, q)
            total += val
        assert total == h0(Fraction(k, 2) * D)


# -------------------------------------------------------- presentations


def check_bookkeeping(pres):
    for log in pres.degree_logs:
        assert log.span_rank + len(log.new_generators) == log.h0
        assert log.kernel_count == log.absorbed_count + len(log.new_relations)
        assert log.monomial_count >= log.span_rank
        assert log.span_rank <= log.h0
    collected = tuple(g for log in pres.degree_logs for g in log.new_generators)
    assert collected == pres.generators
    collected = tuple(r for log in pres.degree_logs for r in log.new_relations)
    assert collected == pres.relations


@pytest.mark.parametrize("q", [3, 5, 7])
def test_full_group_curve_ring_is_free_on_two_generators(q):
    inv = assemble_invariants("GL2A_2", get_field(q))
    D = log_canonical_divisor(inv)
    pres = presentation(D, max_weight=2 * (q + 1))
    assert pres.generator_weights() == (q - 1, q + 1)
    assert pres.relations == ()
    check_bookkeeping(pres)


def test_gamma0_curve_ring_q3_has_three_generators_and_one_relation():
    inv = assemble_invariants("Gamma0T_2", get_field(3))
    D = log_canonical_divisor(inv)
    pres = presentation(D, max_weight=12)
    assert pres.generator_weights() == (2, 2, 2)
    assert pres.relation_weights() == (4,)
    rel = pres.relations[0]
    assert rel.combo == (((1, 0, 1), Fraction(-1)), ((0, 2, 0), Fraction(1)))
    assert set(rel.support()) == {(1, 0, 1), (0, 2, 0)}
    check_bookkeeping(pres)


def test_gamma0_curve_ring_q5_has_one_relation_in_weight_eight():
    inv = assemble_invariants("Gamma0T_2", get_field(5))
    D = log_canonical_divisor(inv)
    pres = presentation(D, max_weight=16)
    assert pres.generator_weights() == (2, 4, 4)
    labels = [g.label() for g in pres.generators]
    assert labels == ["t^-1", "t^-3", "t^-1"]
    assert pres.relation_weights() == (8,)
    assert set(pres.relations[0].support()) == {(4, 0, 0), (0, 1, 1)}
    check_bookkeeping(pres)


def test_presentation_is_invariant_under_swapping_zero_and_one():
    inv = assemble_invariants("GL2A_2", get_field(5))
    D = log_canonical_divisor(inv)
    swapped = QDivisor(
        {Z: D.coeff(O), O: D.coeff(Z), I: D.coeff(I)}
    )
    a = presentation(D, max_weight=12)
    b = presentation(swapped, max_weight=12)
    assert a.generator_weights() == b.generator_weights()
    assert a.relation_weights() == b.relation_weights()


def test_presentation_validates_truncation_weight():
    D = qdiv(i=1)
    for bad in (0, 3, -2):
        with pytest.raises(ValueError):
            presentation(D, max_weight=bad)


def test_presentation_enforces_work_budget():
    inv = assemble_invariants("Gamma0T_2", get_field(3))
    D = log_canonical_divisor(inv)
    spent = "weight 38: spent 56079 of PRESENTATION_WORK_BUDGET = 50000"
    with pytest.raises(WorkBoundError, match=spent):
        presentation(D, max_weight=400)


@pytest.mark.parametrize("q", _ODD_PRIME_POWERS_UP_TO_81)
def test_preset_presentations_match_their_closed_forms(q):
    F = get_field(q)
    full = presentation(
        log_canonical_divisor(assemble_invariants("GL2A_2", F)), 4 * (q + 1)
    )
    assert full.generator_weights() == (q - 1, q + 1)
    assert full.relations == ()
    gamma0 = presentation(
        log_canonical_divisor(assemble_invariants("Gamma0T_2", F)), 4 * (q + 1)
    )
    assert sorted(gamma0.generator_weights()) == [2, q - 1, q - 1]
    assert gamma0.relation_weights() == (2 * (q - 1),)


_SAMPLE_POINTS = (Fraction(2), Fraction(-1), Fraction(1, 3))


def _exponents(degrees, total):
    """Every exponent tuple e with sum(e_i * degrees_i) = total."""
    if not degrees:
        return [()] if total == 0 else []
    return [
        (e,) + rest
        for e in range(total // degrees[0] + 1)
        for rest in _exponents(degrees[1:], total - e * degrees[0])
    ]


def _rank(rows):
    """Rank of a list of Fraction rows, by plain Gaussian elimination."""
    rank, rows = 0, [list(r) for r in rows]
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _hilbert_function(pres, d):
    """The dimension in degree d (weight 2d) of the ring pres presents: the
    monomials in its generators modulo all shifts of its relations."""
    degrees = [g.degree for g in pres.generators]
    monos = _exponents(degrees, d)
    index = {exps: i for i, exps in enumerate(monos)}
    shifts = []
    for rel in pres.relations:
        for mu in _exponents(degrees, d - rel.weight // 2):
            row = [Fraction(0)] * len(monos)
            for exps, coeff in rel.combo:
                exps += (0,) * (len(degrees) - len(exps))
                row[index[tuple(x + y for x, y in zip(exps, mu))]] += coeff
            shifts.append(row)
    return len(monos) - _rank(shifts)


def test_presentations_of_random_divisors_have_the_riemann_roch_hilbert_function():
    # Oracle: relations vanish at sample points, and in every degree d the
    # monomials in the generators modulo all shifts of the relations have
    # dimension h0(d*D); both are computed here with Fractions alone.
    rng = random.Random(SEED + 2)
    max_weight, draws, with_relations = 16, 0, 0
    while draws < 60:
        D = QDivisor(
            {pt: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for pt in (Z, O, I)}
        )
        if not 0 < sum(D.coeff(pt) for pt in (Z, O, I)) <= 2:
            continue
        draws += 1
        pres = presentation(D, max_weight)
        gens = pres.generators
        for rel in pres.relations:
            for t in _SAMPLE_POINTS:
                values = [t ** g.t_exp * (t - 1) ** g.s_exp for g in gens]
                total = Fraction(0)
                for exps, coeff in rel.combo:
                    term = coeff
                    for v, e in zip(values, exps):
                        term *= v ** e
                    total += term
                assert total == 0, (D, rel)
        with_relations += bool(pres.relations)
        for d in range(1, max_weight // 2 + 1):
            assert _hilbert_function(pres, d) == h0(d * D), (D, d)
    assert with_relations >= draws // 2


def _gekeler_dim(k, l, q):
    """dim M_{k,l}(GL_2(A)) from Gekeler's M = C[g, h], g of weight q - 1 and
    type 0, h of weight q + 1 and type 1: the pairs (i, j) >= 0 with
    i(q-1) + j(q+1) = k and j = l (mod q-1)."""
    return sum(
        1
        for j in range(k // (q + 1) + 1)
        if (k - j * (q + 1)) % (q - 1) == 0 and (j - l) % (q - 1) == 0
    )


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
def test_full_group_ring_splits_into_gekelers_two_type_pieces(q):
    # the decomposition theorem: weight k of M(Gamma_2) for Gamma = GL_2(A) is
    # the sum of the type pieces M_{k,l}(Gamma) over the two l of type_solutions
    D = log_canonical_divisor(assemble_invariants("GL2A_2", get_field(q)))
    top = 4 * (q + 1)
    pres = presentation(D, top)
    for k in range(2, top + 1, 2):
        types = type_solutions(k, q)
        assert len(types) == 2
        assert set(decompose_gamma2(k, k // 2, q)) == types
        want = sum(_gekeler_dim(k, l, q) for l in types)
        assert _hilbert_function(pres, k // 2) == want, k


def test_presentation_of_a_free_ring_on_a_half_integer_divisor():
    pres = presentation(qdiv(i=Fraction(1, 2)), max_weight=10)
    # degree d has h0 = 1 + floor(d/2): the degree-1 constant and one
    # degree-2 section generate freely
    assert pres.generator_weights() == (2, 4)
    assert pres.relations == ()
    for log in pres.degree_logs:
        assert log.h0 == 1 + (log.weight // 2) // 2


# ------------------------------------------- the reference engine
#
# The engine as it stood before each degree reduced one monomial per
# exponent pair, kept verbatim as a reference: every monomial is reduced,
# _monomials recurses, and the consequences of every relation are reduced.
# presentation must reproduce it exactly: generators, relation combos with
# their Fractions, every DegreeLog, and the text of a budget refusal.


class _RefRref:
    """Incremental fraction-free sparse row reduction over Z with optional expression tracking.

    Vectors are {column: nonzero int} dicts.  A stored row sits in the map
    pivot -> (row, expr): its pivot is its smallest column, it is zero at
    every pivot stored before it, and, when tracked, expr is an integer dict
    over the caller's keys whose combination of inserted vectors is the row.
    A new vector v is reduced by repeatedly eliminating its smallest column
    p that is a stored pivot, cross-multiplying with that pivot's row r,
    v <- (r[p]/g)*v - (v[p]/g)*r with g = gcd(v[p], r[p]); its expression
    gets the same update, so every value stays an integer.  Rows only carry
    columns at or after their pivot, so each step leaves v zero at p and
    unchanged before it.  Before it is stored, a row and its expression are
    divided by their common content; an untracked row is thus primitive.
    """

    def __init__(self):
        self.rows = {}  # pivot -> (integer row dict, integer expr dict or None)

    @property
    def rank(self):
        return len(self.rows)

    def try_add(self, vec, expr=None):
        """Insert the integer vector if independent.  Returns (added, residual expression).

        For a dependent vector the residual expression is an integer
        dependency among the inserted vectors.
        """
        rows = self.rows
        vec = dict(vec)
        expr = dict(expr) if expr is not None else None
        todo = [k for k in vec if k in rows]
        heapify(todo)
        while todo:
            piv = heappop(todo)
            f = vec.get(piv)
            if f is None:
                continue  # a duplicate entry, or a column that cancelled
            rvec, rexpr = rows[piv]
            r = rvec[piv]
            g = gcd(f, r)
            a, b = r // g, f // g
            if a != 1:
                vec = {k: a * x for k, x in vec.items()}
            for k, y in rvec.items():
                x = vec.get(k)
                if x is None:
                    vec[k] = -b * y
                    if k in rows:
                        heappush(todo, k)
                elif x == b * y:
                    del vec[k]
                else:
                    vec[k] = x - b * y
            if expr is not None and rexpr is not None:
                if a != 1:
                    expr = {k: a * v for k, v in expr.items()}
                for k, v in rexpr.items():
                    expr[k] = expr.get(k, 0) - b * v
        if not vec:
            return False, expr
        c = gcd(*vec.values(), *expr.values()) if expr is not None else gcd(*vec.values())
        if c != 1:
            vec = {k: x // c for k, x in vec.items()}
            if expr is not None:
                expr = {k: v // c for k, v in expr.items()}
        rows[min(vec)] = (vec, expr)
        return True, expr


def _ref_monomials(degrees, total):
    """Exponent tuples with sum(e_i * degrees_i) = total, lex descending."""
    out = []

    def rec(i, remaining, prefix):
        step = degrees[i]
        if i == len(degrees) - 1:
            # the last exponent is forced
            if remaining % step == 0:
                out.append(tuple(prefix) + (remaining // step,))
            return
        for e in range(remaining // step, -1, -1):
            prefix.append(e)
            rec(i + 1, remaining - e * step, prefix)
            prefix.pop()

    rec(0, total, [])
    return out


def _ref_pad(exps, n):
    return exps + (0,) * (n - len(exps))


def _reference_presentation(D, max_weight):
    """Generators and relations of the section ring of D up to max_weight.

    Internal degree d carries weight 2d.  Per degree: evaluate all products
    of chosen generators of total degree d as vectors in H^0(floor(d*D)),
    track kernel vectors, quotient them by shifts of earlier relations, add
    Riemann-Roch basis sections (ascending index) until the span fills the
    space, and log the exact rank bookkeeping.
    """
    if max_weight < 2 or max_weight % 2 != 0:
        raise ValueError("max_weight must be an even integer >= 2")
    # D = (nz(0) + no(1) + ni(inf)) / den, so floor(d*D) is three integer floors
    coeffs = [D.coeff(pt) for pt in POINT_ORDER]
    den = lcm(*(v.denominator for v in coeffs))
    nz, no, ni = (v.numerator * (den // v.denominator) for v in coeffs)
    gens = []
    relations = []
    relation_rows = []  # (degree, integer combination) for each relation
    logs = []
    budget = 0
    for d in range(1, max_weight // 2 + 1):
        a, b = d * nz // den, d * no // den
        dim_h0 = max(0, a + b + d * ni // den + 1)
        degrees = [g.degree for g in gens]
        monos = _ref_monomials(degrees, d) if gens else []
        budget += (len(monos) + dim_h0) * max(1, dim_h0)
        if budget > PRESENTATION_WORK_BUDGET:
            raise WorkBoundError(
                "presentation work budget exceeded at weight %d: spent %d of"
                " PRESENTATION_WORK_BUDGET = %d"
                % (2 * d, budget, PRESENTATION_WORK_BUDGET)
            )
        if dim_h0 == 0:
            if monos:
                raise AssertionError("products found in an empty graded piece")
            logs.append(
                DegreeLog(2 * d, 0, 0, 0, 0, 0, (), ())
            )
            continue
        span = _RefRref()
        kernels = []  # (monomial index, integer dependency over monomial indices)
        for idx, exps in enumerate(monos):
            t_total = sum(e * g.t_exp for e, g in zip(exps, gens))
            s_total = sum(e * g.s_exp for e, g in zip(exps, gens))
            m_exp = t_total + a
            b_exp = s_total + b
            if m_exp < 0 or b_exp < 0 or m_exp + b_exp >= dim_h0:
                raise AssertionError("product left its graded piece")
            vec = {
                m_exp + i: (-1) ** (b_exp - i) * comb(b_exp, i) for i in range(b_exp + 1)
            }
            added, dep = span.try_add(vec, {idx: 1})
            if not added:
                kernels.append((idx, {k: v for k, v in dep.items() if v}))
        span_rank = span.rank
        # consequences of earlier relations at this degree
        mono_index = {exps: i for i, exps in enumerate(monos)}
        cons = _RefRref()
        for rel_degree, combo in relation_rows:
            shift = d - rel_degree
            if shift < 0:
                continue
            for mu in _ref_monomials(degrees, shift):
                vec = {}
                for exps, coeff in combo:
                    shifted = tuple(x + y for x, y in zip(_ref_pad(exps, len(gens)), mu))
                    vec[mono_index[shifted]] = coeff
                cons.try_add(vec)
        absorbed = 0
        new_rels = []
        for idx, dep in kernels:
            # cons lies in the kernel, of dimension len(kernels): at that rank it spans it
            if cons.rank == len(kernels) or not cons.try_add(dep)[0]:
                absorbed += 1
                continue
            keys = sorted(dep)
            # the one place a Fraction is built: the kernel, normalised at idx
            combo = tuple((monos[k], Fraction(dep[k], dep[idx])) for k in keys)
            rel = Relation(weight=2 * d, combo=combo)
            relations.append(rel)
            new_rels.append(rel)
            relation_rows.append((d, tuple((monos[k], dep[k]) for k in keys)))
        # fill the complement with Riemann-Roch sections
        new_gens = []
        if span.rank < dim_h0:
            for m in range(dim_h0):
                added, _ = span.try_add({m: 1})
                if added:
                    gen = Generator(degree=d, t_exp=m - a, s_exp=-b)
                    gens.append(gen)
                    new_gens.append(gen)
                if span.rank == dim_h0:
                    break
        if span.rank != dim_h0:
            raise AssertionError("section basis failed to fill the graded piece")
        logs.append(
            DegreeLog(
                weight=2 * d,
                h0=dim_h0,
                monomial_count=len(monos),
                span_rank=span_rank,
                kernel_count=len(kernels),
                absorbed_count=absorbed,
                new_generators=tuple(new_gens),
                new_relations=tuple(new_rels),
            )
        )
    return RingPresentation(
        generators=tuple(gens),
        relations=tuple(relations),
        truncation_weight=max_weight,
        degree_logs=tuple(logs),
    )


def _outcome(engine, D, max_weight):
    try:
        return engine(D, max_weight)
    except WorkBoundError as exc:
        return "WorkBoundError: %s" % exc


@pytest.mark.parametrize("chunk", range(4))
def test_presentation_matches_the_reference_engine_on_random_divisors(chunk):
    # a nonzero coefficient at 1 gives generators with s_exp != 0, so products
    # of one exponent pair can follow a first monomial that was dependent
    rng = random.Random(SEED + 10 + chunk)
    nonzero = [n for n in range(-8, 9) if n]
    for _ in range(25):
        D = QDivisor(
            {
                Z: Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
                O: Fraction(rng.choice(nonzero), rng.randint(1, 6)),
                I: Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
            }
        )
        expected = _outcome(_reference_presentation, D, 24)
        assert _outcome(presentation, D, 24) == expected, D


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("preset", ["GL2A_2", "Gamma0T_2"])
def test_presentation_matches_the_reference_engine_on_the_presets(preset, q):
    D = log_canonical_divisor(assemble_invariants(preset, get_field(q)))
    for max_weight in (4 * (q + 1), 60, 200):
        expected = _outcome(_reference_presentation, D, max_weight)
        assert _outcome(presentation, D, max_weight) == expected, max_weight


def test_refused_gamma0_walk_keeps_its_bookkeeping():
    # the budget reads the monomial count, so the refusal pins it too
    D = log_canonical_divisor(assemble_invariants("Gamma0T_2", get_field(3)))
    logs = presentation(D, 36).degree_logs
    assert sum(log.monomial_count for log in logs) == 1326
    assert sum(log.h0 for log in logs) == 360
    assert sum(log.kernel_count for log in logs) == 969
    assert sum(log.absorbed_count for log in logs) == 968
    for max_weight in (38, 44, 100):
        with pytest.raises(WorkBoundError, match="weight 38: spent 56079"):
            presentation(D, max_weight)


def test_refused_gamma0_walk_lists_only_the_monomials_a_relation_reads(monkeypatch):
    # counts come from the coin-change table and pairs from earlier degrees: the
    # walk lists monomials only at weight 4, the degree of its one relation
    listed = []
    monomials = qdiv_module._monomials

    def spy(degrees, total):
        out = monomials(degrees, total)
        listed.append((2 * total, len(out)))
        return out

    monkeypatch.setattr(qdiv_module, "_monomials", spy)
    D = log_canonical_divisor(assemble_invariants("Gamma0T_2", get_field(3)))
    with pytest.raises(WorkBoundError, match="weight 38: spent 56079"):
        presentation(D, 44)
    assert listed == [(4, 6)]
