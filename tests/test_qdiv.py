"""Q-divisors, Riemann-Roch sections, and graded section-ring presentations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from drinfeld import (
    QDivisor,
    QPoint,
    WorkBoundError,
    assemble_invariants,
    dim_gamma0T,
    floor_div,
    h0,
    h0_weighted,
    log_canonical_divisor,
    presentation,
)
from conftest import SEED, get_field

Z, O, I = QPoint.ZERO, QPoint.ONE, QPoint.INFINITY


def qdiv(z=0, o=0, i=0):
    return QDivisor({Z: Fraction(z), O: Fraction(o), I: Fraction(i)})


# ---------------------------------------------------------------- divisors


def test_divisor_arithmetic_and_accessors():
    D = qdiv(z=Fraction(3, 2), i=-2)
    E = qdiv(z=Fraction(1, 2), o=1)
    assert (D + E).items() == ((Z, Fraction(2)), (O, Fraction(1)), (I, Fraction(-2)))
    assert (D - E).coeff(Z) == 1
    assert (-D).coeff(I) == 2
    assert D.degree() == Fraction(-1, 2)
    assert D.support() == (Z, I)
    assert floor_div(D) != D
    assert (D + E).coeff(O) == 1
    assert floor_div(qdiv(z=2, o=-1)) == qdiv(z=2, o=-1)


def test_divisor_scalar_multiplication_on_both_sides():
    D = qdiv(z=Fraction(3, 2), i=-2)
    assert (2 * D).coeff(Z) == 3
    assert (D * 2).coeff(I) == -4
    half = Fraction(1, 2) * D
    assert half.coeff(Z) == Fraction(3, 4)
    with pytest.raises(TypeError):
        D * 0.5


def test_divisor_drops_zero_coefficients_and_compares_by_value():
    assert qdiv(z=0, o=2).support() == (O,)
    assert qdiv(o=2) == QDivisor({O: Fraction(4, 2)})
    assert hash(qdiv(o=2)) == hash(QDivisor({O: 2, Z: 0}))
    assert qdiv(o=1) != qdiv(z=1)
    with pytest.raises(TypeError):
        QDivisor({"inf": 1})


def test_divisor_repr_is_ordered_and_exact():
    assert repr(QDivisor()) == "0"
    assert repr(qdiv(z=Fraction(3, 2), i=Fraction(-1, 2))) == "3/2(0) + -1/2(inf)"
    assert repr(qdiv(o=Fraction(1, 2))) == "1/2(1)"


def test_floor_is_componentwise_and_idempotent():
    D = qdiv(z=Fraction(3, 2), o=Fraction(-1, 2), i=Fraction(1, 2))
    F = floor_div(D)
    assert F == qdiv(z=1, o=-1)  # floor(1/2) = 0 leaves the support
    assert floor_div(F) == F


# ------------------------------------------- h0 and the section labels


def test_h0_known_values():
    assert h0(QDivisor()) == 1
    assert h0(qdiv(i=2)) == 3
    assert h0(qdiv(z=-1)) == 0
    assert h0(qdiv(z=Fraction(1, 2), o=Fraction(1, 2))) == 1


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
        assert h0(D + E) >= h0(D)
        for pt in (Z, O, I):
            bump = h0(D + QDivisor({pt: 1}))
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
    assert full == QDivisor(
        {O: 1 - Fraction(2, q + 1), I: -1 + Fraction(2, q - 1)}
    )
    gamma0 = log_canonical_divisor(assemble_invariants("Gamma0T_2", F))
    assert gamma0 == QDivisor(
        {Z: 1 + Fraction(2, q - 1), I: -1 + Fraction(2, q - 1)}
    )


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
        if not 0 < D.degree() <= 2:
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
        degrees = [g.degree for g in gens]
        for d in range(1, max_weight // 2 + 1):
            monos = _exponents(degrees, d)
            index = {exps: i for i, exps in enumerate(monos)}
            shifts = []
            for rel in pres.relations:
                for mu in _exponents(degrees, d - rel.weight // 2):
                    row = [Fraction(0)] * len(monos)
                    for exps, coeff in rel.combo:
                        exps += (0,) * (len(gens) - len(exps))
                        row[index[tuple(x + y for x, y in zip(exps, mu))]] += coeff
                    shifts.append(row)
            assert len(monos) - _rank(shifts) == h0(d * D), (D, d)
    assert with_relations >= draws // 2


def test_presentation_of_a_free_ring_on_a_half_integer_divisor():
    pres = presentation(qdiv(i=Fraction(1, 2)), max_weight=10)
    # degree d has h0 = 1 + floor(d/2): the degree-1 constant and one
    # degree-2 section generate freely
    assert pres.generator_weights() == (2, 4)
    assert pres.relations == ()
    for log in pres.degree_logs:
        assert log.h0 == 1 + (log.weight // 2) // 2
