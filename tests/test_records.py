"""The result records: named tuples with fixed fields, value semantics,
read-only fields, and validation in three of them."""

from __future__ import annotations

from fractions import Fraction

import pytest

from drinfeld import (
    CurveInvariants,
    CuspSet,
    DegreeLog,
    EllipticPointRecord,
    EllipticWitness,
    Generator,
    GroupSpec,
    Parity,
    PolyA,
    Relation,
    RingPresentation,
    VanishingProfile,
    elliptic_search,
)

from conftest import get_field

F5 = get_field(5)
T = PolyA.T(F5)
_WITNESSES = elliptic_search(GroupSpec("gamma0", T), 0, F5)
SQUARE = next(w for w in _WITNESSES if w.det_is_square)
NON_SQUARE = next(w for w in _WITNESSES if not w.det_is_square)
POINT = EllipticPointRecord(6, 3)
GEN = Generator(1, 2, 0)
REL = Relation(4, (((2, 0), Fraction(1)), ((0, 1), Fraction(-1))))
LOG = DegreeLog(4, 2, 3, 2, 1, 0, (), (REL,))

# (record, field names, values of every field, a call that leaves out the
# defaulted fields and the values it gives, or None)
RECORDS = [
    (CuspSet, "reps sizes total", (((T, T + 1),), (24,), 24), None),
    (
        EllipticWitness,
        "gamma quad_b quad_c det det_is_square",
        (
            NON_SQUARE.gamma,
            NON_SQUARE.quad_b,
            NON_SQUARE.quad_c,
            NON_SQUARE.det,
            NON_SQUARE.det_is_square,
        ),
        None,
    ),
    (
        Parity,
        "kind bound witness",
        ("NonSquare", 0, NON_SQUARE),
        (("Square", 3), ("Square", 3, None)),
    ),
    (EllipticPointRecord, "stab_order stab_order_sq", (6, 3), None),
    (
        CurveInvariants,
        "q group genus cusp_stab_orders elliptic_points",
        (5, GroupSpec("full", None, 2), 0, (2,), (POINT,)),
        None,
    ),
    (
        GroupSpec,
        "family level det_index",
        ("gamma0", T, 2),
        (("gamma1", T), ("gamma1", T, 1)),
    ),
    (Generator, "degree t_exp s_exp", (1, 2, 0), None),
    (Relation, "weight combo", (4, REL.combo), None),
    (
        DegreeLog,
        "weight h0 monomial_count span_rank kernel_count absorbed_count"
        " new_generators new_relations",
        (4, 2, 3, 2, 1, 0, (GEN,), (REL,)),
        None,
    ),
    (
        RingPresentation,
        "generators relations truncation_weight degree_logs",
        ((GEN,), (REL,), 8, (LOG,)),
        None,
    ),
    (
        VanishingProfile,
        "k v_inf v_e v_other",
        (28, 1, 1, (1,)),
        ((4,), (4, 0, 0, ())),
    ),
]


@pytest.mark.parametrize(
    "cls, names, values, short", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_contract(cls, names, values, short):
    fields = tuple(names.split())
    assert cls._fields == fields
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert tuple(getattr(by_position, name) for name in fields) == values
    assert repr(by_position) == "%s(%s)" % (
        cls.__name__,
        ", ".join("%s=%r" % pair for pair in zip(fields, values)),
    )
    if short is not None:
        args, full = short
        assert cls(*args) == full
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, name, values[0])
    with pytest.raises(AttributeError):
        by_position.extra = 1  # no instance dict


def test_records_are_tuples():
    degree, t_exp, s_exp = GEN
    assert (degree, t_exp, s_exp) == GEN == (1, 2, 0)
    assert GEN._replace(t_exp=3) == Generator(1, 3, 0)
    assert CuspSet(((T, T + 1),), (24,), 24).count == 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GroupSpec("bogus", T), "unknown family 'bogus'"),
        (lambda: GroupSpec("full", T), "the full group carries no level"),
        (lambda: GroupSpec("gamma0", None), "family gamma0 requires a level"),
        (lambda: GroupSpec("gamma1", PolyA.one(F5)), "level must be nonconstant"),
        (lambda: Parity("Bogus", 0), "unknown parity kind 'Bogus'"),
        (lambda: Parity("NonSquare", 0), "NonSquare requires a non-square-det witness"),
        (
            lambda: Parity("NonSquare", 0, SQUARE),
            "NonSquare requires a non-square-det witness",
        ),
        (lambda: VanishingProfile(-4), "k must be nonnegative, got -4"),
        (lambda: VanishingProfile(4, v_inf=-1), "v_inf must be nonnegative, got -1"),
        (lambda: VanishingProfile(4, 0, -2), "v_e must be nonnegative, got -2"),
        (
            lambda: VanishingProfile(4, v_other=[0, -1]),
            r"v_other must be nonnegative, got \(0, -1\)",
        ),
    ],
)
def test_validated_records_reject_bad_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_vanishing_orders_at_other_points_are_stored_as_a_tuple():
    assert VanishingProfile(k=4, v_other=[1]).v_other == (1,)
