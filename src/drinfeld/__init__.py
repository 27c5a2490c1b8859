"""Exact arithmetic for Drinfeld modular curves and their form rings.

The layers, bottom up: finite fields, the polynomial ring A = F_q[T], its
fraction field K, and Laurent series over the place at infinity (ffarith);
congruence subgroups of GL_2(A) with determinant restrictions and their
square-determinant subgroups (congruence); weight/type bookkeeping,
dimension formulas, and the valence check (weights); cusp orbits, elliptic
witness search, and square/non-square parity (curveinv); Q-divisors on the
projective line, Riemann-Roch sections, and graded section-ring
presentations (qdiv); truncated u-series with the type-splitting operator
(useries); and a CLI over all of it (cli).
"""

from .ffarith import (
    DEFAULT_PREC,
    Fq,
    FqElem,
    LaurentKInf,
    ParseError,
    PolyA,
    PrecisionError,
    RatK,
    WorkBoundError,
    format_poly,
    is_square_fq,
    is_square_kinf,
    laurent_expand,
    parse_poly,
    quad_irreducible_kinf,
    sqrt_fq,
)
from .congruence import (
    DET_ALL,
    DET_SQUARES,
    FAMILIES,
    GroupSpec,
    Mat2,
    coset_rep_nonsquare,
    det_image_order,
    gamma2_of,
    member,
    parse_group,
    quotient_order,
)
from .weights import (
    VanishingProfile,
    decompose_gamma2,
    dim_gamma0T,
    type_solutions,
    valence_check,
)
from .curveinv import (
    CurveInvariants,
    CuspSet,
    EllipticPointRecord,
    EllipticWitness,
    Parity,
    PRESETS,
    assemble_invariants,
    cusps,
    elliptic_search,
    parity,
)
from .qdiv import (
    DegreeLog,
    Generator,
    QDivisor,
    QPoint,
    Relation,
    RingPresentation,
    h0,
    h0_weighted,
    log_canonical_divisor,
    presentation,
)
from .useries import (
    DEFAULT_USERIES_PREC,
    SupportError,
    USeries,
    check_support,
    parse_useries,
    scale_u,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PREC",
    "DEFAULT_USERIES_PREC",
    "DET_ALL",
    "DET_SQUARES",
    "FAMILIES",
    "PRESETS",
    "CurveInvariants",
    "CuspSet",
    "DegreeLog",
    "EllipticPointRecord",
    "EllipticWitness",
    "Fq",
    "FqElem",
    "Generator",
    "GroupSpec",
    "LaurentKInf",
    "Mat2",
    "Parity",
    "ParseError",
    "PolyA",
    "PrecisionError",
    "QDivisor",
    "QPoint",
    "RatK",
    "Relation",
    "RingPresentation",
    "SupportError",
    "USeries",
    "VanishingProfile",
    "WorkBoundError",
    "assemble_invariants",
    "check_support",
    "coset_rep_nonsquare",
    "cusps",
    "decompose_gamma2",
    "det_image_order",
    "dim_gamma0T",
    "elliptic_search",
    "format_poly",
    "gamma2_of",
    "h0",
    "h0_weighted",
    "is_square_fq",
    "is_square_kinf",
    "laurent_expand",
    "log_canonical_divisor",
    "member",
    "parity",
    "parse_group",
    "parse_poly",
    "parse_useries",
    "presentation",
    "quad_irreducible_kinf",
    "quotient_order",
    "scale_u",
    "split",
    "sqrt_fq",
    "type_solutions",
    "valence_check",
]
