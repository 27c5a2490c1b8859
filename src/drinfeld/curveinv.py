"""Invariants of Drinfeld modular curves for congruence subgroups.

Three computations give invariants of a congruence subgroup:

  * cusps: orbits of primitive vectors in (A/N)^2 under the group's image
    mod N together with scalar rescaling, found by forward closure under a
    small generating set per family (the group mod N is finite, so no
    inverses are needed);
  * elliptic witnesses: exhaustive search of a family-shaped parameter box
    for non-scalar members whose fixed-point quadratic
    z^2 + ((d-a)/c) z - b/c is irreducible over K (equivalently, whose
    discriminant ((a+d)^2 - 4 det)/c^2 is not a square in K); the box is
    walked over (a, c, d) and b is solved from each allowed determinant,
    and each witness is recorded with its determinant;
  * parity: square / non-square classification of the group from the
    witness determinants, which fixes the stabilizer index [G_e : (G_2)_e].

The two preset curves, the full-group square-determinant curve and the
Gamma_0(T) square-determinant curve, are published data: genus and the
stabilizer orders of their cusps and elliptic points as closed forms in q.
The computations above are their test oracles, not their inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .congruence import GroupSpec, Mat2
from .ffarith import (
    FqElem,
    PolyA,
    RatK,
    WorkBoundError,
    _poly,
    is_square_fq,
    poly_ext_gcd,
    poly_sqrt,
)

ELLIPTIC_BOX_LIMIT = 500_000
CUSP_LEVEL_DEG_LIMIT = 2

PRESETS = ("GL2A_2", "Gamma0T_2")


@dataclass(frozen=True)
class CuspSet:
    """Orbit representatives of primitive vectors mod the level."""

    reps: tuple
    sizes: tuple
    total: int

    @property
    def count(self):
        return len(self.reps)


@dataclass(frozen=True)
class EllipticWitness:
    """A non-scalar group element with K-irreducible fixed-point quadratic.

    quad_b = (d-a)/c and quad_c = -b/c are the coefficients of the monic
    quadratic z^2 + quad_b*z + quad_c fixed by gamma; the discriminant
    quad_b^2 - 4*quad_c is nonzero and not a square in K.
    """

    gamma: Mat2
    quad_b: RatK
    quad_c: RatK
    det: FqElem
    det_is_square: bool

    def disc(self):
        return self.quad_b * self.quad_b - self.quad_c * 4


@dataclass(frozen=True)
class Parity:
    """Square / non-square classification, honest about the search bound.

    kind is "Square", "NonSquare", or "NoWitnessFound"; a NonSquare result
    stores a witness with non-square determinant.
    """

    kind: str
    bound: int
    witness: EllipticWitness | None = None

    def __post_init__(self):
        if self.kind not in ("Square", "NonSquare", "NoWitnessFound"):
            raise ValueError("unknown parity kind %r" % (self.kind,))
        if self.kind == "NonSquare":
            if self.witness is None or self.witness.det_is_square:
                raise ValueError("NonSquare requires a non-square-det witness")


@dataclass(frozen=True)
class EllipticPointRecord:
    """One elliptic point with its stabilizer orders (modulo scalars) in the
    group and in its square-determinant subgroup."""

    stab_order: int
    stab_order_sq: int


@dataclass(frozen=True)
class CurveInvariants:
    q: int
    group: GroupSpec
    genus: int
    cusp_stab_orders: tuple
    elliptic_points: tuple


def _residues(N):
    """All residues mod N, as reduced polynomials of degree < deg N."""
    return _polys_up_to(N.field, N.degree - 1)


def primitive_vectors(N):
    """All (u, v) in (A/N)^2 with gcd(u, v, N) = 1."""
    if N.is_zero() or N.is_constant():
        raise ValueError("level must be nonconstant")
    field = N.field
    if field.q ** (2 * N.degree) > ELLIPTIC_BOX_LIMIT:
        raise WorkBoundError(
            "residue space too large: %d^%d pairs exceed ELLIPTIC_BOX_LIMIT = %d"
            % (field.q, 2 * N.degree, ELLIPTIC_BOX_LIMIT)
        )
    res = _residues(N)
    one = PolyA.one(field)
    out = []
    for u in res:
        gu = u.gcd(N)
        if gu == one:
            out.extend((u, v) for v in res)
            continue
        for v in res:
            if gu.gcd(v) == one:
                out.append((u, v))
    return out


def _mod_n_generators(G, N):
    """A generating set of <image of G mod N, scalars>.

    Matrices are (a, b, c, d) tuples of residues.  The group mod N is
    finite, so a forward closure under any generating set reaches a whole
    orbit and no inverses are listed.  gen*I generates the scalars, which
    realize the F_q^x rescaling of primitive vectors.  The rest generate the
    group's image mod N: the elementary matrices (1, x; 0, 1), and
    (1, 0; x, 1) for the full group, with x over the F_p-basis a_j T^i of
    A/N (a_j the element of code p^j); one diagonal matrix whose determinant
    generates the allowed determinant subgroup; and for gamma0 and the full
    group the torus (r, 0; 0, r^-1) over all units r mod N.
    """
    field = N.field
    zero = PolyA.zero(field)
    one = PolyA.one(field)
    scalar = PolyA.const(field, field.gen)
    gens = [(scalar, zero, zero, scalar)]
    if G.family == "gammaN":
        return gens
    basis = [
        _poly(field, [0] * i + [field.p**j])
        for i in range(N.degree)
        for j in range(field.e)
    ]
    gens.extend((one, x, zero, one) for x in basis)
    det_vals = G.det_values(field)
    delta = PolyA.const(field, det_vals[1 % len(det_vals)])
    if G.family == "gamma1":
        gens.append((one, zero, zero, delta))
        return gens
    for r in _residues(N):
        g, s, _ = poly_ext_gcd(r, N)
        if g == one:
            gens.append((r, zero, zero, s % N))
    gens.append((delta, zero, zero, one))
    if G.family == "full":
        gens.extend((one, zero, x, one) for x in basis)
    return gens


def cusps(G, field=None):
    """Cusp orbits: primitive vectors mod the group image and scalars.

    The full group uses the internal level T (any level gives one orbit
    since the action is transitive).  Levels of degree > 2 exceed the
    work bound.
    """
    field = G.field_for(field)
    N = G.level if G.level is not None else PolyA.T(field)
    if N.degree > CUSP_LEVEL_DEG_LIMIT:
        raise WorkBoundError(
            "cusp computation limited to levels of degree <= CUSP_LEVEL_DEG_LIMIT"
            " = %d: the level has degree %d" % (CUSP_LEVEL_DEG_LIMIT, N.degree)
        )
    prim = primitive_vectors(N)
    gens = _mod_n_generators(G, N)
    seen = set()
    orbits = []
    for start in prim:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        orbit = [start]
        while stack:
            u, v = stack.pop()
            for a, b, c, d in gens:
                w = ((a * u + b * v) % N, (c * u + d * v) % N)
                if w not in seen:
                    seen.add(w)
                    orbit.append(w)
                    stack.append(w)
        orbits.append(orbit)
    keyed = []
    for orbit in orbits:
        rep = min(orbit, key=lambda w: (w[0].sort_key(), w[1].sort_key()))
        keyed.append((rep, len(orbit)))
    keyed.sort(key=lambda item: (item[0][0].sort_key(), item[0][1].sort_key()))
    return CuspSet(
        reps=tuple(rep for rep, _ in keyed),
        sizes=tuple(size for _, size in keyed),
        total=len(prim),
    )


def _polys_up_to(field, deg_bound):
    """All polynomials of degree <= deg_bound, ascending enumeration."""
    codes = range(field.q)
    return [_poly(field, list(c)) for c in itertools.product(codes, repeat=deg_bound + 1)]


def elliptic_search(G, deg_bound, field=None):
    """Exhaustive witness search over the family's parameter box.

    Box shapes (parameters range over all polynomials of degree <=
    deg_bound): full (a, b; c, d); gamma1 (aN+1, b; cN, d); gamma0
    (a1*N+a0, b; cN, d) with linear level N, where a1*N + a0 runs over
    every polynomial of degree <= deg_bound + 1.  The box is walked over
    (a, c, d) with c nonzero, and b is solved from the determinant: for
    each allowed determinant delta, b = (ad - delta)/c is kept when the
    division is exact and deg b <= deg_bound.  The box lies in G by
    construction (N divides c, a = 1 mod N for gamma1, and the determinant
    is an allowed delta), so no membership test is run.  A candidate is kept
    as a witness when its fixed-point discriminant ((a+d)^2 - 4*delta)/c^2
    is nonzero and not a square in K, that is, when (a+d)^2 - 4*delta is
    not a square in A.  Output is sorted lexicographically on matrix entries.
    """
    if deg_bound < 0:
        raise ValueError("deg_bound must be non-negative, got %d" % deg_bound)
    field = G.field_for(field)
    if G.family == "gammaN":
        raise ValueError("witness search is not defined for identity-congruence groups")
    if G.family in ("gamma1", "gamma0"):
        if G.level.degree != 1:
            raise ValueError("witness search requires a linear level")
    # box size q^exponent; as q > 2, an exponent of the limit's bit length exceeds it
    exponent = (deg_bound + 1) * {"full": 4, "gamma1": 4, "gamma0": 5}[G.family]
    if exponent >= ELLIPTIC_BOX_LIMIT.bit_length() or field.q**exponent > ELLIPTIC_BOX_LIMIT:
        raise WorkBoundError(
            "elliptic search box too large: %d^%d candidates exceed"
            " ELLIPTIC_BOX_LIMIT = %d" % (field.q, exponent, ELLIPTIC_BOX_LIMIT)
        )
    polys = _polys_up_to(field, deg_bound)
    N = G.level
    if G.family == "full":
        a_vals, c_vals = polys, polys[1:]
    else:
        c_vals = [c * N for c in polys[1:]]
        if G.family == "gamma1":
            a_vals = [a * N + 1 for a in polys]
        else:
            a_vals = _polys_up_to(field, deg_bound + 1)
    dets = [PolyA.const(field, x) for x in G.det_values(field)]
    witnesses = []
    for a, c, d in itertools.product(a_vals, c_vals, polys):
        ad = a * d
        tr = a + d
        for delta in dets:
            b, r = divmod(ad - delta, c)
            if r or b.degree > deg_bound:
                continue
            disc = tr * tr - delta * 4
            if disc.is_zero() or poly_sqrt(disc) is not None:
                continue
            gamma = Mat2(a, b, c, d)
            witnesses.append(
                EllipticWitness(
                    gamma=gamma,
                    quad_b=RatK(d - a, c),
                    quad_c=RatK(-b, c),
                    det=gamma.det,
                    det_is_square=is_square_fq(gamma.det),
                )
            )
    witnesses.sort(key=lambda w: w.gamma.sort_key())
    return witnesses


def parity(G, deg_bound, field=None):
    """Square / non-square classification from the witness determinants."""
    witnesses = elliptic_search(G, deg_bound, field)
    if not witnesses:
        return Parity("NoWitnessFound", deg_bound)
    for w in witnesses:
        if not w.det_is_square:
            return Parity("NonSquare", deg_bound, w)
    return Parity("Square", deg_bound)


def assemble_invariants(preset, field):
    """Invariants of the two preset square-determinant curves.

    GL2A_2: the curve of the square-determinant subgroup of GL2(A); one
    cusp of stabilizer order (q-1)/2 and one elliptic point of stabilizer
    order q+1 in the full group, (q+1)/2 in the subgroup.

    Gamma0T_2: the curve of the square-determinant subgroup of
    Gamma_0(T); two stacky cusps of stabilizer order (q-1)/2 each and no
    elliptic points.
    """
    q = field.q
    if preset == "GL2A_2":
        return CurveInvariants(
            q=q,
            group=GroupSpec("full", None, 2),
            genus=0,
            cusp_stab_orders=((q - 1) // 2,),
            elliptic_points=(EllipticPointRecord(q + 1, (q + 1) // 2),),
        )
    if preset == "Gamma0T_2":
        return CurveInvariants(
            q=q,
            group=GroupSpec("gamma0", PolyA.T(field), 2),
            genus=0,
            cusp_stab_orders=((q - 1) // 2, (q - 1) // 2),
            elliptic_points=(),
        )
    raise ValueError("unknown preset %r" % (preset,))
