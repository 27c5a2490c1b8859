"""Invariants of Drinfeld modular curves for congruence subgroups.

Three computations give invariants of a congruence subgroup:

  * cusps: orbits of primitive vectors in (A/N)^2 under the group's image
    mod N and the scalars, closed one scalar class at a time under a small
    generating set of the image per family (the group mod N is finite, so
    no inverses are needed; the torus comes from a generating set of
    (A/N)^x).  After parsing, residues are int codes: multiplication tables
    by linearity, primitivity by the roots of N and the codes walked in
    sort-key order, with no polynomial arithmetic (see `_Residues`);
  * elliptic witnesses: exhaustive search of a family-shaped parameter box
    for non-scalar members whose fixed-point quadratic
    z^2 + ((d-a)/c) z - b/c is irreducible over K (equivalently, whose
    discriminant ((a+d)^2 - 4 det)/c^2 is not a square in K); each pair
    (trace, determinant) is decided once per request, the box is walked
    over (a, d), and the candidates (b, c) are read from a per-request
    table of the products bc, so no candidate is divided; a witness record
    takes its determinant from the code the walk read, and its quadratic
    is put in lowest terms with no Euclid when c has degree <= 1;
  * parity: square / non-square classification of the group from the
    witness determinants, which fixes the stabilizer index [G_e : (G_2)_e];
    it reads the search up to the first non-empty block of one value of a,
    which is proved to decide.

The two preset curves, the full-group square-determinant curve and the
Gamma_0(T) square-determinant curve, are published data: genus and the
stabilizer orders of their cusps and elliptic points as closed forms in q.
The computations above are their test oracles, not their inputs.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import reduce

from .congruence import GroupSpec, _mat2
from .ffarith import (
    PolyA,
    RatK,
    WorkBoundError,
    _poly,
)

ELLIPTIC_BOX_LIMIT = 500_000
CUSP_LEVEL_DEG_LIMIT = 2

PRESETS = ("GL2A_2", "Gamma0T_2")


class CuspSet(namedtuple("CuspSet", "reps sizes total")):
    """Orbit representatives of primitive vectors mod the level."""

    __slots__ = ()

    @property
    def count(self):
        return len(self.reps)


class EllipticWitness(
    namedtuple("EllipticWitness", "gamma quad_b quad_c det det_is_square")
):
    """A non-scalar group element with K-irreducible fixed-point quadratic.

    gamma is the Mat2 (a, b; c, d) and det its FqElem determinant.  The
    RatKs quad_b = (d-a)/c and quad_c = -b/c are the coefficients of the monic
    quadratic z^2 + quad_b*z + quad_c fixed by gamma; the discriminant
    quad_b^2 - 4*quad_c is nonzero and not a square in K.
    """

    __slots__ = ()


class Parity(namedtuple("Parity", "kind bound witness")):
    """Square / non-square classification with the degree bound searched.

    kind is "Square" or "NonSquare"; a NonSquare result stores an
    EllipticWitness with non-square determinant, a Square one None.
    """

    __slots__ = ()

    def __new__(cls, kind, bound, witness=None):
        if kind not in ("Square", "NonSquare"):
            raise ValueError("unknown parity kind %r" % (kind,))
        if kind == "NonSquare":
            if witness is None or witness.det_is_square:
                raise ValueError("NonSquare requires a non-square-det witness")
        return super().__new__(cls, kind, bound, witness)


class EllipticPointRecord(
    namedtuple("EllipticPointRecord", "stab_order stab_order_sq")
):
    """One elliptic point with its stabilizer orders (modulo scalars) in the
    group and in its square-determinant subgroup."""

    __slots__ = ()


class CurveInvariants(
    namedtuple("CurveInvariants", "q group genus cusp_stab_orders elliptic_points")
):
    """Genus and the stabilizer orders of the cusps (ints) and elliptic points
    (EllipticPointRecords) of the curve of a GroupSpec over F_q."""

    __slots__ = ()


class _Residues:
    """A/N with each residue coded as one int 0 <= r < R = q^deg N.

    The base-q digits of r are the F_q codes of the residue's coefficients,
    the constant term most significant, so its base-p digits are F_p
    coordinates.  The tables are int lists, built with no PolyA arithmetic:
    `add[x][y]`, the base-p digits added mod p; `mul_table(m)` by linearity,
    from the images m*T^i mod N of a multiply-by-T step (shift the digits,
    fold the top one back in as -N_j/lc(N)) scaled by the q constants;
    `order`, the codes in sort-key order; `mask[r]`, bit i set when the i-th
    prime factor of N divides r.  As deg N <= CUSP_LEVEL_DEG_LIMIT = 2
    (degree 3 allows (T - x) times an irreducible quadratic), these are the
    T - x for the roots x of N in F_q, or N alone, so gcd(u, v, N) = 1 iff
    mask[u] & mask[v] == 0, and r is a unit iff mask[r] == 0.
    """

    def __init__(self, N):
        field = N.field
        q = field.q
        if q ** (2 * N.degree) > ELLIPTIC_BOX_LIMIT:
            raise WorkBoundError(
                "residue space too large: %d^%d pairs exceed ELLIPTIC_BOX_LIMIT = %d"
                % (q, 2 * N.degree, ELLIPTIC_BOX_LIMIT)
            )
        self.field = field
        self.place = place = [q**i for i in reversed(range(N.degree))]
        add, mul, p = field.add, field.mul, field.p
        # each step appends a least significant digit: base p to sums, base q to the order
        self.add = digit = [[(x + y) % p for y in range(p)] for x in range(p)]
        for _ in range(N.degree * field.e - 1):
            self.add = [[hi * p + lo for hi in high for lo in low] for high in self.add for low in digit]
        self.order = by_coords = sorted(range(q), key=field.coords.__getitem__)
        for _ in place[1:]:
            self.order = [hi * q + lo for hi in self.order for lo in by_coords]
        # fold[c] = c * T^n = -c * (N_0 + ... + N_(n-1) T^(n-1)) / lc(N) mod N, n = deg N
        lc_inv = field.inv(N.coeffs[-1])
        top = [field.neg(mul(c, lc_inv)) for c in N.coeffs[:-1]]
        self.fold = [sum(mul(c, d) * v for d, v in zip(top, place)) for c in range(q)]
        # the prime factors of N: T - x for each root x (Horner's rule), or N
        # alone, of code 0; bit i of mask[r] marks the multiples of the i-th
        horner = lambda x: reduce(lambda y, c: add(mul(y, x), c), N.coeffs[::-1], 0)
        t = self.add[place[0] // q][self.fold[place[0] % q]]  # T mod N
        factors = [self.add[t][field.neg(x) * place[0]] for x in range(q) if not horner(x)]
        self.mask = [0] * len(self.order)
        for i, f in enumerate(factors or [0]):
            for r in self.mul_table(f):
                self.mask[r] |= 1 << i

    def mul_table(self, m):
        """table[r] = the code of m * r mod N, for the code m."""
        add, mul, fold, q = self.add, self.field.mul, self.fold, self.field.q
        table = [0]
        for _ in self.place:
            # m runs through the images of 1, T, ..., T^(n-1), scaled by each c
            scaled = [0] * q
            for p in self.place:
                scaled = [s + mul(c, m // p % q) * p for c, s in enumerate(scaled)]
            table = [add[t][s] for t in table for s in scaled]
            m = add[m // q][fold[m % q]]
        return table

    def poly(self, r):
        """The residue of the code r as a PolyA."""
        return _poly(self.field, [r // p % self.field.q for p in self.place])


def _mod_n_generators(G, res):
    """A generating set of the image of G mod N, as code tables.

    A generator (a, b; c, d) of residue codes is returned as the four
    tables `res.mul_table` of its entries, one table per distinct entry.
    The group mod N is finite, so a forward closure under any generating
    set reaches a whole orbit and no inverses are listed.  The scalars are
    left to `cusps`, which walks their classes; gammaN has the trivial
    image and no generator.  The others have the elementary matrices
    (1, x; 0, 1), and (1, 0; x, 1) for the full group, with x over the
    F_p-basis a_j T^i of A/N (code p^j times the place of T^i); one
    diagonal matrix whose determinant generates the allowed determinant
    subgroup; and for gamma0 and the full group the torus (r, 0; 0, r^-1)
    for r over a generating set of (A/N)^x, r^-1 read off the table of r.
    That set is found by walking the units (mask 0) in code order and
    keeping r when it is not yet in the subgroup the kept ones generate.
    """
    if G.family == "gammaN":
        return []
    field = res.field
    one = res.place[0]  # the code of the constant 1
    tables = {}
    basis = [field.p**j * v for v in res.place for j in range(field.e)]
    gens = [(one, x, 0, one) for x in basis]
    det_vals = G.det_values(field)
    delta = det_vals[1 % len(det_vals)].code * one
    if G.family == "gamma1":
        gens.append((one, 0, 0, delta))
    else:
        span = {one}
        for r, mask in enumerate(res.mask):
            if r in span or mask:
                continue
            mul = tables[r] = res.mul_table(r)
            gens.append((r, 0, 0, mul.index(one)))
            # add the cosets r^k * span until r^k lies in span
            coset = [mul[s] for s in span]
            while coset[0] not in span:
                span.update(coset)
                coset = [mul[s] for s in coset]
        gens.append((delta, 0, 0, one))
        if G.family == "full":
            gens.extend((one, 0, x, one) for x in basis)
    tables.update((m, res.mul_table(m)) for m in set(itertools.chain(*gens)) - tables.keys())
    return [tuple(map(tables.__getitem__, gen)) for gen in gens]


def cusps(G, field):
    """Cusp orbits over G.field_for(field): primitive vectors mod image and scalars.

    The full group uses the internal level T (any level gives one orbit
    since the action is transitive).  Levels of degree > 2 exceed the
    work bound.  The closure runs on residue codes: one step reads four
    multiplication tables and the addition table twice.  The scalars act
    freely on primitive vectors and commute with the image, so the walk
    steps one popped vector per class c*(u, v), marking the class along the
    table of gen*1; an orbit has q - 1 times as many vectors as classes.
    Primitive vectors (disjoint root masks) are walked in sort-key order, so
    each new orbit starts at its least element; only these reps become PolyA.
    """
    field = G.field_for(field)
    N = G.level if G.level is not None else PolyA.T(field)
    if N.degree > CUSP_LEVEL_DEG_LIMIT:
        raise WorkBoundError(
            "cusp computation limited to levels of degree <= CUSP_LEVEL_DEG_LIMIT"
            " = %d: the level has degree %d" % (CUSP_LEVEL_DEG_LIMIT, N.degree)
        )
    res = _Residues(N)
    order, mask, add = res.order, res.mask, res.add
    R, units = len(order), field.q - 1
    prim = [(u, v) for u in order for v in order if not mask[u] & mask[v]]
    gens = _mod_n_generators(G, res)
    scale = res.mul_table(field.gen.code * res.place[0])
    seen = bytearray(R * R)
    reps, sizes = [], []
    for u0, v0 in prim:
        if seen[u0 * R + v0]:
            continue
        stack, size = [(u0, v0)], 0
        while stack:
            u, v = stack.pop()
            if seen[u * R + v]:
                continue
            size += units
            for _ in range(units):  # gen has order q - 1: this ends at (u, v)
                seen[u * R + v] = 1
                u, v = scale[u], scale[v]
            for ma, mb, mc, md in gens:
                x = add[ma[u]][mb[v]]
                y = add[mc[u]][md[v]]
                if not seen[x * R + y]:
                    stack.append((x, y))
        reps.append((u0, v0))
        sizes.append(size)
    poly = {r: res.poly(r) for r in set(itertools.chain(*reps))}  # one PolyA per code
    return CuspSet(tuple((poly[u], poly[v]) for u, v in reps), tuple(sizes), len(prim))


def _polys_up_to(field, deg_bound):
    """All polynomials of degree <= deg_bound, ascending enumeration."""
    codes = range(field.q)
    return [_poly(field, list(c)) for c in itertools.product(codes, repeat=deg_bound + 1)]


def elliptic_search(G, deg_bound, field):
    """Exhaustive witness search in the family's box over G.field_for(field).

    Box shapes (parameters range over all polynomials of degree <=
    deg_bound): full (a, b; c, d); gamma1 (aN+1, b; cN, d); gamma0
    (a1*N+a0, b; cN, d) with linear level N, where a1*N + a0 runs over
    every polynomial of degree <= deg_bound + 1.  The box lies in G by
    construction (N divides c, a = 1 mod N for gamma1, and the determinant
    is an allowed delta), so no membership test is run.  A member with
    c != 0 is a witness when its fixed-point discriminant
    ((a+d)^2 - 4*delta)/c^2 is nonzero and not a square in K, that is, when
    tr^2 - 4*delta is nonzero and not a square in A; that depends only on
    the pair (tr, delta) = (a + d, ad - bc), and each pair is decided once.
    The walk runs over (a, d) and reads the candidates (b, c) from a table
    of products, so no candidate needs a polynomial division (see
    `_witness_blocks`).  Output is sorted lexicographically on matrix
    entries: a is walked in sort-key order and each a-block is sorted on
    its own.
    """
    return [w for block in _witness_blocks(G, deg_bound, field) for w in block]


def _witness_blocks(G, deg_bound, field):
    """The witnesses of `elliptic_search`, one sorted list per a, in order.

    The arguments are checked, and a box over ELLIPTIC_BOX_LIMIT refused,
    before any table is built.  Two tables are then built for the request:
      * the allowed determinant codes of each trace.  A nonconstant trace
        allows every delta: tr^2 - 4*delta = s^2 would factor the unit
        4*delta as (tr - s)(tr + s), so both factors, and with them tr,
        would be constants.  A constant trace t allows delta when
        t^2 - 4*delta is a nonzero non-square of F_q; `rows` holds these
        sets, keyed on the coefficients of t;
      * `products` maps the coefficients of degree >= 1 of b*c, for every
        b of degree <= deg_bound and every c of the box, to the list of
        rows [constant term of b*c, b, c, -b/c once a witness has needed
        it, rank of b, rank of c].
    The polynomials b and d, the c of the box and the a of the box are
    each listed once in sort-key order, and a rank is a position in such a
    list; a row carries the ranks of its b and c and the walk reads the
    rank of d as its position, so a block is sorted on the integer triple
    (rank b, rank c, rank d), which orders it as the entries' sort keys
    do.  The allowed determinants are kept as one FqElem per code, which
    every witness of that determinant shares.
    As ad - bc = delta is a constant, ad and bc agree in degree >= 1: the
    candidates for a given (a, d) are one lookup on the degree >= 1 part of
    ad, and delta = (ad)_0 - (bc)_0, which is then the determinant of the
    witness.  Each block is searched when it is read.
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
    dets = {x.code: x for x in G.det_values(field)}
    sub, mul, log = field.sub, field.mul, field.log
    four = field.elem(4).code
    rows = {}
    for t in range(field.q):
        discs = ((x, sub(mul(t, t), mul(four, x))) for x in dets)
        rows[(t,) if t else ()] = {x for x, y in discs if y and log[y] % 2}
    polys = sorted(_polys_up_to(field, deg_bound), key=PolyA.sort_key)
    N = G.level
    if G.family == "full":
        a_vals, c_vals = polys, polys[1:]
    else:
        c_vals = sorted((c * N for c in polys[1:]), key=PolyA.sort_key)
        if G.family == "gamma1":
            a_vals = sorted((a * N + 1 for a in polys), key=PolyA.sort_key)
        else:
            a_vals = sorted(_polys_up_to(field, deg_bound + 1), key=PolyA.sort_key)
    products = {}
    for rc, c in enumerate(c_vals):
        for rb, b in enumerate(polys):
            bc = (b * c).coeffs or (0,)
            products.setdefault(bc[1:], []).append([bc[0], b, c, None, rb, rc])
    return (_a_block(a, polys, dets, rows, products) for a in a_vals)


def _a_block(a, d_vals, dets, rows, products):
    """The witnesses with upper-left entry a, sorted on matrix entries.

    A d is skipped when its trace a + d allows no determinant; otherwise
    the candidates (b, c) are the `products` entry of the degree >= 1 part
    of ad, and one is a witness when its determinant code
    delta = (ad)_0 - (bc)_0 is allowed for the trace.  The box is
    unit-determinant by construction, so gamma takes delta unchecked, and
    det is the shared FqElem `dets[delta]`.  `d_vals` lists the d in
    sort-key order, so a d's rank is its position; the block is sorted on
    the ranks of (b, c, d).
    """
    field = a.field
    sub, log = field.sub, field.log
    block = []
    for rd, d in enumerate(d_vals):
        allowed = rows.get((a + d).coeffs, dets)
        if not allowed:
            continue
        ad = (a * d).coeffs or (0,)
        d_minus_a = d - a
        for entry in products.get(ad[1:], ()):
            bc0, b, c, quad_c, rb, rc = entry
            delta = sub(ad[0], bc0)
            if delta not in allowed:
                continue
            if quad_c is None:
                quad_c = entry[3] = RatK(-b, c)
            det = dets[delta]
            w = EllipticWitness(
                gamma=_mat2(a, b, c, d, det),
                quad_b=RatK(d_minus_a, c),
                quad_c=quad_c,
                det=det,
                det_is_square=log[delta] % 2 == 0,
            )
            block.append((rb, rc, rd, w))
    # a is the same throughout the block, so the ranks of (b, c, d) decide
    # the order; they differ between any two witnesses, so no w is compared
    block.sort()
    return [w for _, _, _, w in block]


def parity(G, deg_bound, field):
    """Square / non-square classification over G.field_for(field), by witness determinants.

    The a-blocks of `elliptic_search` are read up to the first non-empty
    one: its first non-square-determinant witness gives NonSquare, and
    without one the result is Square.  That block decides, as it holds a
    witness of every allowed non-square delta, and one exists (an empty
    search raises AssertionError).  Proof: a box element with
    c != 0 is a witness when tr^2 - 4*delta is a nonzero non-square in A,
    as it is for every nonconstant trace (see `_witness_blocks`).
      * full: a = 0 comes first; there b, c are constants with bc = -delta
        and d = tr is free.  The character sum sum_t chi(t^2 - 4*delta)
        = -1 (t^2 - s^2 = D != 0 has q - 1 solutions) has no zero term for
        a non-square delta and two for a square one, so (q+1)/2, resp.
        (q-1)/2, constants t make (0, -delta/c, c, t) a witness.
      * gamma1: (a'N + 1, delta, a'N, delta) is a witness for a' != 0.  At
        a = 1, d = delta + bc'N: at deg-bound 0 that forces b = 0 and the
        discriminant (1 - delta)^2, so the block is empty; above it,
        (1, 1, N, delta + N) is a witness.
      * gamma0: N | a empties the block, as N then divides ad - bc.  Else
        d = delta/a(r), r the root of N, gives ad - delta = mN, and a
        nonconstant a makes (a, m, N, d) a witness, as deg m < deg a.  A
        constant a forces b = 0 and the discriminant (a - d)^2 at
        deg-bound 0, and gives the witness (a, a, N, delta/a + N) above.
    """
    for block in filter(None, _witness_blocks(G, deg_bound, field)):
        w = next((w for w in block if not w.det_is_square), None)
        return Parity("NonSquare" if w else "Square", deg_bound, w)
    raise AssertionError("every a-block of the witness search is empty")


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
