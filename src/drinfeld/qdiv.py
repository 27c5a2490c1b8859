"""Q-divisors on the projective line and section rings of their multiples.

Divisors are supported at the three points 0, 1, infinity of P^1 with exact
rational coefficients.  Riemann-Roch in genus 0 gives h^0(D) = deg(floor D)
+ 1 when nonnegative, with the explicit basis t^(m-a) (t-1)^(-b) for
m = 0 .. deg, where floor(D) = a(0) + b(1) + c(inf).

The presentation engine builds the graded section ring of a Q-divisor
degree by degree: products of previously chosen generators are evaluated
as exact coefficient vectors (every such product is t^M (t-1)^B up to the
degree's common denominator, so the vectors are signed binomial rows),
new generators are drawn from the Riemann-Roch basis to fill the
complement, and kernel vectors of the monomial-evaluation map are reported
as relations once consequences of earlier relations are quotiented away.

The walk over degrees is integer arithmetic: D's three coefficients are
written over one common denominator, so floor(d*D), h^0 and the exponent
offsets of each degree are three integer floor divisions.  A product's
vector depends only on its exponent pair (M, B), so a degree reduces one
vector per pair and lists no monomial to do so: a coin-change table of the
generator degrees counts the monomials, and a degree's pairs are those of
earlier degrees translated by the generators.  Monomials are listed only
to quotient the kernel by earlier relations and to write new relations;
there a later monomial of a pair has one dependency, found without a
reduction: e_idx - e_first when the pair's first monomial was
independent, and the first one's dependency, relabelled, when it was not.

The row reduction is sparse and fraction-free: rows are {column: int}
dicts, reduced by cross-multiplication at their pivot columns only and kept
divided by their content.  A product's vector carries its exponent pair's
bookkeeping as one more column past the graded piece, so a dependent pair's
residual is its integer dependency on the earlier pairs.  Consequences of
earlier relations lie in the kernel, and the kernel vectors of a degree are
independent (each has its own dependent monomial), so once the
consequences reach the kernel's dimension every remaining kernel vector is
absorbed without being reduced.  The shifts of one relation are
independent (the polynomial ring is a domain), so when the first relation
alone has that many shifts nothing is reduced at all.  A Fraction is built
in one place only, when a dependent monomial's integer dependency is
divided by its own coefficient to give the reported relation; that
relation is the unique dependency on the earlier independent monomials, so
it does not depend on how the elimination scaled its rows.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add, mul

from .ffarith import WorkBoundError
from .weights import _units

PRESENTATION_WORK_BUDGET = 50_000


class QPoint(enum.Enum):
    ZERO = "0"
    ONE = "1"
    INFINITY = "inf"


POINT_ORDER = (QPoint.ZERO, QPoint.ONE, QPoint.INFINITY)


class QDivisor:
    """A divisor with exact rational coefficients at 0, 1, infinity."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        store = {}
        if coeffs:
            for pt, val in coeffs.items():
                if not isinstance(pt, QPoint):
                    raise TypeError("divisor points must be QPoint values")
                val = Fraction(val)
                if val != 0:
                    store[pt] = val
        self._coeffs = store

    def coeff(self, pt):
        return self._coeffs.get(pt, Fraction(0))

    def support(self):
        return tuple(pt for pt in POINT_ORDER if pt in self._coeffs)

    def items(self):
        return tuple((pt, self._coeffs[pt]) for pt in self.support())

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return QDivisor({pt: v * scalar for pt, v in self._coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self):
        if not self._coeffs:
            return "0"
        names = {QPoint.ZERO: "(0)", QPoint.ONE: "(1)", QPoint.INFINITY: "(inf)"}
        return " + ".join("%s%s" % (v, names[pt]) for pt, v in self.items())


def h0(D):
    """Genus-0 Riemann-Roch: deg(floor D) + 1, clipped at 0, where the
    degree of floor D is the sum of the integer floors of D's coefficients."""
    return max(0, sum(v.numerator // v.denominator for _, v in D.items()) + 1)


def log_canonical_divisor(inv):
    """-2(inf) + sum over elliptic points (1 - 1/e) + sum over cusps (1 + 1/e).

    The elliptic point sits at coordinate 1; one cusp sits at infinity and
    a second, when present, at 0.  Stabilizer orders are those of the
    curve's own group (the square-determinant one for the presets).
    """
    if inv.genus != 0:
        raise ValueError("only genus 0 is supported")
    if len(inv.elliptic_points) > 1 or len(inv.cusp_stab_orders) > 2:
        raise ValueError("more than 3 special points")
    coeffs = {QPoint.INFINITY: Fraction(-2)}
    for ep in inv.elliptic_points:
        e = ep.stab_order_sq
        coeffs[QPoint.ONE] = coeffs.get(QPoint.ONE, Fraction(0)) + 1 - Fraction(1, e)
    if len(inv.cusp_stab_orders) == 1:
        spots = (QPoint.INFINITY,)
    else:
        spots = (QPoint.ZERO, QPoint.INFINITY)
    for spot, e in zip(spots, inv.cusp_stab_orders):
        coeffs[spot] = coeffs.get(spot, Fraction(0)) + 1 + Fraction(1, e)
    return QDivisor(coeffs)


def h0_weighted(preset, q, k, l):
    """Weight-k type-l section count on the Gamma_0(T) square-determinant curve.

    Uses the endpoint alpha = (2k - 2l - kq) / (k(q-1)) of the divisor
    family and evaluates k*alpha + k + 1 in integers, as a numerator over
    q - 1; the value is the dimension 1 + (k-2l)/(q-1) whenever that is a
    positive integer, and the space is 0 otherwise.
    """
    if preset != "Gamma0T_2":
        raise ValueError("unknown preset %r" % (preset,))
    if k <= 0 or k % 2 != 0:
        raise ValueError("weight must be even and positive")
    if not 0 <= l < _units(q):
        raise ValueError("type must be reduced mod q-1")
    return _h0_gamma0T(q, k, l)


def _h0_gamma0T(q, k, l):
    """h0_weighted for a q already checked, even k > 0 and l in [0, q-1)."""
    # k*alpha + k + 1 = ((2k - 2l - kq) + (k + 1)(q - 1)) / (q - 1)
    num = 2 * k - 2 * l - k * q + (k + 1) * (q - 1)
    return num // (q - 1) if num > 0 and num % (q - 1) == 0 else 0


class Generator(namedtuple("Generator", "degree t_exp s_exp")):
    """A chosen section of H^0(floor(d*D)): the function t^t_exp (t-1)^s_exp."""

    __slots__ = ()

    @property
    def weight(self):
        return 2 * self.degree

    def label(self):
        """The section as text, leaving out each factor of exponent 0."""
        parts = []
        if self.t_exp:
            parts.append("t^%d" % self.t_exp)
        if self.s_exp:
            parts.append("(t-1)^%d" % self.s_exp)
        return "*".join(parts) if parts else "1"


class Relation(namedtuple("Relation", "weight combo")):
    """A kernel vector of the monomial-evaluation map at one weight.

    combo lists (exponent tuple over the generators, coefficient); the
    support is the set of monomials with nonzero coefficient.
    """

    __slots__ = ()

    def support(self):
        return tuple(exps for exps, coeff in self.combo if coeff != 0)


class DegreeLog(namedtuple("DegreeLog", "weight h0 monomial_count span_rank kernel_count"
                           " absorbed_count new_generators new_relations")):
    """Exact bookkeeping for one internal degree of the presentation run."""

    __slots__ = ()


class RingPresentation(
    namedtuple("RingPresentation", "generators relations truncation_weight degree_logs")
):
    """Generators and relations of a section ring up to a truncation weight,
    with the DegreeLog of each internal degree."""

    __slots__ = ()

    def generator_weights(self):
        return tuple(g.weight for g in self.generators)

    def relation_weights(self):
        return tuple(r.weight for r in self.relations)


class _Rref:
    """Incremental fraction-free sparse row reduction over Z.

    Vectors are {column: nonzero int} dicts.  Columns below width are the
    vector proper; columns at or above it are bookkeeping, which a caller
    uses to learn how a dependent vector combines the inserted ones.  A
    stored row sits in the map pivot -> row: its pivot is its smallest
    column, below width, and it is zero at every pivot stored before it.  A
    new vector v is reduced by repeatedly eliminating its smallest column p
    that is a stored pivot, cross-multiplying with that pivot's row r,
    v <- (r[p]/g)*v - (v[p]/g)*r with g = gcd(v[p], r[p]), so every value
    stays an integer.  Rows only carry columns at or after their pivot, so
    each step leaves v zero at p and unchanged before it.  Before it is
    stored, a row is divided by its content, so it is primitive.
    """

    def __init__(self, width):
        self.width = width
        self.rows = {}  # pivot -> integer row dict

    @property
    def rank(self):
        return len(self.rows)

    def try_add(self, vec):
        """Store the reduced vector and return None if a column below width survives;
        else store nothing and return the residual, of bookkeeping columns only."""
        rows = self.rows
        vec = dict(vec)
        todo = [k for k in vec if k in rows]
        heapify(todo)
        while todo:
            piv = heappop(todo)
            f = vec.get(piv)
            if f is None:
                continue  # a duplicate entry, or a column that cancelled
            rvec = rows[piv]
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
        piv = min(vec, default=self.width)
        if piv >= self.width:
            return vec
        c = gcd(*vec.values())
        rows[piv] = {k: x // c for k, x in vec.items()} if c != 1 else vec
        return None


def _monomials(degrees, total):
    """Exponent tuples with sum(e_i * degrees_i) = total, lex descending."""
    *head, last = degrees
    level = [((), total)]  # (exponent prefix, degree left for the later generators)
    for step in head:
        level = [
            (exps + (e,), rest - e * step)
            for exps, rest in level
            for e in range(rest // step, -1, -1)
        ]
    # the last exponent is forced
    return [exps + (rest // last,) for exps, rest in level if rest % last == 0]


def _pairs(gens, firsts, d):
    """Degree d's exponent pairs as dict keys, in lex-descending order of their first
    (lex-largest) monomials, from firsts[x], the pairs of each x < d; gens run in index
    order, none of degree above d.  Exact: for the first generator i to reach a pair, its
    monomials holding e_i beat the rest, and adding e_i keeps lex order."""
    return dict.fromkeys((t + g.t_exp, s + g.s_exp) for g in gens for t, s in firsts[d - g.degree])


def _add_generator(gen, count, firsts):
    """Count gen into count[x], the monomials of degree x, and put its pair last at its
    own degree, where gen's monomial is the lex-smallest (it has the largest index)."""
    for x in range(gen.degree, len(count)):
        count[x] += count[x - gen.degree]
    firsts[gen.degree].setdefault((gen.t_exp, gen.s_exp))


def presentation(D, max_weight):
    """Generators and relations of the section ring of D up to max_weight.

    Internal degree d carries weight 2d.  Per degree: evaluate the products
    of chosen generators of total degree d as vectors in H^0(floor(d*D)),
    one per exponent pair, quotient the kernel by shifts of earlier
    relations, add Riemann-Roch basis sections (ascending index) until the
    span fills the space, and log the exact rank bookkeeping.
    """
    if max_weight < 2 or max_weight % 2 != 0:
        raise ValueError("max_weight must be an even integer >= 2")
    # D = (nz(0) + no(1) + ni(inf)) / den, so floor(d*D) is three integer floors
    coeffs = [D.coeff(pt) for pt in POINT_ORDER]
    den = lcm(*(v.denominator for v in coeffs))
    nz, no, ni = (v.numerator * (den // v.denominator) for v in coeffs)
    gens = []
    relation_rows = []  # (degree, integer combination) for each relation
    logs = []
    budget = 0
    count = [1] + [0] * (max_weight // 2)  # count[x]: the monomials of degree x
    firsts = [{(0, 0): None}]  # firsts[x]: the exponent pairs of degree x
    for d in range(1, max_weight // 2 + 1):
        a, b = d * nz // den, d * no // den
        dim_h0 = max(0, a + b + d * ni // den + 1)
        budget += (count[d] + dim_h0) * max(1, dim_h0)
        if budget > PRESENTATION_WORK_BUDGET:
            raise WorkBoundError(
                "presentation work budget exceeded at weight %d: spent %d of"
                " PRESENTATION_WORK_BUDGET = %d"
                % (2 * d, budget, PRESENTATION_WORK_BUDGET)
            )
        # one reduction per exponent pair, with its own column past the graded piece;
        # keep the column and the residual (the pair's dependency), or None if independent
        pairs = _pairs(gens, firsts, d)
        firsts.append(pairs)
        span = _Rref(dim_h0)
        for col, pair in enumerate(pairs, dim_h0):
            m_exp, b_exp = pair[0] + a, pair[1] + b
            if m_exp < 0 or b_exp < 0 or m_exp + b_exp >= dim_h0:
                raise AssertionError("product left its graded piece")
            vec = {m_exp + i: (-1) ** (b_exp - i) * comb(b_exp, i) for i in range(b_exp + 1)}
            vec[col] = 1
            pairs[pair] = col, span.try_add(vec)
        span_rank = span.rank
        kernel_count = count[d] - span_rank
        new_rels = []
        # consequences of earlier relations lie in the kernel, of dimension kernel_count;
        # one relation's shifts are independent (the polynomial ring is a domain), so
        # when the first relation has that many shifts they span the kernel unreduced
        if kernel_count and not (relation_rows and count[d - relation_rows[0][0]] == kernel_count):
            degrees, t_exps, s_exps = zip(*gens)
            monos = _monomials(degrees, d)
            mono_index = {exps: i for i, exps in enumerate(monos)}
            pad = (0,) * len(gens)
            cons = _Rref(len(monos))
            for rel_degree, combo in relation_rows:
                padded = [(exps + pad[len(exps):], c) for exps, c in combo]
                for mu in _monomials(degrees, d - rel_degree):
                    cons.try_add({mono_index[tuple(map(add, exps, mu))]: c for exps, c in padded})
            first = {}  # pair's column -> index of its first monomial
            for idx, exps in enumerate(monos):
                # at the kernel's dimension cons spans it: the rest is absorbed
                if cons.rank == kernel_count:
                    break
                pair = sum(map(mul, exps, t_exps)), sum(map(mul, exps, s_exps))
                col, dep = pairs[pair]
                j = first.setdefault(col, idx)
                # the pair's dependency with its own column renamed idx, or e_idx - e_j
                if dep is not None:
                    dep = {idx if k == col else first[k]: v for k, v in dep.items()}
                elif j != idx:
                    dep = {j: -1, idx: 1}
                if dep is None or cons.try_add(dep) is not None:
                    continue
                keys = sorted(dep)
                # the one place a Fraction is built: the kernel, normalised at idx
                combo = tuple((monos[k], Fraction(dep[k], dep[idx])) for k in keys)
                new_rels.append(Relation(weight=2 * d, combo=combo))
                relation_rows.append((d, tuple((monos[k], dep[k]) for k in keys)))
        # fill the complement with Riemann-Roch sections
        new_gens = []
        for m in range(dim_h0):
            if span.rank == dim_h0:
                break
            if span.try_add({m: 1}) is None:
                new_gens.append(Generator(degree=d, t_exp=m - a, s_exp=-b))
        if span.rank != dim_h0:
            raise AssertionError("section basis failed to fill the graded piece")
        logs.append(DegreeLog(2 * d, dim_h0, count[d], span_rank, kernel_count,
                              kernel_count - len(new_rels), tuple(new_gens), tuple(new_rels)))
        gens += new_gens
        for gen in new_gens:
            _add_generator(gen, count, firsts)
    relations = tuple(r for log in logs for r in log.new_relations)
    return RingPresentation(tuple(gens), relations, max_weight, tuple(logs))
