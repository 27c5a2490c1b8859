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
offsets of each degree are three integer floor divisions.  A reachability
list of the generator-degree monoid (reach[d] when some reach[d - g])
says which degrees have products at all; only those list their monomials.
A product's vector depends only on its exponent pair (M, B), so a degree
reduces one monomial per pair: a later monomial of the same pair has one
dependency, found without a reduction, e_idx - e_first when the first
monomial was independent and the first one's dependency, relabelled,
when it was not.

The row reduction is sparse and fraction-free: rows, their tracked
expressions and the consequence rows of earlier relations are {column: int}
dicts, reduced by cross-multiplication at their pivot columns only and kept
divided by their content.  Consequences of earlier relations lie in the
kernel, and the kernel vectors of a degree are independent (each has its
own dependent monomial), so once the consequences reach the kernel's
dimension every remaining kernel vector is absorbed without being reduced.
The shifts of one relation are independent (the polynomial ring is a
domain), so when the first relation alone has that many shifts nothing
is reduced at all.  A Fraction is built in one place only, when a
dependent monomial's integer dependency is divided by its own coefficient
to give the reported relation; that relation is the unique dependency on
the earlier independent monomials, so it does not depend on how the
elimination scaled its rows.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add, mul

from .ffarith import WorkBoundError

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

    def degree(self):
        return sum(self._coeffs.values(), Fraction(0))

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


def floor_div(D):
    """Componentwise floor; idempotent."""
    out = {}
    for pt, v in D.items():
        out[pt] = Fraction(v.numerator // v.denominator)
    return QDivisor(out)


def h0(D):
    """Genus-0 Riemann-Roch: deg(floor D) + 1, clipped at 0."""
    deg = floor_div(D).degree()
    assert deg.denominator == 1
    deg = int(deg)
    return deg + 1 if deg >= 0 else 0


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
    family and evaluates k*alpha + k + 1 exactly; the value is the
    dimension 1 + (k-2l)/(q-1) whenever that is a positive integer, and the
    space is 0 otherwise.
    """
    if preset != "Gamma0T_2":
        raise ValueError("unknown preset %r" % (preset,))
    if k <= 0 or k % 2 != 0:
        raise ValueError("weight must be even and positive")
    if not 0 <= l < q - 1:
        raise ValueError("type must be reduced mod q-1")
    alpha = Fraction(2 * k - 2 * l - k * q, k * (q - 1))
    value = k * alpha + k + 1
    if value.denominator == 1 and value > 0:
        return int(value)
    return 0


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


class DegreeLog(
    namedtuple(
        "DegreeLog",
        "weight h0 monomial_count span_rank kernel_count absorbed_count"
        " new_generators new_relations",
    )
):
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


def presentation(D, max_weight):
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
    degrees = []  # the generators' degrees
    relation_rows = []  # (degree, integer combination) for each relation
    logs = []
    budget = 0
    reach = [True]  # reach[d]: some product of generators has degree d
    for d in range(1, max_weight // 2 + 1):
        a, b = d * nz // den, d * no // den
        dim_h0 = max(0, a + b + d * ni // den + 1)
        reach.append(any([reach[d - g] for g in degrees]))
        monos = _monomials(degrees, d) if reach[d] else []
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
            logs.append(DegreeLog(2 * d, 0, 0, 0, 0, 0, (), ()))
            continue
        t_exps = [g.t_exp for g in gens]
        s_exps = [g.s_exp for g in gens]
        span = _Rref()
        kernels = []  # (monomial index, integer dependency over monomial indices)
        first = {}  # (t, s) exponent pair -> (first monomial, its dependency or None)
        for idx, exps in enumerate(monos):
            pair = sum(map(mul, exps, t_exps)), sum(map(mul, exps, s_exps))
            if pair in first:
                # the same vector again: e_idx - e_j, or j's dependency with j renamed idx
                j, dep = first[pair]
                dep = {idx if k == j else k: v for k, v in dep.items()} if dep else {j: -1, idx: 1}
                kernels.append((idx, dep))
                continue
            m_exp, b_exp = pair[0] + a, pair[1] + b
            if m_exp < 0 or b_exp < 0 or m_exp + b_exp >= dim_h0:
                raise AssertionError("product left its graded piece")
            vec = {m_exp + i: (-1) ** (b_exp - i) * comb(b_exp, i) for i in range(b_exp + 1)}
            added, dep = span.try_add(vec, {idx: 1})
            if not added:
                dep = {k: v for k, v in dep.items() if v}
                kernels.append((idx, dep))
            first[pair] = idx, None if added else dep
        span_rank = span.rank
        new_rels = []
        # consequences of earlier relations lie in the kernel, of dimension len(kernels);
        # one relation's shifts are independent (the polynomial ring is a domain), so
        # when the first relation has that many shifts they span the kernel unreduced
        if kernels and not (
            relation_rows
            and len(_monomials(degrees, d - relation_rows[0][0])) == len(kernels)
        ):
            mono_index = {exps: i for i, exps in enumerate(monos)}
            pad = (0,) * len(gens)
            cons = _Rref()
            for rel_degree, combo in relation_rows:
                padded = [(exps + pad[len(exps):], c) for exps, c in combo]
                for mu in _monomials(degrees, d - rel_degree):
                    cons.try_add({mono_index[tuple(map(add, exps, mu))]: c for exps, c in padded})
            for idx, dep in kernels:
                # at the kernel's dimension cons spans it: the rest is absorbed
                if cons.rank == len(kernels) or not cons.try_add(dep)[0]:
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
            if span.try_add({m: 1})[0]:
                new_gens.append(Generator(degree=d, t_exp=m - a, s_exp=-b))
        if new_gens:
            gens += new_gens
            degrees += [d] * len(new_gens)
            reach[d] = True
        if span.rank != dim_h0:
            raise AssertionError("section basis failed to fill the graded piece")
        logs.append(DegreeLog(
            2 * d, dim_h0, len(monos), span_rank, len(kernels),
            len(kernels) - len(new_rels), tuple(new_gens), tuple(new_rels),
        ))
    relations = tuple(r for log in logs for r in log.new_relations)
    return RingPresentation(tuple(gens), relations, max_weight, tuple(logs))
