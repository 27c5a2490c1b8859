"""Truncated formal series in the parameter u with weight and type metadata.

A series carries exact coefficients a_0 .. a_{prec-1} in K = F_q(T), a
weight, and an optional type residue l mod q-1.  It is stored as its
support: the nonzero coefficients keyed by exponent, in ascending order.
Scaling models the substitution u -> alpha^{-1} u, so a form of even weight
k with constant scaling factor has all support in the two exponent classes
solving 2n = k (mod q-1); the splitting operator sorts the terms into those
two classes and assigns the matching types.  Everything here is formal: no
named form's coefficients are computed.
"""

from __future__ import annotations

from .ffarith import _POLY_TOKENS, ParseError, PolyA, RatK, _poly, _TextReader
from .weights import decompose_gamma2

DEFAULT_USERIES_PREC = 64
USERIES_EXP_MAX = 4096


class SupportError(ValueError):
    """A coefficient sits at an exponent outside the allowed classes."""

    def __init__(self, exponent, message=None):
        self.exponent = exponent
        if message is None:
            message = "unsupported exponent %d" % exponent
        super().__init__(message)


class USeries:
    """Exact truncated series sum a_n u^n, 0 <= n < prec, built by `from_terms`.

    `terms` maps each exponent whose coefficient is nonzero to that
    coefficient, in ascending exponent order; `coeffs` is the dense tuple
    a_0 .. a_{prec-1}, built when read.
    """

    __slots__ = ("field", "terms", "prec", "weight", "type_residue")

    @classmethod
    def from_terms(cls, field, terms, weight=0, type_residue=None, prec=None):
        """Build from a mapping exponent -> coefficient; zero coefficients are dropped."""
        if prec is None:
            prec = max(DEFAULT_USERIES_PREC, max(terms, default=0) + 1)
        stored = {}
        for n, c in sorted(terms.items()):
            if not 0 <= n < prec:
                raise ValueError("exponent %d outside precision window" % n)
            c = RatK.from_value(field, c)
            if c.field is not field and c.field != field:
                raise ValueError("coefficient from a different field")
            if c:
                stored[n] = c
        if prec < 1:
            raise ValueError("a series needs at least one coefficient")
        if type_residue is not None:
            type_residue = type_residue % (field.q - 1)
        f = object.__new__(cls)
        f.field = field
        f.terms = stored
        f.prec = prec
        f.weight = weight
        f.type_residue = type_residue
        return f

    @property
    def coeffs(self):
        zero = RatK.from_value(self.field, 0)
        return tuple(self.terms.get(n, zero) for n in range(self.prec))

    def coeff(self, n):
        if not 0 <= n < self.prec:
            raise IndexError("exponent %d outside precision window" % n)
        return self.terms.get(n) or RatK.from_value(self.field, 0)

    def support(self):
        return tuple(self.terms)

    def __add__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            raise ValueError("series over different fields")
        if self.weight != other.weight:
            raise ValueError("cannot add series of different weights")
        prec = min(self.prec, other.prec)
        terms = {n: c for n, c in self.terms.items() if n < prec}
        for n, c in other.terms.items():
            if n < prec:
                terms[n] = terms[n] + c if n in terms else c
        l = self.type_residue if self.type_residue == other.type_residue else None
        return USeries.from_terms(self.field, terms, self.weight, l, prec)

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.weight == other.weight
            and self.type_residue == other.type_residue
            and self.prec == other.prec
            and self.terms == other.terms
        )

    def __repr__(self):
        return " + ".join(format_useries_term(c, n) for n, c in self.terms.items()) or "0"


def format_useries_term(coeff, n):
    s = repr(coeff)
    if coeff.den.degree == 0 and "+" in s:
        s = "(%s)" % s
    if n == 0:
        return s
    upart = "u" if n == 1 else "u^%d" % n
    if s == "1":
        return upart
    return "%s*%s" % (s, upart)


def scale_u(f, alpha):
    """Termwise a_n -> a_n alpha^{-n}; models u -> alpha^{-1} u."""
    alpha = f.field.elem(alpha)
    if alpha.is_zero():
        raise ValueError("scaling constant must be nonzero")
    inv = alpha.inverse()
    terms = {n: c * inv**n for n, c in f.terms.items()}
    return USeries.from_terms(f.field, terms, f.weight, f.type_residue, f.prec)


def check_support(f, k, q):
    """True iff every nonzero a_n has 2n = k (mod q-1)."""
    if k % 2 != 0:
        raise ValueError("weight must be even")
    if q != f.field.q:
        raise ValueError("field size mismatch")
    return all((2 * n - k) % (q - 1) == 0 for n in f.support())


def split(f, k, q):
    """Sort the terms into the classes n = k/2 and k/2 + (q-1)/2 (mod q-1).

    Returns (f1, f2) with f = f1 + f2 exactly and types per the ordered
    decomposition; raises SupportError at the first exponent violating
    2n = k (mod q-1) rather than dropping it.
    """
    if k < 0:
        raise ValueError("weight k must be nonnegative, got %d" % k)
    if k % 2 != 0:
        raise ValueError("weight must be even")
    if q != f.field.q:
        raise ValueError("field size mismatch")
    for n in f.support():
        if (2 * n - k) % (q - 1) != 0:
            raise SupportError(n)
    l_arg = f.type_residue if f.type_residue is not None else k // 2
    l1, l2 = decompose_gamma2(k, l_arg, q)
    half = k // 2 % (q - 1)
    t1 = {n: c for n, c in f.terms.items() if n % (q - 1) == half}
    t2 = {n: c for n, c in f.terms.items() if n % (q - 1) != half}
    f1 = USeries.from_terms(f.field, t1, k, l1, f.prec)
    f2 = USeries.from_terms(f.field, t2, k, l2, f.prec)
    return f1, f2


def _series_term(reader):
    """term := u[^n] | coeff [*u[^n]], as (n, coefficient as a PolyA)."""
    if reader.peek() == "u":
        coeff = PolyA.one(reader.field)
    else:
        coeff = _coefficient(reader)
        if reader.peek() != "*":
            return 0, coeff
        reader.advance()
    at = reader.expect("u", "expected 'u' after '*'")[2]
    n = reader.exponent()
    if n > USERIES_EXP_MAX:
        raise ParseError(
            "exponent %d exceeds the supported maximum USERIES_EXP_MAX = %d"
            % (n, USERIES_EXP_MAX),
            at,
        )
    return n, coeff


def _coefficient(reader):
    """A product of factors, or a polynomial in (redundant outer) parentheses."""
    depth = 0
    while reader.peek() == "(":
        reader.advance()
        depth += 1
    if not depth:
        texp, c = reader.term()
        return _poly(reader.field, [0] * texp + [c.code])
    inner = reader.poly()
    for _ in range(depth):
        reader.expect(")", "expected ')'")
    return inner


def parse_useries(text, field, weight=0, type_residue=None, prec=None):
    """Parse terms u^n, c*u^n and c joined by + or -, with an optional leading sign.

    A coefficient c is a product of polynomial factors ("3", "a^2*T") or a
    polynomial in parentheses ("(T+1)"); a * must stand between c and u.
    Whitespace separates tokens, as in `parse_poly`.  Examples: "u^2+3*u^4",
    "(T+1)*u - 2", "0".  An exponent above USERIES_EXP_MAX is rejected
    before any coefficient list is built.
    """
    reader = _TextReader(text, field, _POLY_TOKENS + "u()")
    terms = reader.whole(lambda r: r.sum(_series_term), "series")
    return USeries.from_terms(
        field, terms, weight=weight, type_residue=type_residue, prec=prec
    )
