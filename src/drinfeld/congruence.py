"""Congruence subgroups of GL2(F_q[T]) as finite-data descriptors.

A group is never enumerated: it is a descriptor (family, level, determinant
restriction) together with a membership predicate on 2x2 matrices over
A = F_q[T] with unit determinant.  The families are

  full    GL2(A) itself (no level),
  gammaN  matrices congruent to the identity mod N,
  gamma1  matrices congruent to (1 *; 0 *) mod N,
  gamma0  matrices with lower-left entry congruent to 0 mod N,

optionally intersected with a determinant restriction: the preimage of the
index-m subgroup of F_q^x.  Index 1 is the unrestricted group, index 2 the
square-determinant subgroup, index q-1 the determinant-one subgroup.
"""

from __future__ import annotations

from collections import namedtuple

from .ffarith import FqElem, ParseError, PolyA, parse_int, parse_poly

FAMILIES = ("full", "gammaN", "gamma1", "gamma0")

DET_ALL = 1
DET_SQUARES = 2


class Mat2:
    """A 2x2 matrix over A with determinant a nonzero constant."""

    __slots__ = ("a", "b", "c", "d", "det")

    def __init__(self, a, b, c, d):
        det = a * d - b * c
        if det.is_zero() or not det.is_constant():
            raise ValueError("determinant must be a nonzero constant")
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.det = det.constant_value()

    @classmethod
    def diagonal(cls, field, alpha, delta):
        zero = PolyA.zero(field)
        return cls(PolyA.const(field, alpha), zero, zero, PolyA.const(field, delta))

    @property
    def field(self):
        return self.a.field

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        inv = self.det.inverse()
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)


def _mat2(a, b, c, d, det):
    """The Mat2 with entries a, b, c, d whose determinant is known to be the
    FqElem det; nothing is checked or recomputed."""
    m = object.__new__(Mat2)
    m.a, m.b, m.c, m.d, m.det = a, b, c, d, det
    return m


class GroupSpec(namedtuple("GroupSpec", "family level det_index")):
    """Descriptor of a congruence subgroup with a determinant restriction.

    level is a PolyA, or None for the full group.  det_index is the index m
    of the allowed determinant subgroup in F_q^x: 1 = all units, 2 =
    squares, q-1 = determinant one.
    """

    __slots__ = ()

    def __new__(cls, family, level, det_index=DET_ALL):
        if family not in FAMILIES:
            raise ValueError("unknown family %r" % (family,))
        if family == "full":
            if level is not None:
                raise ValueError("the full group carries no level")
        else:
            if level is None:
                raise ValueError("family %s requires a level" % family)
            if level.is_zero() or level.is_constant():
                raise ValueError("level must be nonconstant and nonzero")
        return super().__new__(cls, family, level, det_index)

    def field_for(self, field=None):
        if self.level is not None:
            return self.level.field
        if field is None:
            raise ValueError("full group needs an explicit field")
        return field

    def validate_det_index(self, field):
        q = field.q
        if self.det_index < 1 or (q - 1) % self.det_index != 0:
            raise ValueError(
                "determinant-restriction index %d does not divide %d"
                % (self.det_index, q - 1)
            )

    def det_allowed(self, x):
        """Whether the unit x lies in the restricted determinant subgroup."""
        self.validate_det_index(x.field)
        if x.is_zero():
            return False
        return x.field.log[x.code] % self.det_index == 0

    def det_values(self, field):
        """The allowed determinant subgroup of F_q^x, in generator-power order."""
        self.validate_det_index(field)
        powers = range(0, field.q - 1, self.det_index)
        return [FqElem(field, field.exp[k]) for k in powers]

    def __str__(self):
        if self.family == "full":
            base = "full"
        else:
            base = "%s:%s" % (self.family, self.level)
        if self.det_index == 1:
            return base
        if self.det_index == 2:
            return base + "!sq"
        return base + "!idx%d" % self.det_index


def member(gamma, G):
    """Membership of a unit-determinant matrix in the described group."""
    field = gamma.field
    N = G.level
    if G.family == "gammaN":
        if not (
            ((gamma.a - 1) % N).is_zero()
            and ((gamma.d - 1) % N).is_zero()
            and (gamma.b % N).is_zero()
            and (gamma.c % N).is_zero()
        ):
            return False
    elif G.family == "gamma1":
        if not (((gamma.a - 1) % N).is_zero() and (gamma.c % N).is_zero()):
            return False
    elif G.family == "gamma0":
        if not (gamma.c % N).is_zero():
            return False
    return G.det_allowed(gamma.det)


def det_image_order(G, field):
    """Order of the determinant image {det g : g in G} in F_q^x.

    The identity-congruence family forces det = 1; the other families
    contain enough diagonal matrices to realize the whole restricted
    subgroup.
    """
    G.validate_det_index(field)
    if G.family == "gammaN":
        return 1
    return (field.q - 1) // G.det_index


def gamma2_of(G):
    """The square-determinant subgroup of an unrestricted group."""
    if G.det_index != DET_ALL:
        raise ValueError("group already carries a determinant restriction")
    return GroupSpec(G.family, G.level, DET_SQUARES)


def coset_rep_nonsquare(field):
    """(g 0; 0 1) with g the fixed generator: represents the non-square coset."""
    return Mat2.diagonal(field, field.gen, field.one)


def quotient_order(outer, inner, field):
    """[outer : inner] = ratio of determinant-image orders.

    Requires equal family and level, and the inner determinant subgroup
    contained in the outer one.
    """
    if outer.family != inner.family:
        raise ValueError("families differ")
    if (outer.level is None) != (inner.level is None) or (
        outer.level is not None and outer.level != inner.level
    ):
        raise ValueError("levels differ")
    if inner.det_index % outer.det_index != 0:
        raise ValueError("inner determinant subgroup not contained in outer")
    n_outer = det_image_order(outer, field)
    n_inner = det_image_order(inner, field)
    return n_outer // n_inner


def parse_group(text, field, level_text=None):
    """Parse a group descriptor.

    Grammar: `full`, `gamma0:<poly>`, `gamma1:<poly>`, `gammaN:<poly>`,
    optionally followed by `!sq`, `!one`, or `!idx<m>`.  A separate level
    string may be supplied instead of the embedded `:<poly>` form; giving
    both is an error.
    """
    src = text.strip()
    det_index = DET_ALL
    if "!" in src:
        src, _, suffix = src.partition("!")
        if suffix == "sq":
            det_index = DET_SQUARES
        elif suffix == "one":
            det_index = field.q - 1
        elif suffix.startswith("idx"):
            message = "malformed determinant suffix %r" % suffix
            det_index = parse_int(suffix[3:], len(src) + 4, message)
        else:
            raise ParseError("unknown determinant suffix %r" % suffix, len(src))
    if ":" in src:
        if level_text is not None:
            raise ParseError(
                "the level is given twice: in the group and separately", src.index(":")
            )
        fam, _, poly_text = src.partition(":")
        level = parse_poly(poly_text, field)
    else:
        fam = src
        level = parse_poly(level_text, field) if level_text is not None else None
    try:
        spec = GroupSpec(fam, level, det_index)
    except ValueError as exc:
        raise ParseError(str(exc), 0)
    spec.validate_det_index(field)
    return spec
