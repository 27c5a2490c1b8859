"""Exact arithmetic for the tower F_q < A = F_q[T] < K = F_q(T) < K_inf = F_q((1/T)).

All values are immutable and exact.  An element of F_q is coded by the int
sum c_i p^i of its coordinates c_i over F_p in a polynomial basis for a
recorded modulus; for prime q the code is the value.  `Fq` builds O(q)
tables once (exp/log for a fixed generator and Zech logarithms for
addition), so the arithmetic on codes is a table lookup, and q is capped at
Q_MAX before any table is built.  Parsed polynomial text is capped at
degree POLY_DEG_MAX before any coefficient list is built, and every integer
literal of the input at INT_DIGITS_MAX digits before it is converted.
Elements of A are tuples of codes (lowest degree first, no trailing zeros),
elements of K are kept in lowest terms with monic denominator, and elements
of K_inf carry a finite window of Laurent coefficients in the uniformizer
1/T; series support only products and square roots.  `FqElem` wraps one
code for the public interface.  Squareness is decided in F_q (parity of the
discrete log) and in K_inf (valuation and leading coefficient), the latter
without expanding an element of K.

Valuation convention: v(T) = -1, so v(a) = -deg(a) for nonzero a in A and
|f| = q^(-v(f)).  The zero series is a distinguished value with an empty
window and no valuation.
"""

from __future__ import annotations

import itertools
import math
import operator

DEFAULT_PREC = 32
Q_MAX = 65536
POLY_DEG_MAX = 4096
# A literal longer than this is refused with its position, before int() sees
# it: far above any meaningful coefficient, exponent, order or index, and far
# below the interpreter's own 4300-digit conversion limit.
INT_DIGITS_MAX = 100


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class PrecisionError(ArithmeticError):
    """Raised when a series computation runs out of known coefficients."""


class WorkBoundError(RuntimeError):
    """Raised when a computation would exceed its configured work budget."""


def _factor_prime_power(q):
    """(p, e) with q = p^e, for q an odd prime power at most Q_MAX."""
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd prime power >= 3")
    if q > Q_MAX:
        raise ValueError("q = %d exceeds the supported maximum %d" % (q, Q_MAX))
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            break
    else:
        p = q
    e = round(math.log(q, p))  # the nearest exponent: p**e == q is tested next
    if p**e != q:
        raise ValueError("q = %d is not a prime power" % q)
    return p, e


class Fq:
    """The finite field with q = p^e elements, q odd and at most Q_MAX.

    For e > 1 the coordinates are taken in the basis 1, a, ..., a^(e-1)
    where a is a root of the (monic, irreducible) modulus, and the code of
    an element is the int whose base-p digits are its coordinates.  The
    generator is the element of order q-1 with the least code; nonzero
    elements print as powers of it.  `add`, `sub`, `neg`, `mul` and `inv`
    act on codes through the exp/log and Zech tables.

    Before any table is built, ValueError refuses a q that is not an odd
    prime power at most Q_MAX, then a modulus for prime q, one not monic of
    degree e once reduced mod p, and a reducible one.
    """

    def __init__(self, q, modulus=None):
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        if modulus is not None:
            if e == 1:
                raise ValueError("modulus only applies to non-prime q")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not _fp_irreducible(modulus, p):
                raise ValueError("modulus is reducible over F_%d" % p)
        elif e > 1:
            modulus = self._default_modulus()
        self.modulus = modulus
        # coords[x]: the coordinate tuple of code x, lowest digit first.
        self.coords = [c[::-1] for c in itertools.product(range(p), repeat=e)]
        # The generator: the least x whose powers walk a cycle of length
        # q - 1.  For e > 1 the codes below p are F_p, of order dividing p - 1.
        # Where a walk can cost more than squaring to x^((q - 1)/l) for each
        # prime l dividing q - 1, an x with such a power equal to 1 is passed
        # over without a walk: a walk that stops short of q - 1 takes up to
        # (q - 1)/2 products, the tests of one x about 3 per bit and prime.
        n, primes, rest, l = q - 1, [], q - 1, 1
        while rest > 1:
            l += 1
            if rest % l == 0:
                primes.append(l)
                while rest % l == 0:
                    rest //= l
        test = n // 2 > 3 * len(primes) * n.bit_length()
        for x in range(2 if e == 1 else p, q):
            if test and any(self._power(x, n // l) == 1 for l in primes):
                continue
            powers = self._powers(x)
            if len(powers) == n:
                break
        log = [None] * q
        for k, y in enumerate(powers):
            log[y] = k
        # exp[k] = gen^k for 0 <= k < 2(q-1), so a sum of two logs needs no
        # reduction; log[0] is None.
        exp = powers + powers
        self.exp = exp
        self.log = log
        self.inv = lambda x: exp[q - 1 - log[x]]
        # zech[d] = log(1 + gen^d), None where 1 + gen^d = 0; adding 1
        # to a code only touches its lowest digit.
        zech = [log[y - y % p + (y + 1) % p] for y in powers]
        half = (q - 1) // 2
        negs = [0] + [exp[k + half] for k in log[1:]]

        def add(x, y):
            if not x:
                return y
            if not y:
                return x
            lx = log[x]
            z = zech[log[y] - lx]  # a negative index wraps mod q-1
            return 0 if z is None else exp[lx + z]

        self.add = add
        self.sub = lambda x, y: add(x, negs[y])
        self.neg = negs.__getitem__
        self.mul = lambda x, y: exp[log[x] + log[y]] if x and y else 0
        self.zero = FqElem(self, 0)
        self.one = FqElem(self, 1)
        self.gen = FqElem(self, powers[1])

    def _default_modulus(self):
        # Smallest monic irreducible of degree e over F_p, by ascending
        # coefficient tuples.
        p, e = self.p, self.e
        for coeffs in itertools.product(range(p), repeat=e):
            cand = coeffs[::-1] + (1,)
            if _fp_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible modulus found")

    def _cols(self, x):
        """The columns of the product by x, for the coordinates x: y * x has
        the coordinates sum(map(operator.mul, y, col)) % p, one per column."""
        p = self.p
        # rows[i] = coordinates of a^i * x, so y * x = sum_i y_i rows[i].
        rows = [tuple(x)]
        for _ in range(self.e - 1):
            top = rows[-1][-1]
            shifted = (0,) + rows[-1][:-1]
            rows.append(tuple((c - top * m) % p for c, m in zip(shifted, self.modulus)))
        return list(zip(*rows))

    def _power(self, x, m):
        """The code of x^m for the code x and m >= 1: a square for each bit of
        m below its top one, times x where the bit is set."""
        p = self.p
        x = y = self.coords[x]
        for bit in bin(m)[3:]:
            y = [sum(map(operator.mul, y, col)) % p for col in self._cols(y)]
            if bit == "1":
                y = [sum(map(operator.mul, y, col)) % p for col in self._cols(x)]
        return sum(c * p**i for i, c in enumerate(y))

    def _powers(self, x):
        """[1, x, x^2, ...] up to the multiplicative order of the code x."""
        p, mul, cols, y = self.p, operator.mul, self._cols(self.coords[x]), self.coords[x]
        place = [p**i for i in range(self.e)]
        out = [1]
        while True:
            code = sum(map(mul, y, place))
            if code == 1:
                return out
            out.append(code)
            y = [sum(map(mul, y, col)) % p for col in cols]

    def elem(self, value):
        """Coerce an int, read mod p, or an FqElem of this field into this
        field; anything else raises TypeError."""
        if isinstance(value, FqElem):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        return FqElem(self, operator.index(value) % self.p)

    def format_elem(self, x):
        return self.format_code(x.code)

    def format_code(self, x):
        if self.e == 1:
            return str(x)
        if not x:
            return "0"
        k = self.log[x]
        if k == 0:
            return "1"
        if k == 1:
            return "a"
        return "a^%d" % k

    def __eq__(self, other):
        return (
            isinstance(other, Fq)
            and self.q == other.q
            and self.modulus == other.modulus
        )


def _fp_irreducible(coeffs, p):
    """Irreducibility of a monic polynomial over F_p by trial division."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for div in itertools.product(range(p), repeat=d):
            if not any(_fp_mod(coeffs, div[::-1] + (1,), p)):
                return False
    return True


def _fp_mod(num, den, p):
    """The remainder of num modulo the monic den over F_p, len(den) - 1 digits."""
    num = list(num)
    dd = len(den) - 1
    for shift in range(len(num) - 1 - dd, -1, -1):
        c = num[shift + dd] % p
        for i in range(dd + 1):
            num[shift + i] -= c * den[i]
    return [c % p for c in num[:dd]]


class FqElem:
    """An element of Fq: its int code, with field arithmetic on top."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    def is_zero(self):
        return not self.code

    def __bool__(self):
        return bool(self.code)

    def _coerce(self, other):
        if isinstance(other, FqElem):
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field.add(self.code, o.code))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field.sub(self.code, o.code))

    def __neg__(self):
        return FqElem(self.field, self.field.neg(self.code))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field.mul(self.code, o.code))

    __rmul__ = __mul__

    def inverse(self):
        if not self.code:
            raise ZeroDivisionError("inverse of zero")
        return FqElem(self.field, self.field.inv(self.code))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        f = self.field
        if not self.code:
            return f.one if n == 0 else self
        return FqElem(f, f.exp[f.log[self.code] * n % (f.q - 1)])

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.elem(other)
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.code == other.code
        )


def _poly(field, coeffs):
    """The PolyA with the given list of codes, trailing zeros stripped."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    f = object.__new__(PolyA)
    f.field = field
    f.coeffs = tuple(coeffs)
    return f


def _scaled(f, x):
    """f times the nonzero code x."""
    mul = f.field.mul
    return _poly(f.field, [mul(x, c) for c in f.coeffs])


class PolyA:
    """A polynomial in A = F_q[T]; coefficient codes lowest degree first.

    The constructor takes FqElem coefficients.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        codes = [c.code for c in coeffs]
        while codes and not codes[-1]:
            codes.pop()
        self.field = field
        self.coeffs = tuple(codes)

    @classmethod
    def from_ints(cls, field, ints):
        """The polynomial with prime-field coefficients given as ints."""
        return _poly(field, [c % field.p for c in ints])

    @classmethod
    def zero(cls, field):
        return _poly(field, [])

    @classmethod
    def one(cls, field):
        return _poly(field, [1])

    @classmethod
    def const(cls, field, c):
        return _poly(field, [field.elem(c).code])

    @classmethod
    def T(cls, field):
        return _poly(field, [0, 1])

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return len(self.coeffs) <= 1

    def constant_value(self):
        """The value of a constant polynomial as an FqElem."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeff(0)

    def leading_coeff(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return FqElem(self.field, self.coeffs[-1])

    def coeff(self, i):
        """The coefficient of T^i as an FqElem."""
        c = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return FqElem(self.field, c)

    def _coerce(self, other):
        if isinstance(other, PolyA):
            return other
        if isinstance(other, (FqElem, int)):
            return _poly(self.field, [self.field.elem(other).code])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        pairs = itertools.zip_longest(self.coeffs, o.coeffs, fillvalue=0)
        return _poly(self.field, list(itertools.starmap(self.field.add, pairs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        pairs = itertools.zip_longest(self.coeffs, o.coeffs, fillvalue=0)
        return _poly(self.field, list(itertools.starmap(self.field.sub, pairs)))

    def __neg__(self):
        return _poly(self.field, list(map(self.field.neg, self.coeffs)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return _poly(self.field, [])
        add, mul = self.field.add, self.field.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] = add(out[j], mul(x, y))
        return _poly(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        sub, mul = F.sub, F.mul
        den = o.coeffs
        dd = len(den) - 1
        lc_inv = F.inv(den[-1])
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - dd)
        while len(rem) > dd:
            shift = len(rem) - 1 - dd
            c = mul(rem.pop(), lc_inv)
            quot[shift] = c
            for i in range(dd):
                rem[shift + i] = sub(rem[shift + i], mul(c, den[i]))
            while rem and not rem[-1]:
                rem.pop()
        return _poly(F, quot), _poly(F, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self):
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        return _scaled(self, self.field.inv(self.coeffs[-1]))

    def gcd(self, other):
        """Monic greatest common divisor."""
        a, b = self, self._coerce(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def sort_key(self):
        """Coordinate tuples of the coefficients, lowest degree first."""
        return tuple(map(self.field.coords.__getitem__, self.coeffs))

    def __eq__(self, other):
        if isinstance(other, (FqElem, int)):
            other = self._coerce(other)
        return (
            isinstance(other, PolyA)
            and self.coeffs == other.coeffs
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __repr__(self):
        return format_poly(self)


class RatK:
    """An element of K = F_q(T) in lowest terms with monic denominator.

    A constant denominator l scales the numerator by l^-1.  One of degree
    1, l*(T - r), shares a factor with the numerator iff that vanishes at
    r; Horner's rule at r gives the value and the quotient by T - r, so
    only a denominator of degree >= 2 runs Euclid.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        field = num.field
        if den is None:
            den = PolyA.one(field)
        deg = den.degree
        if deg < 0:
            raise ZeroDivisionError("zero denominator")
        if deg == 0 and den.coeffs != (1,):
            num, den = _scaled(num, field.inv(den.coeffs[0])), PolyA.one(field)
        elif deg == 1:
            l0, l1 = den.coeffs
            add, mul = field.add, field.mul
            x = field.inv(l1)
            m = mul(l0, x)  # den = l1*(T + m), so r = -m
            r = field.neg(m)
            # Horner at r: vals is the quotient by T - r, highest degree
            # first, then num(r)
            vals, y = [], 0
            for c in reversed(num.coeffs):
                y = add(mul(y, r), c)
                vals.append(y)
            # num/den is (num/l1) / (T + m), or (quotient/l1) / 1 when
            # num(r) = 0: the denominator comes out monic
            if not (vals and vals[-1]):
                num, den = _poly(field, vals[-2::-1]), PolyA.one(field)
            elif l1 != 1:
                den = _poly(field, [m, 1])
            if x != 1:
                num = _scaled(num, x)
        elif deg > 1:
            g = num.gcd(den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead = den.coeffs[-1]
            if lead != 1:
                x = field.inv(lead)
                num, den = _scaled(num, x), _scaled(den, x)
        self.num = num
        self.den = den

    @classmethod
    def from_value(cls, field, value):
        """Coerce a PolyA, FqElem, or int into K."""
        if isinstance(value, RatK):
            return value
        if isinstance(value, PolyA):
            return cls(value)
        return cls(PolyA.const(field, value))

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def valuation(self):
        """v(x) = deg(den) - deg(num); raises on zero."""
        if self.is_zero():
            raise ValueError("the zero element has no finite valuation")
        return self.den.degree - self.num.degree

    def _coerce(self, other):
        if isinstance(other, RatK):
            return other
        if isinstance(other, (PolyA, FqElem, int)):
            return RatK.from_value(self.field, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatK(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatK(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatK(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (PolyA, FqElem, int)):
            other = self._coerce(other)
        return (
            isinstance(other, RatK)
            and self.num == other.num
            and self.den == other.den
        )

    def __repr__(self):
        if self.den.coeffs == (1,):
            return format_poly(self.num)
        return "(%s)/(%s)" % (format_poly(self.num), format_poly(self.den))


class LaurentKInf:
    """A truncated Laurent series at the place 1/T.

    `val` is the valuation of the leading term and `coeffs[i]` is the
    coefficient of (1/T)^(val + i); coeffs[0] is nonzero.  The zero series
    is represented with an empty window and val None.  A product
    never extends the known window: it knows only as many coefficients as
    its inputs justify.
    """

    __slots__ = ("field", "val", "coeffs")

    def __init__(self, field, val, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            val += 1
        if not coeffs:
            val = None
        self.field = field
        self.val = val
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not self.coeffs

    @property
    def prec(self):
        return len(self.coeffs)

    def leading_coeff(self):
        if self.is_zero():
            raise ValueError("zero series has no leading coefficient")
        return self.coeffs[0]

    def truncate(self, n):
        if self.is_zero():
            return self
        return LaurentKInf(self.field, self.val, self.coeffs[:n])

    def __mul__(self, other):
        if isinstance(other, FqElem):
            if other.is_zero():
                return LaurentKInf(self.field, None, ())
            return LaurentKInf(self.field, self.val, [c * other for c in self.coeffs])
        if not isinstance(other, LaurentKInf):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentKInf(self.field, None, ())
        out = []
        for k in range(min(len(self.coeffs), len(other.coeffs))):
            acc = self.field.zero
            for a, b in zip(self.coeffs[: k + 1], reversed(other.coeffs[: k + 1])):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return LaurentKInf(self.field, self.val + other.val, out)

    __rmul__ = __mul__

    def sqrt(self):
        """A square root with the same window; raises ValueError if none exists."""
        if self.is_zero():
            return self
        if self.val % 2 != 0:
            raise ValueError("odd valuation, not a square")
        y0 = sqrt_fq(self.coeffs[0])
        if y0 is None:
            raise ValueError("leading coefficient is not a square")
        inv = (y0 + y0).inverse()
        ys = [y0]
        for n in range(1, len(self.coeffs)):
            acc = self.coeffs[n]
            for i in range(1, n):
                acc = acc - ys[i] * ys[n - i]
            ys.append(acc * inv)
        return LaurentKInf(self.field, self.val // 2, ys)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentKInf)
            and self.field == other.field
            and self.val == other.val
            and self.coeffs == other.coeffs
        )


# ---------------------------------------------------------------------------
# polynomial text grammar


_POLY_TOKENS = "aT^*+-"


def parse_int(text, pos, message="expected an integer"):
    """The int written in `text`, which starts at position `pos` of the input.

    `text` is decimal digits with an optional sign and surrounding
    whitespace; anything else raises ParseError(message) at `pos`.  A
    literal of more than INT_DIGITS_MAX digits is refused at its first digit.
    """
    body = text.strip()
    digits = body.lstrip("+-")
    if not digits.isdecimal() or len(body) - len(digits) > 1:
        raise ParseError(message, pos)
    if len(digits) > INT_DIGITS_MAX:
        raise ParseError(
            "integer literal of %d digits exceeds the supported maximum "
            "INT_DIGITS_MAX = %d" % (len(digits), INT_DIGITS_MAX),
            pos + text.index(digits),
        )
    return int(body)


def _tokenize(src, alphabet):
    """(kind, value, position) triples ending in "end"; whitespace separates tokens."""
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            tokens.append(("int", parse_int(src[i:j], i), i))
            i = j
            continue
        if ch in alphabet:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, len(src)))
    return tokens


class _TextReader:
    """A cursor over the tokens of one text, with the polynomial term rules.

    The series grammar in `useries` reads its text with the same reader,
    given an alphabet that adds u and parentheses, and the same `sum`.
    """

    def __init__(self, src, field, alphabet=_POLY_TOKENS):
        self.tokens = _tokenize(src, alphabet)
        self.pos = 0
        self.field = field

    def peek(self, ahead=0):
        return self.tokens[self.pos + ahead][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, message):
        """Consume and return a token of `kind`, or raise `message` at the next token."""
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(message, tok[2])
        return tok

    def exponent(self):
        if self.peek() != "^":
            return 1
        self.advance()
        return self.expect("int", "expected integer exponent")[1]

    def factor(self):
        field = self.field
        kind, value, at = self.advance()
        if kind == "int":
            if value >= field.p:
                raise ParseError(
                    "coefficient %d out of range 0..%d" % (value, field.p - 1), at
                )
            return field.elem(value), 0
        if kind == "a":
            if field.e == 1:
                raise ParseError("symbol 'a' is only valid for non-prime q", at)
            return field.gen ** self.exponent(), 0
        if kind == "T":
            return field.one, self.exponent()
        raise ParseError("expected a coefficient, 'a', or 'T'", at)

    def term(self):
        """A product of factors, as (degree in T, coefficient); stops before '*u'."""
        at = self.tokens[self.pos][2]
        coeff, texp = self.factor()
        while self.peek() == "*" and self.peek(1) != "u":
            self.advance()
            c2, e2 = self.factor()
            coeff = coeff * c2
            texp += e2
        if texp > POLY_DEG_MAX:
            raise ParseError(
                "degree %d exceeds the supported maximum POLY_DEG_MAX = %d"
                % (texp, POLY_DEG_MAX),
                at,
            )
        return texp, coeff

    def sum(self, term):
        """[+|-] term {(+|-) term}, as the dict key -> sum of the values.

        `term(reader)` returns one term's (key, value); a minus sign negates
        the value.  Stops at the first token after a term that is not + or -.
        """
        acc = {}
        sign = self.advance()[0] if self.peek() in ("+", "-") else "+"
        while True:
            key, value = term(self)
            value = -value if sign == "-" else value
            acc[key] = acc[key] + value if key in acc else value
            if self.peek() not in ("+", "-"):
                return acc
            sign = self.advance()[0]

    def poly(self):
        """A sum of terms, as a PolyA."""
        acc = self.sum(_TextReader.term)
        return PolyA(self.field, [acc.get(i, self.field.zero) for i in range(max(acc) + 1)])

    def whole(self, rule, what):
        """Read the whole text with `rule`; blank text is an empty `what`."""
        if self.peek() == "end":
            raise ParseError("empty %s" % what, self.tokens[self.pos][2])
        value = rule(self)
        self.expect("end", "expected '+' or '-' between terms")
        return value


def parse_poly(src, field):
    """Parse polynomial text like "4*T+3", "T^2+1", or "a^2*T+a" into a PolyA.

    Terms are joined by + or -, with an optional sign in front.  Within a
    term, factors separated by * may be integer literals 0..p-1, the field
    generator a (with optional ^k, only when e > 1), or T (with optional
    ^k).  Whitespace separates tokens and is otherwise ignored, so "1 2" is
    two terms without an operator and is rejected.  A term of degree above
    POLY_DEG_MAX is rejected before any coefficients are built.
    """
    return _TextReader(src, field).whole(_TextReader.poly, "polynomial")


def format_poly(poly):
    """Canonical text: terms in decreasing degree with explicit * and ^."""
    field = poly.field
    if poly.is_zero():
        return "0"
    parts = []
    for d in range(poly.degree, -1, -1):
        c = poly.coeffs[d]
        if not c:
            continue
        cstr = field.format_code(c)
        if d == 0:
            parts.append(cstr)
        else:
            var = "T" if d == 1 else "T^%d" % d
            parts.append(var if c == 1 else "%s*%s" % (cstr, var))
    return "+".join(parts)


# ---------------------------------------------------------------------------
# squares and series expansion


def is_square_fq(x):
    """Nonzero x is a square iff its discrete log is even."""
    if x.is_zero():
        raise ValueError("squareness of zero is not defined here")
    return x.field.log[x.code] % 2 == 0


def sqrt_fq(x):
    """A square root of x in F_q (the one with the lesser code), or None."""
    field = x.field
    if not x.code:
        return x
    k = field.log[x.code]
    if k % 2:
        return None
    y = field.exp[k // 2]
    return FqElem(field, min(y, field.neg(y)))


def laurent_expand(x, prec=DEFAULT_PREC):
    """Expand x in K as a Laurent series in 1/T with `prec` coefficients.

    The valuation of the result is deg(den) - deg(num); zero maps to the
    zero series.
    """
    if isinstance(x, PolyA):
        x = RatK(x)
    if not isinstance(x, RatK):
        raise TypeError("expected an element of K or A")
    if x.is_zero():
        return LaurentKInf(x.field, None, ())
    if prec < 1:
        raise PrecisionError("precision must be at least 1")
    field = x.field
    num, den = x.num, x.den
    dn, dd = num.degree, den.degree
    nrev = [num.coeff(dn - i) for i in range(dn + 1)]
    drev = [den.coeff(dd - i) for i in range(dd + 1)]
    inv0 = drev[0].inverse()
    out = []
    for k in range(prec):
        acc = nrev[k] if k < len(nrev) else field.zero
        for j in range(1, min(k, dd) + 1):
            acc = acc - drev[j] * out[k - j]
        out.append(acc * inv0)
    return LaurentKInf(field, dd - dn, out)


def is_square_kinf(f):
    """Squareness of a nonzero truncated series in K_inf = F_q((1/T)).

    True iff the valuation is even and the leading coefficient is a square
    in F_q.  For odd q this test is exact: a unit series with square leading
    coefficient has a square root by Hensel's lemma, so no root is lifted.
    """
    if f.is_zero():
        raise ValueError("squareness of the zero series is not defined")
    if f.prec < 2:
        raise PrecisionError("need at least 2 coefficients")
    return f.val % 2 == 0 and is_square_fq(f.leading_coeff())


def quad_irreducible_kinf(b, c, prec=DEFAULT_PREC):
    """Whether z^2 + b*z + c (b, c in K) has no root in K_inf.

    Decided by the discriminant: the quadratic is irreducible over K_inf
    iff b^2 - 4c is not a square there (characteristic is odd), that is,
    iff its valuation is odd or lc(num) = lc(num)/lc(den) is a non-square.
    No series is expanded; `prec` < 2 raises, as in `is_square_kinf`.
    """
    disc = b * b - RatK.from_value(b.field, 4) * c
    if disc.is_zero():
        return False
    if prec < 2:
        raise PrecisionError("need at least 2 coefficients")
    return disc.valuation() % 2 != 0 or not is_square_fq(disc.num.leading_coeff())
