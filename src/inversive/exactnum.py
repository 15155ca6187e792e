"""Scalar backends for exact inversive geometry.

Three backends coexist: rationals (int or fractions.Fraction), the real
quartic field Q(t) with t = 2**(1/4) on integer numerators over one common
denominator, with an exact integer sign and no refinement state, and IEEE
floats with one constant tolerance, EPSILON, that only predicates consult.
The numerators are elements of the ring Z[t]; `zt_mul` and `zt_cofactor`
are its arithmetic on int 4-tuples, shared with the fraction-free
elimination of `_linalg`.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Optional, Sequence, Tuple, Union

EPSILON = 1e-9


class BackendMismatch(TypeError):
    """Raised when float data meets exact data in one computation."""


RatLike = Union[int, Fraction]

_HASH_MODULUS = sys.hash_info.modulus


def _rational(c) -> Fraction:
    k = kind(c)
    if k != "rational":
        error = BackendMismatch if k == "float" else TypeError
        raise error("not a rational coefficient: %r" % (c,))
    return Fraction(c)


def _make(n0: int, n1: int, n2: int, n3: int, d: int) -> "Quartic2":
    # canonical form of (n0 + n1*t + n2*t**2 + n3*t**3) / d for d > 0
    g = math.gcd(n0, n1, n2, n3, d)
    if g != 1:
        n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    return _new((n0, n1, n2, n3), d)


def _new(n: Tuple[int, int, int, int], d: int) -> "Quartic2":
    # n / d already in canonical form
    x = object.__new__(Quartic2)
    x._n = n
    x._d = d
    return x


def zt_element(n: Sequence[int], d: int = 1) -> "Quartic2":
    """(n0 + n1*t + n2*t**2 + n3*t**3) / d for n in Z[t] and a nonzero int d."""
    if d == 1:
        return _new(tuple(n), 1)
    n0, n1, n2, n3 = n
    return _make(n0, n1, n2, n3, d) if d > 0 else _make(-n0, -n1, -n2, -n3, -d)


def zt_mul(a: Sequence[int], b: Sequence[int]) -> Tuple[int, int, int, int]:
    """The product in Z[t]: the convolution folded once through t**4 = 2."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + 2 * (a1 * b3 + a2 * b2 + a3 * b1),
            a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
            a0 * b2 + a1 * b1 + a2 * b0 + 2 * a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def zt_cofactor(n: Sequence[int]) -> Tuple[Tuple[int, int, int, int], int]:
    """(c, norm) with n * c = norm, a nonzero int for nonzero n in Z[t]: c is
    the product of the three other conjugates of n, and norm its field norm."""
    # n = E + tO, E, O in Z[s], s = t**2: (E - tO)(c0 - c1*s) with c0 + c1*s = E*E - s*O*O
    n0, n1, n2, n3 = n
    c0, c1 = _conjugate_product(n0, n1, n2, n3)
    return ((n0 * c0 - 2 * n2 * c1, 2 * n3 * c1 - n1 * c0,
             n2 * c0 - n0 * c1, n1 * c1 - n3 * c0), c0 * c0 - 2 * c1 * c1)


def _sqrt2_sign(u: int, v: int) -> int:
    """Sign of u + v*sqrt(2) for integers u, v, by squaring."""
    w = (u or v) if u * v >= 0 else (u if u * u > 2 * v * v else v)
    return (w > 0) - (w < 0)


def _conjugate_product(n0: int, n1: int, n2: int, n3: int) -> Tuple[int, int]:
    # With s = t**2, E = n0 + n2*s and O = n1 + n3*s:
    # (E + t*O)(E - t*O) = E*E - s*O*O = c0 + c1*s.
    return n0 * n0 + 2 * n2 * n2 - 4 * n1 * n3, 2 * n0 * n2 - n1 * n1 - 2 * n3 * n3


@total_ordering
class Quartic2:
    """Element c0 + c1*t + c2*t**2 + c3*t**3 of Q(2**(1/4)), t**4 = 2, held as
    (n0, n1, n2, n3) / d with d > 0 and gcd(n0, n1, n2, n3, d) == 1."""

    __slots__ = ("_n", "_d")

    def __init__(self, c0: RatLike = 0, c1: RatLike = 0, c2: RatLike = 0, c3: RatLike = 0):
        cs = [_rational(c) for c in (c0, c1, c2, c3)]
        # over the lcm of reduced denominators the numerators are in lowest terms
        self._d = d = math.lcm(*(c.denominator for c in cs))
        self._n = tuple(c.numerator * (d // c.denominator) for c in cs)

    @classmethod
    def from_rational(cls, q: RatLike) -> "Quartic2":
        q = _rational(q)
        return _make(q.numerator, 0, 0, 0, q.denominator)

    @staticmethod
    def _coerce(other) -> Optional["Quartic2"]:
        if isinstance(other, Quartic2):
            return other
        if isinstance(other, Fraction):
            return _make(other.numerator, 0, 0, 0, other.denominator)
        if isinstance(other, int) and not isinstance(other, bool):
            return _make(other, 0, 0, 0, 1)
        return None

    @property
    def coeffs(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    @property
    def is_rational(self) -> bool:
        n = self._n
        return not (n[1] or n[2] or n[3])

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational element: %r" % (self,))
        return Fraction(self._n[0], self._d)

    def __add__(self, other):
        if type(other) is int:
            # n/d + k = (n0 + k*d, n1, n2, n3)/d keeps gcd(n, d) = 1
            n0, n1, n2, n3 = self._n
            return _new((n0 + other * self._d, n1, n2, n3), self._d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = o._n
        da, db = self._d, o._d
        return _make(a0 * db + b0 * da, a1 * db + b1 * da,
                     a2 * db + b2 * da, a3 * db + b3 * da, da * db)

    __radd__ = __add__

    def __neg__(self):
        n0, n1, n2, n3 = self._n
        return _new((-n0, -n1, -n2, -n3), self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if type(other) is int:
            # gcd(k*n, d) = gcd(k, d) as gcd(n, d) = 1
            d = self._d
            g = math.gcd(other, d)
            if g != 1:
                other, d = other // g, d // g
            n0, n1, n2, n3 = self._n
            return _new((other * n0, other * n1, other * n2, other * n3), d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(*zt_mul(self._n, o._n), self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "Quartic2":
        if not self:
            raise ZeroDivisionError("quartic division by zero")
        # 1/self = d * cofactor(n) / norm(n) for self = n/d
        (c0, c1, c2, c3), norm = zt_cofactor(self._n)
        d = self._d
        return zt_element((d * c0, d * c1, d * c2, d * c3), norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = _make(1, 0, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        n = self._n
        return bool(n[0] or n[1] or n[2] or n[3])

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._n == o._n

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quartic_sign(self - o) < 0

    def __hash__(self):
        # hash(self.coeffs[0]) for rational elements, else hash(self.coeffs):
        # as in Fraction.__hash__, c/d hashes like the int sign(c)*(|c|/d mod P)
        n0, n1, n2, n3 = self._n
        d = self._d
        if d != 1:
            P = _HASH_MODULUS
            try:
                dinv = pow(d, -1, P)
            except ValueError:  # P divides d
                return hash(self.coeffs[0] if self.is_rational else self.coeffs)
            n0 = n0 * dinv % P if n0 >= 0 else -(-n0 * dinv % P)
            if not (n1 or n2 or n3):
                return hash(n0)
            n1 = n1 * dinv % P if n1 >= 0 else -(-n1 * dinv % P)
            n2 = n2 * dinv % P if n2 >= 0 else -(-n2 * dinv % P)
            n3 = n3 * dinv % P if n3 >= 0 else -(-n3 * dinv % P)
        elif not (n1 or n2 or n3):
            return hash(n0)
        return hash((n0, n1, n2, n3))

    def __abs__(self):
        return -self if quartic_sign(self) < 0 else self

    def __float__(self) -> float:
        t = 2.0 ** 0.25
        n0, n1, n2, n3 = self._n
        d = self._d
        # int / int rounds exactly like float(Fraction(n, d))
        return n0 / d + (n1 / d) * t + (n2 / d) * t * t + (n3 / d) * t ** 3

    def __repr__(self) -> str:
        c = self.coeffs
        return "Quartic2(%s, %s, %s, %s)" % (c[0], c[1], c[2], c[3])


THETA = _make(0, 1, 0, 0, 1)
SQRT2 = _make(0, 0, 1, 0, 1)


def quartic_sign(x: Quartic2) -> int:
    """Exact sign of a quartic field element, by integer square comparisons.

    x*d = E + t*O with E = n0 + n2*s, O = n1 + n3*s and s = t**2. If E and O
    differ in sign, E*E - s*O*O (never zero, as t is not in Q(s)) decides."""
    n0, n1, n2, n3 = x._n
    se, so = _sqrt2_sign(n0, n2), _sqrt2_sign(n1, n3)
    if se * so >= 0:
        return se or so
    return se if _sqrt2_sign(*_conjugate_product(n0, n1, n2, n3)) > 0 else so


class NormClass(Enum):
    """Multiplicative classes of nonzero field elements modulo Q*."""

    Q_STAR = "1"
    ROOT2_Q_STAR = "sqrt2"
    QUARTIC_Q_STAR = "2^(1/4)"
    INV_QUARTIC_Q_STAR = "2^(-1/4)"


# t**3 = 2/t, so the t**3 monomials are exactly the 2**(-1/4) class.
_MONOMIAL_CLASS = {
    0: NormClass.Q_STAR,
    1: NormClass.QUARTIC_Q_STAR,
    2: NormClass.ROOT2_Q_STAR,
    3: NormClass.INV_QUARTIC_Q_STAR,
}


def norm_class_of(x) -> Optional[NormClass]:
    """Class of a nonzero exact scalar among Q*, sqrt2*Q*, 2**(1/4)*Q*,
    2**(-1/4)*Q*, or None for elements in none of them."""
    if isinstance(x, float):
        raise BackendMismatch("norm classes are defined for exact scalars only")
    if isinstance(x, (int, Fraction)):
        if x == 0:
            raise ValueError("zero has no norm class")
        return NormClass.Q_STAR
    if not isinstance(x, Quartic2):
        raise TypeError("not a scalar: %r" % (x,))
    nz = [i for i, n in enumerate(x._n) if n]
    if not nz:
        raise ValueError("zero has no norm class")
    if len(nz) == 1:
        return _MONOMIAL_CLASS[nz[0]]
    return None


def kind(x) -> str:
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (int, Fraction)):
        return "rational"
    if isinstance(x, Quartic2):
        return "quartic"
    if isinstance(x, float):
        return "float"
    raise TypeError("not a scalar: %r" % (x,))


def common_kind(xs: Iterable) -> str:
    seen = {kind(x) for x in xs}
    if not seen:
        return "rational"
    if "float" in seen:
        if seen != {"float"}:
            raise BackendMismatch("cannot mix float with exact scalars")
        return "float"
    return "quartic" if "quartic" in seen else "rational"


def promote(x, target_kind: str):
    k = kind(x)
    if k == target_kind:
        return Fraction(x) if target_kind == "rational" and isinstance(x, int) else x
    if k == "rational" and target_kind == "quartic":
        return Quartic2.from_rational(x)
    if target_kind == "float" and k == "rational":
        return float(x)
    raise BackendMismatch("cannot promote %s scalar to %s" % (k, target_kind))


def sign_of(x) -> int:
    """Sign of a scalar; the float backend treats |x| <= EPSILON as zero."""
    if isinstance(x, Quartic2):
        return quartic_sign(x)
    if is_zero(x):
        return 0
    return 1 if x > 0 else -1


def is_zero(x) -> bool:
    if isinstance(x, float):
        return abs(x) <= EPSILON
    return not x


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_in_field(x):
    """Exact square root within the scalar's own field, or None.

    Rationals: perfect squares, and 2*m**2 maps into the quartic field as
    m*t**2. Quartic monomials q*t**2 with square or twice-square q have roots
    m*t and m*t**3. Anything else returns None.
    """
    if isinstance(x, float):
        return math.sqrt(x) if x >= 0 else None
    if isinstance(x, (int, Fraction)):
        return _rational_sqrt(Fraction(x))
    if not isinstance(x, Quartic2):
        raise TypeError("not a scalar: %r" % (x,))
    c = x.coeffs
    # x = q*t**(2k), k = 0 or 1, has the root r*t**k if q = r**2 and the root
    # r*t**(k+2) if q = 2*r**2
    k = 0 if x.is_rational else 1
    if c[1] or c[3] or (k and c[0]):
        return None
    for q, j in ((c[2 * k], k), (c[2 * k] / 2, k + 2)):
        r = _rational_sqrt(q)
        if r is not None:
            return Quartic2(*[r if i == j else 0 for i in range(4)])
    return None
