"""Exact scalar arithmetic over Q and over real quadratic fields Q(sqrt d).

A :class:`Scalar` stores a pair of rationals ``(a, b)`` standing for
``a + b*sqrt(d)``.  Purely rational values always carry ``d == 0``, so the
representation is canonical and equality, hashing and ordering are exact.
Every operation is closed under the field generated by the operands; mixing
two different radicands is an error rather than a silent approximation.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import OutputError, ParseError

__all__ = ["Scalar", "ZERO", "ONE", "HALF", "parse_scalar", "is_squarefree"]


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class Scalar:
    """Immutable field element ``a + b*sqrt(d)`` with exact rational parts."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=0):
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if b == 0:
            d = 0
        elif d < 2:
            raise ValueError("a nonzero square-root part needs a radicand d >= 2")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", int(d))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise TypeError(f"cannot interpret {value!r} as a Scalar")

    # -- field structure ----------------------------------------------------

    def _join(self, other: "Scalar") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise ValueError(f"mixed radicands sqrt{self.d} and sqrt{other.d}")

    def __add__(self, other):
        if isinstance(other, Scalar):
            if not (self.d or other.d):
                return _rational(self.a + other.a)
        elif isinstance(other, (int, Fraction)):
            other = Scalar(other)
        else:
            return NotImplemented
        return Scalar(self.a + other.a, self.b + other.b, self._join(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Scalar):
            if not (self.d or other.d):
                return _rational(self.a - other.a)
        elif isinstance(other, (int, Fraction)):
            other = Scalar(other)
        else:
            return NotImplemented
        return Scalar(self.a - other.a, self.b - other.b, self._join(other))

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(other) - self
        return NotImplemented

    def __neg__(self):
        return Scalar(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            if not (self.d or other.d):
                return _rational(self.a * other.a)
        elif isinstance(other, (int, Fraction)):
            other = Scalar(other)
        else:
            return NotImplemented
        d = self._join(other)
        return Scalar(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("scalar division by zero")
        norm = self.a * self.a - self.b * self.b * self.d
        # norm == 0 would force d to be a rational square, which is excluded
        return Scalar(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("scalar division by zero")
            return Scalar(self.a / other, self.b / other, self.d)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(other) * self.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return self.d == other.d and self.a == other.a and self.b == other.b

    # d == 0 exactly when b == 0, so the radicand answers "is b zero?" cheaply

    def __hash__(self):
        if not self.d:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.d) or self.a != 0

    def sign(self) -> int:
        """Sign of the real number this scalar denotes (sqrt d > 0)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        sa = 1 if self.a > 0 else -1
        if sa == (1 if self.b > 0 else -1):
            return sa
        gap = self.a * self.a - self.b * self.b * self.d
        # gap == 0 cannot happen for squarefree d >= 2
        return sa if gap > 0 else -sa

    def __lt__(self, other):
        other = Scalar.of(other) if isinstance(other, (int, Fraction)) else other
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other):
        other = Scalar.of(other) if isinstance(other, (int, Fraction)) else other
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other):
        other = Scalar.of(other) if isinstance(other, (int, Fraction)) else other
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other):
        other = Scalar.of(other) if isinstance(other, (int, Fraction)) else other
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- misc ---------------------------------------------------------------

    def sqrt(self, field_d: int = 0) -> "Scalar | None":
        """A square root inside Q(sqrt field_d), or None if there is none.

        The returned root is the nonnegative one, which makes the choice
        deterministic.  ``field_d == 0`` restricts the search to Q.
        """
        if self.sign() < 0:
            return None
        if not self:
            return ZERO
        if self.b == 0:
            r = _fraction_sqrt(self.a)
            if r is not None:
                return Scalar(r)
            if field_d >= 2:
                r = _fraction_sqrt(self.a / field_d)
                if r is not None:
                    return Scalar(0, r, field_d)
            return None
        # (x + y sqrt d)^2 = a + b sqrt d with b != 0 forces x, y != 0 and
        # x^2 = (a +- sqrt(a^2 - d b^2)) / 2, y = b / (2 x).
        if field_d != self.d:
            return None
        gap = _fraction_sqrt(self.a * self.a - self.b * self.b * self.d)
        if gap is None:
            return None
        for root in (gap, -gap):
            x2 = (self.a + root) / 2
            x = _fraction_sqrt(x2)
            if x is not None and x != 0:
                y = self.b / (2 * x)
                cand = Scalar(x, y, self.d)
                if cand.sign() < 0:
                    cand = -cand
                if cand * cand == self:
                    return cand
        return None

    def __str__(self):
        try:
            if self.b == 0:
                return str(self.a)
            root = f"sqrt{self.d}"
            mag = abs(self.b)
            part = root if mag == 1 else f"{mag}*{root}"
            if self.a == 0:
                return part if self.b > 0 else f"-{part}"
            op = "+" if self.b > 0 else "-"
            return f"{self.a}{op}{part}"
        except ValueError:  # beyond Python's limit on digits in an int string
            raise OutputError("a coefficient of the result has too many digits to print") from None

    def __repr__(self):
        return f"Scalar({str(self)!r})"


_FRACTION_ZERO = Fraction(0)


def _rational(a: Fraction) -> Scalar:
    """``Scalar(a)`` for a Fraction, without re-checking the arguments."""
    out = object.__new__(Scalar)
    object.__setattr__(out, "a", a)
    object.__setattr__(out, "b", _FRACTION_ZERO)
    object.__setattr__(out, "d", 0)
    return out


def _coeff_str(c: Scalar) -> str:
    """``str(c)`` for a coefficient in front of a key or a power of t."""
    s = str(c)
    # composite scalars get parentheses so products stay unambiguous
    if c.b != 0 and c.a != 0:
        return f"({s})"
    return s


def _signed_sum(terms) -> str:
    """``c1*x1 + c2*x2 - ...`` for (name, coefficient) pairs, ``0`` for none.

    A coefficient of magnitude one is left out, and each sign after the
    first is spaced out as a binary operator.
    """
    out = []
    for name, coeff in terms:
        mag = abs(coeff)
        body = name if mag == 1 else f"{_coeff_str(mag)}*{name}"
        if not out:
            out.append(body if coeff.sign() > 0 else f"-{body}")
        else:
            out.append(("+ " if coeff.sign() > 0 else "- ") + body)
    return " ".join(out) or "0"


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(Fraction(1, 2))

_RAT = r"-?\d+(?:/\d+)?"
_POS_RAT = r"\d+(?:/\d+)?"
_RE_RATIONAL = re.compile(rf"^({_RAT})$")
_RE_ROOT = re.compile(rf"^(-)?(?:({_POS_RAT})\*)?sqrt(\d+)$")
_RE_MIXED = re.compile(rf"^({_RAT})([+-])(?:({_POS_RAT})\*)?sqrt(\d+)$")


def parse_scalar(text: str, field_d: int | None = None) -> Scalar:
    """Parse strings like ``3/2``, ``-1``, ``sqrt2``, ``2*sqrt2``, ``1-1/2*sqrt2``.

    When ``field_d`` is given, a square-root part must use exactly that
    radicand and is rejected entirely for ``field_d == 0`` (plain Q).
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar")
    m = _RE_RATIONAL.match(s)
    if m:
        return Scalar(_parse_fraction(m.group(1), text))
    m = _RE_ROOT.match(s)
    if m:
        sign, coef, d = m.groups()
        b = _parse_fraction(coef, text) if coef else Fraction(1)
        if sign:
            b = -b
        return _checked_root(Fraction(0), b, d, field_d, text)
    m = _RE_MIXED.match(s)
    if m:
        rat, op, coef, d = m.groups()
        b = _parse_fraction(coef, text) if coef else Fraction(1)
        if op == "-":
            b = -b
        return _checked_root(_parse_fraction(rat, text), b, d, field_d, text)
    raise ParseError(f"cannot parse scalar {text!r}")


def _parse_fraction(part: str, text: str) -> Fraction:
    try:
        return Fraction(part)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {text!r}") from None
    except ValueError:  # beyond Python's limit on digits in an int string
        raise ParseError(f"scalar has too many digits ({len(text)} characters)") from None


def _checked_root(a, b, digits: str, field_d, text):
    d = int(_parse_fraction(digits, text))
    # a configured radicand was validated with its group, so only a free one
    # pays for the trial-division squarefree test
    if field_d is None:
        if d < 2 or not is_squarefree(d):
            raise ParseError(f"radicand in {text!r} must be squarefree and >= 2")
    elif field_d == 0:
        raise ParseError(f"{text!r} uses sqrt{d} but the field is plain Q")
    elif d != field_d:
        raise ParseError(f"{text!r} uses sqrt{d} but the field is Q(sqrt{field_d})")
    return Scalar(a, b, d)
