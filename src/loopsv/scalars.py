"""Exact scalar arithmetic over Q and over real quadratic fields Q(sqrt d).

A :class:`Scalar` stores four integers ``p, r, q, d`` standing for
``(p + r*sqrt(d)) / q``.  The form is canonical: ``q > 0``,
``gcd(p, r, q) == 1``, and ``d == 0`` exactly when ``r == 0``, so equality,
hashing and ordering are exact and a purely rational value carries
``d == 0``.  Sums, products, inverses and comparisons are integer
operations with one ``math.gcd`` per result; no ``Fraction`` is built on
those paths.  ``.a`` and ``.b`` give the rational parts of ``a + b*sqrt(d)``
as Fractions, and ``parts()`` gives the integers themselves.  Every
operation is closed under the field generated by the operands; mixing two
different radicands is an error rather than a silent approximation.

``_SparseVector`` is the arithmetic of finite linear combinations with these
scalars, shared by algebra elements, Laurent polynomials, linear functionals
and elements of the central extension.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import GroupMismatchError, OutputError, ParseError

__all__ = ["Scalar", "ZERO", "ONE", "HALF", "parse_scalar", "is_squarefree"]

# is_squarefree divides by every k up to sqrt(d); below this bound that stays
# under a second, so a larger radicand is refused before any division
RADICAND_LIMIT = 10**12


@lru_cache(maxsize=256)
def is_radicand(d: int) -> bool:
    """True when Q(sqrt d) is a field this package accepts: d squarefree, 2 <= d < 10^12.

    Memoized per ``d``: the public ``Scalar`` constructor asks for every
    value with a square-root part.
    """
    return 2 <= d < RADICAND_LIMIT and is_squarefree(d)


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _rational_hash(p: int, q: int) -> int:
    """``hash(Fraction(p, q))`` for ``q > 0``, by Python's rule for numeric hashes."""
    if q == 1:
        return hash(p)
    try:
        dinv = pow(q, -1, _HASH_MODULUS)
    except ValueError:
        h = _HASH_INF
    else:
        h = hash(hash(abs(p)) * dinv)
    h = h if p >= 0 else -h
    return -2 if h == -1 else h


def _exact_isqrt(n: int) -> int | None:
    """The integer square root of ``n`` when ``n`` is a perfect square, else None."""
    if n < 0:
        return None
    s = math.isqrt(n)
    return s if s * s == n else None


def _ratio_str(n: int, m: int) -> str:
    """``str(Fraction(n, m))`` for ``m > 0``."""
    g = math.gcd(n, m)
    if g != 1:
        n //= g
        m //= g
    return str(n) if m == 1 else f"{n}/{m}"


def _integer_ratio(x) -> tuple[int, int]:
    """``(numerator, denominator)`` of an int or a Fraction.

    A float is refused: its binary value is rarely the number that was meant.
    So is a string: ``parse_scalar`` reads scalar text.
    """
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot make an exact Scalar from {x!r}")


@total_ordering
class Scalar:
    """Immutable field element ``(p + r*sqrt(d)) / q`` in canonical integer form.

    ``Scalar(a, b, d)`` is ``a + b*sqrt(d)`` for rationals ``a`` and ``b``; a
    nonzero ``b`` needs a radicand ``d`` (squarefree, 2 <= d < 10^12).
    """

    __slots__ = ("_p", "_r", "_q", "_d")

    def __init__(self, a=0, b=0, d=0):
        p, qa = _integer_ratio(a)
        r, qb = _integer_ratio(b)
        if not r:
            d = 0
        else:
            d = int(d)
            if not is_radicand(d):
                raise ValueError("a nonzero square-root part needs a squarefree radicand 2 <= d < 10^12")
        # both ratios are in lowest terms, so over their least common
        # denominator gcd(p, r, q) is already 1
        q = math.lcm(qa, qb)
        self._p = p * (q // qa)
        self._r = r * (q // qb)
        self._q = q
        self._d = d

    @property
    def a(self) -> Fraction:
        """The rational part of ``a + b*sqrt(d)``."""
        return Fraction(self._p, self._q)

    @property
    def b(self) -> Fraction:
        """The coefficient of ``sqrt(d)``."""
        return Fraction(self._r, self._q)

    @property
    def d(self) -> int:
        """The radicand, 0 for a rational value."""
        return self._d

    def parts(self) -> tuple[int, int, int, int]:
        """The canonical integers ``(p, r, q, d)`` of ``(p + r*sqrt(d)) / q``."""
        return self._p, self._r, self._q, self._d

    @staticmethod
    def from_parts(p: int, r: int, q: int, d: int) -> "Scalar":
        """``(p + r*sqrt(d)) / q`` for integers with ``q != 0``.

        ``d`` must be a radicand when ``r != 0``; it is not checked, as for
        the results of arithmetic.
        """
        return _make(p, r, q, d)

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return _coerce(value)
        raise TypeError(f"cannot interpret {value!r} as a Scalar")

    # -- field structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        d = _join(self._d, other._d)
        q1, q2 = self._q, other._q
        if q1 == q2:
            return _make(self._p + other._p, self._r + other._r, q1, d)
        return _make(self._p * q2 + other._p * q1, self._r * q2 + other._r * q1, q1 * q2, d)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        d = _join(self._d, other._d)
        q1, q2 = self._q, other._q
        if q1 == q2:
            return _make(self._p - other._p, self._r - other._r, q1, d)
        return _make(self._p * q2 - other._p * q1, self._r * q2 - other._r * q1, q1 * q2, d)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _coerce(other) - self
        return NotImplemented

    def __neg__(self):
        return _canonical(-self._p, -self._r, self._q, self._d)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        p1, r1, p2, r2 = self._p, self._r, other._p, other._r
        if not (r1 or r2):
            return _make(p1 * p2, 0, self._q * other._q, 0)
        d = _join(self._d, other._d)
        return _make(p1 * p2 + r1 * r2 * d, p1 * r2 + r1 * p2, self._q * other._q, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        p, r, q, d = self._p, self._r, self._q, self._d
        if not r:
            if not p:
                raise ZeroDivisionError("scalar division by zero")
            return _canonical(q, 0, p, 0) if p > 0 else _canonical(-q, 0, -p, 0)
        # q / (p + r sqrt d) = q (p - r sqrt d) / (p^2 - d r^2); the norm is
        # nonzero because d is not a rational square
        return _make(q * p, -q * r, p * p - d * r * r, d)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _coerce(other) * self.inverse()
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
        if isinstance(other, Scalar):
            return (
                self._p == other._p and self._q == other._q and self._r == other._r and self._d == other._d
            )
        if isinstance(other, int):
            return not self._d and self._q == 1 and self._p == other
        if isinstance(other, Fraction):
            return not self._d and self._q == other.denominator and self._p == other.numerator
        return NotImplemented

    def __hash__(self):
        if not self._d:
            return _rational_hash(self._p, self._q)
        # the hash of the tuple (a, b, d) of Fractions
        return hash((_rational_hash(self._p, self._q), _rational_hash(self._r, self._q), self._d))

    def __bool__(self):
        return bool(self._p or self._r)

    def sign(self) -> int:
        """Sign of the real number this scalar denotes (sqrt d > 0)."""
        p, r = self._p, self._r
        sp = (p > 0) - (p < 0)
        if not r:
            return sp
        sr = 1 if r > 0 else -1
        if sp == 0 or sp == sr:
            return sr
        # the larger of |p| and |r| sqrt d wins; they are never equal for a radicand d
        return sp if p * p > self._d * r * r else sr

    def __lt__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        if not (self._d or other._d):
            return self._p * other._q < other._p * self._q
        return (self - other).sign() < 0

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
        p, r, q, d = self._p, self._r, self._q, self._d
        if not r:
            # p/q in lowest terms is a square exactly when p*q is one
            s = _exact_isqrt(p * q)
            if s is not None:
                return _make(s, 0, q, 0)
            if field_d >= 2:
                # p/q = y^2 * field_d with y = sqrt(p q field_d) / (q field_d)
                s = _exact_isqrt(p * q * field_d)
                if s is not None:
                    return _make(0, s, q * field_d, field_d)
            return None
        # (x + y sqrt d)^2 = (p + r sqrt d)/q with r != 0 forces x, y != 0 and
        # x^2 = (p +- g) / 2q with g = sqrt(p^2 - d r^2); then x = s/2q with
        # s = sqrt(2q(p +- g)), and y = r/s.
        if field_d != d:
            return None
        g = _exact_isqrt(p * p - d * r * r)
        if g is None:
            return None
        for root in (g, -g):
            m = p + root
            s = _exact_isqrt(2 * q * m) if m > 0 else None
            if s is not None:
                cand = _make(s * s, 2 * q * r, 2 * q * s, d)
                if cand.sign() < 0:
                    cand = -cand
                if cand * cand == self:
                    return cand
        return None

    def __str__(self):
        p, r, q, d = self._p, self._r, self._q, self._d
        try:
            if not r:
                return _ratio_str(p, q)
            root = f"sqrt{d}"
            part = root if abs(r) == q else f"{_ratio_str(abs(r), q)}*{root}"
            if not p:
                return part if r > 0 else f"-{part}"
            op = "+" if r > 0 else "-"
            return f"{_ratio_str(p, q)}{op}{part}"
        except ValueError:  # beyond Python's limit on digits in an int string
            raise OutputError("a coefficient of the result has too many digits to print") from None

    def __repr__(self):
        return f"Scalar({str(self)!r})"


_new = object.__new__


def _canonical(p: int, r: int, q: int, d: int) -> Scalar:
    """The scalar with these parts, which are already in canonical form."""
    out = _new(Scalar)
    out._p = p
    out._r = r
    out._q = q
    out._d = d
    return out


def _make(p: int, r: int, q: int, d: int) -> Scalar:
    """``(p + r*sqrt(d)) / q`` for ``q != 0``, brought to canonical form with one gcd."""
    g = math.gcd(p, r, q)
    if q < 0:
        g = -g
    if g != 1:
        p //= g
        r //= g
        q //= g
    # _canonical inlined: every arithmetic result passes through here
    out = _new(Scalar)
    out._p = p
    out._r = r
    out._q = q
    out._d = d if r else 0
    return out


def _coerce(x) -> Scalar:
    """The scalar of an int or a Fraction."""
    if isinstance(x, int):
        return _canonical(int(x), 0, 1, 0)
    return _canonical(x.numerator, 0, x.denominator, 0)


def _nonzero(pairs) -> dict:
    """``{key: Scalar.of(c)}`` over the (key, c) pairs, with the zero coefficients dropped."""
    out = {}
    for key, c in pairs:
        c = Scalar.of(c)
        if c:
            out[key] = c
    return out


def _add_scaled(out: dict, c: Scalar, terms) -> None:
    """Add c times each (key, coefficient) pair of ``terms`` into ``out``; zero sums stay."""
    for key, coeff in terms:
        add = c * coeff
        prev = out.get(key)
        out[key] = add if prev is None else prev + add


_set = object.__setattr__


class _SparseVector:
    """An immutable finite linear combination: nonzero Scalars by key, in one space.

    ``_space`` is what the operands of ``+`` and ``==`` must share: the group
    configuration of an algebra element, or None for a type without one.  A
    subclass brings its constructor, its printing and any product of its own;
    the vector-space operations below are the same for all of them.
    """

    __slots__ = ("_space", "_terms")

    def __init__(self, space, pairs):
        _set(self, "_space", space)
        _set(self, "_terms", _nonzero(pairs))

    @classmethod
    def _of(cls, space, terms: dict):
        """The vector over ``space`` whose terms are ``terms``, all nonzero Scalars already."""
        out = _new(cls)
        _set(out, "_space", space)
        _set(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def coefficient(self, key) -> Scalar:
        return self._terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space is other._space and self._terms == other._terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._space is not other._space:
            raise GroupMismatchError("elements belong to different group configurations")
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = coeff
            else:
                coeff = prev + coeff
                if coeff:
                    out[key] = coeff
                else:
                    del out[key]
        return self._of(self._space, out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._of(self._space, {key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        c0 = Scalar.of(other)
        # a product of nonzero field elements is nonzero
        terms = {key: c * c0 for key, c in self._terms.items()} if c0 else {}
        return self._of(self._space, terms)

    __rmul__ = __mul__


def _join(d1: int, d2: int) -> int:
    """The radicand of a result with operands over d1 and d2 (0 for Q)."""
    if d1 == d2 or not d2:
        return d1
    if not d1:
        return d2
    raise ValueError(f"mixed radicands sqrt{d1} and sqrt{d2}")


def _coeff_str(c: Scalar) -> str:
    """``str(c)`` for a coefficient in front of a key or a power of t."""
    s = str(c)
    # composite scalars get parentheses so products stay unambiguous
    if c._p and c._r:
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

# spaces may stand around a sign and a '*', never inside a numeral or sqrt<d>;
# a digit is an ASCII digit, as '\d' would also match other scripts' digits
_RAT = r"(?:- *)?[0-9]+(?:/[0-9]+)?"
_POS_RAT = r"[0-9]+(?:/[0-9]+)?"
_ROOT = rf"(?:({_POS_RAT}) *\* *)?sqrt([0-9]+)"
# an integer literal: a loop index, an exponent, a document or flag integer
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RE_RATIONAL = re.compile(rf"^({_RAT})$")
_RE_ROOT = re.compile(rf"^(-)? *{_ROOT}$")
_RE_MIXED = re.compile(rf"^({_RAT}) *([+-]) *{_ROOT}$")


def parse_scalar(text: str, field_d: int | None = None) -> Scalar:
    """Parse strings like ``3/2``, ``-1``, ``sqrt2``, ``2*sqrt2``, ``1-1/2*sqrt2``.

    Spaces may stand around a sign and a ``*``, as in ``1 - 1/2 * sqrt2``,
    but not inside a numeral: ``1 2``, ``1 /2`` and ``sqrt 2`` are refused.
    When ``field_d`` is given, a square-root part must use exactly that
    radicand and is rejected entirely for ``field_d == 0`` (plain Q).
    """
    s = text.strip()
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
        return Fraction(part.replace(" ", ""))  # the spaces after a sign
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {text!r}") from None
    except ValueError:  # beyond Python's limit on digits in an int string
        raise ParseError(f"scalar has too many digits ({len(text)} characters)") from None


def _checked_root(a, b, digits: str, field_d, text):
    d = int(_parse_fraction(digits, text))
    # a configured radicand was validated with its group, so only a free one
    # pays for the trial-division squarefree test
    if field_d is None:
        if not is_radicand(d):
            raise ParseError(f"radicand in {text!r} must be squarefree, >= 2 and below 10^12")
    elif field_d == 0:
        raise ParseError(f"{text!r} uses sqrt{d} but the field is plain Q")
    elif d != field_d:
        raise ParseError(f"{text!r} uses sqrt{d} but the field is Q(sqrt{field_d})")
    return Scalar(a, b, d)
