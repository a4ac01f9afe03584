"""Finitely supported Laurent polynomials with exact scalar coefficients."""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, ZERO, _coeff_str, _nonzero

__all__ = ["LaurentPoly"]


class LaurentPoly:
    """Sparse map exponent -> Scalar; zero coefficients are never stored."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        cleaned = _nonzero((int(e), c) for e, c in coeffs.items()) if coeffs else {}
        object.__setattr__(self, "_coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def term(coeff, exponent: int = 0) -> "LaurentPoly":
        return LaurentPoly({exponent: Scalar.of(coeff)})

    @staticmethod
    def t(exponent: int = 1) -> "LaurentPoly":
        return LaurentPoly({exponent: Scalar(1)})

    def items(self):
        """Pairs (exponent, coefficient) in ascending exponent order."""
        return sorted(self._coeffs.items())

    def coefficient(self, exponent: int) -> Scalar:
        return self._coeffs.get(exponent, ZERO)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, ZERO) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out = {}
            for e1, c1 in self._coeffs.items():
                for e2, c2 in other._coeffs.items():
                    e = e1 + e2
                    prev = out.get(e)
                    out[e] = c1 * c2 if prev is None else prev + c1 * c2
            return LaurentPoly(out)
        if isinstance(other, (Scalar, int, Fraction)):
            c0 = Scalar.of(other)
            return LaurentPoly({e: c * c0 for e, c in self._coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        """d/dt, so t**i maps to i * t**(i-1)."""
        return LaurentPoly({e - 1: c * e for e, c in self._coeffs.items() if e})

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                body = _coeff_str(c)
            else:
                power = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    body = power
                elif c == Scalar(-1):
                    body = f"-{power}"
                else:
                    body = f"{_coeff_str(c)}*{power}"
            parts.append(body)
        text = parts[0]
        for body in parts[1:]:
            if body.startswith("-"):
                text += " - " + body[1:]
            else:
                text += " + " + body
        return text

    def __repr__(self):
        return f"LaurentPoly({str(self)!r})"
