"""Finitely supported Laurent polynomials with exact scalar coefficients."""

from __future__ import annotations

from .scalars import Scalar, _SparseVector, _coeff_str

__all__ = ["LaurentPoly"]


class LaurentPoly(_SparseVector):
    """Sparse map exponent -> Scalar; zero coefficients are never stored."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        super().__init__(None, ((int(e), c) for e, c in coeffs.items()) if coeffs else ())

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
        return sorted(self._terms.items())

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return _SparseVector.__mul__(self, other)
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return LaurentPoly(out)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return LaurentPoly({e + k: c for e, c in self._terms.items()})

    def derivative(self) -> "LaurentPoly":
        """d/dt, so t**i maps to i * t**(i-1)."""
        return LaurentPoly({e - 1: c * e for e, c in self._terms.items() if e})

    def __str__(self):
        if not self._terms:
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
