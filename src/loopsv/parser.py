"""Text forms of elements and Laurent polynomials.

The grammar mirrors what ``str()`` prints, so parse and print are mutually
inverse on canonical values:

    element  :=  ['+'|'-'] term (('+'|'-') term)*
    term     :=  [coeff '*'] atom
    atom     :=  ('L'|'M'|'Y') '(' scalar ',' integer ')'
    laurent  :=  ['+'|'-'] lterm (('+'|'-') lterm)*
    lterm    :=  coeff ['*' power] | power
    power    :=  't' ['^' integer]

A coeff is a scalar literal; composite literals like 1+sqrt2 must be wrapped
in parentheses when they multiply something, which is exactly how the
printers emit them.  Grammar failures raise ParseError with a position;
membership failures (a Y index outside the coset, say) surface as the
algebra's own errors, which already name the offending value.
"""

from __future__ import annotations

import re

from .algebra import BasisKey, Element, LoopAlgebra
from .errors import ParseError
from .laurent import LaurentPoly
from .scalars import ONE, Scalar

__all__ = ["parse_element", "parse_key", "parse_laurent"]

_ATOM_START = re.compile(r"[LMY]\(")
_INTEGER = re.compile(r"^[+-]?\d+$")


def _require_text(text) -> str:
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {text!r}")
    return text


def _split_terms(text: str):
    """Signed top-level chunks: yields (sign, chunk, offset).

    A '+' or '-' splits only at parenthesis depth zero and only when it is a
    binary operator, never when it opens the string, follows another
    operator, or follows '^' (Laurent exponents carry their own sign).
    """
    s = text
    chunks = []
    depth = 0
    sign = 1
    start = None
    prev = ""
    for pos, ch in enumerate(s):
        if ch.isspace():
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", position=pos)
        elif depth == 0 and ch in "+-" and prev not in ("", "^", "*", "+", "-"):
            chunks.append((sign, s[start:pos], start))
            sign = -1 if ch == "-" else 1
            start = None
            prev = ch
            continue
        if start is None:
            if ch == "-" and prev == "":
                sign = -1
                prev = ch
                continue
            if ch == "+" and prev == "":
                prev = ch
                continue
            start = pos
        prev = ch
    if depth:
        raise ParseError("unbalanced '('", position=len(s))
    if start is None:
        raise ParseError("expected a term", position=len(s), expected="term")
    chunks.append((sign, s[start:], start))
    return chunks


def _scalar(alg: LoopAlgebra, text: str, offset: int) -> Scalar:
    try:
        return alg.group.parse_scalar(text)
    except ParseError as exc:
        raise ParseError(str(exc), position=offset, expected="scalar") from None


def _integer(text: str, what: str, position: int) -> int:
    if not _INTEGER.match(text):
        raise ParseError(f"{what} must be an integer, got {text!r}", position=position, expected="integer")
    try:
        return int(text)
    except ValueError:  # beyond Python's limit on digits in an int string
        raise ParseError(f"{what} has too many digits", position=position, expected="integer") from None


def _parse_atom(alg: LoopAlgebra, chunk: str, offset: int) -> BasisKey:
    m = _ATOM_START.match(chunk)
    if not m:
        raise ParseError(
            "expected a basis atom", position=offset, expected="L(, M( or Y("
        )
    close = chunk.find(")")
    if close == -1:
        raise ParseError("unclosed atom", position=offset + len(chunk), expected=")")
    if chunk[close + 1 :].strip():
        raise ParseError(
            f"unexpected trailing input {chunk[close + 1:].strip()!r}",
            position=offset + close + 1,
        )
    inside = chunk[2:close]
    comma = inside.find(",")
    if comma == -1:
        raise ParseError("atom needs two indices", position=offset + close, expected=",")
    gamma = _scalar(alg, inside[:comma], offset + 2)
    loop = _integer(inside[comma + 1 :].strip(), "loop index", offset + 3 + comma)
    return alg.key(chunk[0], gamma, loop)


def _closing_paren(chunk: str, offset: int) -> int:
    """Position of the ')' that closes the '(' opening ``chunk``."""
    depth = 0
    for pos, ch in enumerate(chunk):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return pos
    raise ParseError("unbalanced '('", position=offset)


def _parse_term(alg: LoopAlgebra, chunk: str, offset: int):
    chunk = chunk.strip()
    if chunk.startswith("("):
        pos = _closing_paren(chunk, offset)
        coeff = _scalar(alg, chunk[1:pos], offset + 1)
        rest = chunk[pos + 1 :].strip()
        if not rest.startswith("*"):
            raise ParseError(
                "parenthesized coefficient needs '*'",
                position=offset + pos + 1,
                expected="*",
            )
        return coeff, _parse_atom(alg, rest[1:].strip(), offset + pos + 2)
    m = _ATOM_START.search(chunk)
    if m is None:
        raise ParseError(
            "expected a basis atom", position=offset, expected="L(, M( or Y("
        )
    if m.start() == 0:
        return ONE, _parse_atom(alg, chunk, offset)
    head = chunk[: m.start()].strip()
    if not head.endswith("*"):
        raise ParseError(
            "coefficient and atom must be joined by '*'",
            position=offset + m.start(),
            expected="*",
        )
    coeff = _scalar(alg, head[:-1], offset)
    return coeff, _parse_atom(alg, chunk[m.start() :], offset + m.start())


def parse_element(alg: LoopAlgebra, text: str) -> Element:
    """Parse the element grammar; inverse of Element.__str__."""
    s = _require_text(text).strip()
    if not s:
        raise ParseError("empty element", position=0, expected="term")
    if s == "0":
        return alg.zero()
    out = alg.zero()
    for sign, chunk, offset in _split_terms(text):
        coeff, key = _parse_term(alg, chunk, offset)
        if sign < 0:
            coeff = -coeff
        out = out + alg.monomial(key, coeff)
    return out


def parse_key(alg: LoopAlgebra, text: str) -> BasisKey:
    """A single bare basis key like ``L(1,0)``; no coefficient, no sum."""
    return _parse_atom(alg, _require_text(text).strip(), 0)


def _parse_laurent_term(alg: LoopAlgebra, chunk: str, offset: int):
    chunk = chunk.strip()
    if chunk.startswith("("):
        pos = _closing_paren(chunk, offset)
        rest = chunk[pos + 1 :].strip()
        if rest and not rest.startswith("*"):
            raise ParseError(
                "parenthesized coefficient needs '*'",
                position=offset + pos + 1,
                expected="*",
            )
        tail = rest[1:].strip() if rest else ""
        return _laurent_pieces(alg, chunk[1:pos], tail, offset)
    star = chunk.rfind("*")
    if star != -1 and chunk[star + 1 :].strip().startswith("t"):
        return _laurent_pieces(alg, chunk[:star], chunk[star + 1 :].strip(), offset)
    if chunk == "t" or chunk.startswith("t^"):
        return _laurent_pieces(alg, "", chunk, offset)
    return _laurent_pieces(alg, chunk, "", offset)


def _laurent_pieces(alg: LoopAlgebra, coeff_text: str, power_text: str, offset: int):
    coeff = ONE if not coeff_text.strip() else _scalar(alg, coeff_text, offset)
    if not power_text:
        return coeff, 0
    if power_text == "t":
        return coeff, 1
    if power_text.startswith("t^"):
        return coeff, _integer(power_text[2:], "exponent", offset)
    raise ParseError(
        f"expected a power of t, got {power_text!r}", position=offset, expected="t^k"
    )


def parse_laurent(alg: LoopAlgebra, text: str) -> LaurentPoly:
    """Parse the Laurent grammar; inverse of LaurentPoly.__str__."""
    s = _require_text(text).strip()
    if not s:
        raise ParseError("empty polynomial", position=0, expected="term")
    if s == "0":
        return LaurentPoly.zero()
    coeffs: dict = {}
    for sign, chunk, offset in _split_terms(text):
        coeff, exp = _parse_laurent_term(alg, chunk, offset)
        if sign < 0:
            coeff = -coeff
        coeffs[exp] = coeffs.get(exp, Scalar(0)) + coeff
    return LaurentPoly(coeffs)
