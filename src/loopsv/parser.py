"""Text forms of elements and Laurent polynomials.

The grammar mirrors what ``str()`` prints, so parse and print are mutually
inverse on canonical values.  Both forms are one signed sum of terms, and
differ only in the atom a term multiplies:

    sum    :=  ['+'|'-'] term (('+'|'-') term)*
    term   :=  [coeff '*'] atom
    coeff  :=  scalar | '(' scalar ')'
    atom   :=  key                                     (an element)
            |  power                                   (a Laurent polynomial)
    key    :=  ('L'|'M'|'Y') '(' scalar ',' integer ')'
    power  :=  't' ['^' integer]  |  nothing, for t^0

A coeff is a scalar literal; composite literals like 1+sqrt2 must be wrapped
in parentheses when they multiply something, which is exactly how the
printers emit them.  Whitespace may stand around the signs, '*', the
parentheses, ',' and '^'; a key's letter and its '(' must touch.  A power
term may also leave its coefficient blank, as in ``*t`` or ``()``, which
reads as 1.  Grammar failures raise ParseError with a position and what was
expected; membership failures (a Y index outside the coset, say) surface as
the algebra's own errors, which already name the offending value.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .algebra import BasisKey, Element, LoopAlgebra
from .errors import ParseError
from .laurent import LaurentPoly
from .scalars import ONE, ZERO, Scalar

__all__ = ["parse_element", "parse_key", "parse_laurent"]

_KEY_START = re.compile(r"[LMY]\(")
_INTEGER = re.compile(r"^[+-]?\d+$")
_PAREN = re.compile(r"\(([^)]*)\)\s*")  # a parenthesized coefficient and the space after it


def _require_text(text) -> str:
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {text!r}", expected="a string")
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
                raise ParseError("unbalanced ')'", position=pos, expected="a '(' before it")
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
        raise ParseError("unbalanced '('", position=len(s), expected="')'")
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


def _key(alg: LoopAlgebra, text: str, offset: int) -> BasisKey:
    if not _KEY_START.match(text):
        raise ParseError("expected a basis atom", position=offset, expected="L(, M( or Y(")
    close = text.find(")")
    if close == -1:
        raise ParseError("unclosed atom", position=offset + len(text), expected=")")
    if text[close + 1 :].strip():
        raise ParseError(
            f"unexpected trailing input {text[close + 1:].strip()!r}",
            position=offset + close + 1,
            expected="end of the term",
        )
    inside = text[2:close]
    comma = inside.find(",")
    if comma == -1:
        raise ParseError("atom needs two indices", position=offset + close, expected=",")
    gamma = _scalar(alg, inside[:comma], offset + 2)
    loop = _integer(inside[comma + 1 :].strip(), "loop index", offset + 3 + comma)
    return alg.key(text[0], gamma, loop)


def _power(alg: LoopAlgebra, text: str, offset: int) -> int:
    """The exponent k of ``t^k``; ``t`` is t^1, and a power left out is t^0."""
    if not text:
        return 0
    base, caret, exponent = text.partition("^")
    if base.rstrip() != "t":
        raise ParseError(f"expected a power of t, got {text!r}", position=offset, expected="t^k")
    return _integer(exponent.strip(), "exponent", offset) if caret else 1


class _Atom(NamedTuple):
    """What a term's coefficient multiplies, and how to read it."""

    joint: re.Pattern  # where the atom starts: at the term's start, or after its coefficient's '*'
    read: Callable  # (alg, text, offset) -> the atom's value
    optional: bool  # a term may be a bare coefficient, and a blank coefficient reads as 1


_KEY = _Atom(re.compile(rf"(^|\*)\s*(?={_KEY_START.pattern})"), _key, False)
_POWER = _Atom(re.compile(r"(^|\*)\s*(?=t)"), _power, True)


def _term(alg: LoopAlgebra, text: str, offset: int, atom: _Atom):
    """(coefficient, atom value) of one ``[coeff '*'] atom`` term starting at ``offset``.

    The coefficient is read before the atom, so a malformed coefficient is a
    ParseError even where the atom names a key outside the algebra.
    """
    text = text.rstrip()
    coeff_at = offset
    paren = _PAREN.match(text)
    if paren:  # '(' coeff ')' ['*' atom]
        coeff_text, coeff_at, rest = paren.group(1), offset + 1, text[paren.end() :]
        if rest[:1] not in ("", "*"):
            raise ParseError(
                "parenthesized coefficient needs '*'", position=offset + paren.end(), expected="*"
            )
        atom_text = rest[1:].lstrip()
    else:
        joint = atom.joint.search(text)
        if joint is None and atom.optional:  # a bare coefficient
            coeff_text, atom_text = text, ""
        elif joint is None or not joint.group(1):  # an atom alone, or text its reader refuses
            coeff_text, atom_text = None, text
        else:  # coeff '*' atom
            coeff_text, atom_text = text[: joint.start()], text[joint.end() :]
    if coeff_text is None or (atom.optional and not coeff_text.strip()):
        coeff = ONE
    else:
        coeff = _scalar(alg, coeff_text, coeff_at)
    return coeff, atom.read(alg, atom_text, offset + len(text) - len(atom_text))


def _sum(alg: LoopAlgebra, text: str, atom: _Atom) -> dict:
    """The signed terms of ``text`` added up by atom value, in one dict."""
    terms: dict = {}
    if _require_text(text).strip() == "0":
        return terms
    for sign, chunk, offset in _split_terms(text):
        coeff, value = _term(alg, chunk, offset, atom)
        if sign < 0:
            coeff = -coeff
        terms[value] = terms.get(value, ZERO) + coeff
    return terms


def parse_element(alg: LoopAlgebra, text: str) -> Element:
    """Parse the element grammar; inverse of Element.__str__."""
    return alg.element(_sum(alg, text, _KEY))


def parse_key(alg: LoopAlgebra, text: str) -> BasisKey:
    """A single bare basis key like ``L(1,0)``; no coefficient, no sum."""
    return _key(alg, _require_text(text).strip(), 0)


def parse_laurent(alg: LoopAlgebra, text: str) -> LaurentPoly:
    """Parse the Laurent grammar; inverse of LaurentPoly.__str__."""
    return LaurentPoly(_sum(alg, text, _POWER))
