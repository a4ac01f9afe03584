"""Basis keys, sparse elements, the bracket, grading, and window sweeps.

The algebra has basis families L and M indexed by Gamma and Y indexed by the
shifted coset, each with an integer loop index.  The bracket of two basis
keys is always zero or a single scalar multiple of another basis key.  The
element path caches these structure constants per key pair; the window
sweeps (antisymmetry, Jacobi, and the cocycle identity in ``cohomology``)
share a table of them compiled to exact integers once per window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import GroupMismatchError, InvalidKeyError
from .groups import GroupData
from .scalars import Scalar, ZERO, _signed_sum

__all__ = [
    "BasisKey",
    "Element",
    "Window",
    "LoopAlgebra",
    "antisymmetry_witnesses",
    "jacobi_witnesses",
]

KINDS = ("L", "M", "Y")


class BasisKey:
    """One basis vector: a kind in {L, M, Y}, a group index, and a loop index."""

    __slots__ = ("kind", "gamma", "loop", "_hash")

    def __init__(self, kind: str, gamma: Scalar, loop: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "loop", loop)
        object.__setattr__(self, "_hash", hash((kind, gamma, loop)))

    def __setattr__(self, name, value):
        raise AttributeError("BasisKey is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BasisKey):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.loop == other.loop
            and self.gamma == other.gamma
        )

    def sort_key(self):
        return (self.kind, self.gamma, self.loop)

    def __str__(self):
        return f"{self.kind}({self.gamma},{self.loop})"

    def __repr__(self):
        return f"BasisKey({str(self)})"


class Element:
    """Finite scalar combination of basis keys, tied to one group configuration."""

    __slots__ = ("group", "_terms")

    def __init__(self, group: GroupData, terms=None):
        cleaned = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Scalar.of(coeff)
                if coeff:
                    cleaned[key] = coeff
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @property
    def terms(self) -> dict:
        return self._terms

    def items_sorted(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, key: BasisKey) -> Scalar:
        return self._terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def _check_group(self, other: "Element"):
        if self.group is not other.group:
            raise GroupMismatchError("elements belong to different group configurations")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_group(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff
        return Element(self.group, out)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_group(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            prev = out.get(key)
            out[key] = -coeff if prev is None else prev - coeff
        return Element(self.group, out)

    def __neg__(self):
        return Element(self.group, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            c0 = Scalar.of(other)
            return Element(self.group, {k: c * c0 for k, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.group is other.group and self._terms == other._terms

    def __str__(self):
        return _signed_sum((str(key), coeff) for key, coeff in self.items_sorted())

    def __repr__(self):
        return f"Element({str(self)!r})"


@dataclass(frozen=True)
class Window:
    """Finite verification window.

    ``gamma_height`` bounds the coordinates of group indices over the T-basis;
    the actual coordinate bound is twice the height because T refines Gamma by
    a factor of two along the shift direction.  ``loop_bound`` bounds |i|.
    """

    gamma_height: int
    loop_bound: int

    def __post_init__(self):
        if self.gamma_height < 1 or self.loop_bound < 0:
            raise ValueError("window bounds must be positive")

    def loops(self) -> range:
        return range(-self.loop_bound, self.loop_bound + 1)

    def coordinate_bound(self) -> int:
        return 2 * self.gamma_height


class LoopAlgebra:
    """The algebra over one group configuration, with cached structure constants."""

    def __init__(self, group: GroupData):
        self.group = group
        self._key_cache: dict[tuple, BasisKey] = {}
        self._sc_cache: dict[tuple, tuple | None] = {}
        self._window_cache: dict[Window, list] = {}
        self._table_cache: dict[Window, _SweepTable] = {}

    # -- element constructors ---------------------------------------------------

    def key(self, kind: str, gamma, loop: int) -> BasisKey:
        gamma = self._scalar(gamma)
        tag = (kind, gamma, loop)
        cached = self._key_cache.get(tag)
        if cached is not None:
            return cached
        if kind in ("L", "M"):
            if not self.group.in_gamma(gamma):
                raise InvalidKeyError(f"{gamma} is not in Gamma (required for kind {kind})")
        elif kind == "Y":
            if not self.group.in_gamma1(gamma):
                raise InvalidKeyError(f"{gamma} is not in s+Gamma (required for kind Y)")
        else:
            raise InvalidKeyError(f"unknown kind {kind!r}")
        made = BasisKey(kind, gamma, int(loop))
        self._key_cache[tag] = made
        return made

    def _scalar(self, value) -> Scalar:
        if isinstance(value, str):
            return self.group.parse_scalar(value)
        return Scalar.of(value)

    def monomial(self, key: BasisKey, coeff=1) -> Element:
        return Element(self.group, {key: Scalar.of(coeff)})

    def L(self, gamma, loop: int) -> Element:
        return self.monomial(self.key("L", gamma, loop))

    def M(self, gamma, loop: int) -> Element:
        return self.monomial(self.key("M", gamma, loop))

    def Y(self, gamma, loop: int) -> Element:
        return self.monomial(self.key("Y", gamma, loop))

    def zero(self) -> Element:
        return Element(self.group)

    def element(self, terms: dict) -> Element:
        return Element(self.group, terms)

    # -- the bracket --------------------------------------------------------------

    def structure(self, k1: BasisKey, k2: BasisKey):
        """Bracket of two basis keys as (key, coefficient), or None when zero."""
        tag = (k1, k2)
        try:
            return self._sc_cache[tag]
        except KeyError:
            pass
        out = self._structure(k1, k2)
        self._sc_cache[tag] = out
        return out

    def _structure(self, k1: BasisKey, k2: BasisKey):
        pair = k1.kind + k2.kind
        if pair in ("MM", "MY", "YM"):
            return None
        loop = k1.loop + k2.loop
        if pair == "LL":
            coeff = k2.gamma - k1.gamma
            kind = "L"
        elif pair == "LM":
            coeff = k2.gamma
            kind = "M"
        elif pair == "ML":
            coeff = -k1.gamma
            kind = "M"
        elif pair == "LY":
            coeff = k2.gamma - k1.gamma / 2
            kind = "Y"
        elif pair == "YL":
            coeff = -(k1.gamma - k2.gamma / 2)
            kind = "Y"
        else:  # YY
            coeff = k2.gamma - k1.gamma
            kind = "M"
        if not coeff:
            return None
        return (self.key(kind, k1.gamma + k2.gamma, loop), coeff)

    def bracket(self, x: Element, y: Element) -> Element:
        if x.group is not self.group or y.group is not self.group:
            raise GroupMismatchError("bracket operands use a different group configuration")
        acc: dict = {}
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                t = self.structure(k1, k2)
                if t is None:
                    continue
                key, coeff = t
                add = c1 * c2 * coeff
                prev = acc.get(key)
                acc[key] = add if prev is None else prev + add
        return Element(self.group, acc)

    # -- structure maps -------------------------------------------------------------

    def grade(self, x: Element) -> dict:
        buckets: dict = {}
        for key, coeff in x.terms.items():
            buckets.setdefault(key.gamma, {})[key] = coeff
        return {
            gamma: Element(self.group, terms)
            for gamma, terms in sorted(buckets.items(), key=lambda kv: kv[0])
        }

    def is_central(self, x: Element) -> bool:
        return all(k.kind == "M" and not k.gamma for k in x.terms)

    def in_maximal_ideal(self, x: Element) -> bool:
        return all(k.kind in ("M", "Y") for k in x.terms)

    # -- windows -------------------------------------------------------------------

    def window_keys(self, window: Window) -> list:
        cached = self._window_cache.get(window)
        if cached is not None:
            return cached
        gammas, cosets = self.group.window_gammas(window)
        keys = []
        for kind in ("L", "M"):
            for gamma in gammas:
                for i in window.loops():
                    keys.append(self.key(kind, gamma, i))
        for gamma in cosets:
            for i in window.loops():
                keys.append(self.key("Y", gamma, i))
        keys.sort(key=BasisKey.sort_key)
        self._window_cache[window] = keys
        return keys

    def _sweep_table(self, window: Window) -> "_SweepTable":
        table = self._table_cache.get(window)
        if table is None:
            table = self._table_cache[window] = _SweepTable(self, window)
        return table


class _SweepTable:
    """A window's structure constants as exact scaled integers, for the sweeps.

    Ids ``0..n-1`` are the window keys in ``window_keys`` order.  Each key
    that a bracket of two window keys reaches gets the next id; these
    ``width`` ids index the columns.  Keys reached by bracketing a window key
    with a column key get ids past ``width`` and only appear as outputs.

    ``rows[i][j]`` is None when ``[keys[i], keys[j]]`` is zero, and otherwise
    ``(out, a, b)`` with ``[keys[i], keys[j]] = (a + b*sqrt(d)) / denom *
    keys[out]`` for one ``denom`` common to the whole table.  Every entry
    comes from one ``_structure`` call on the actual pair, loop indices
    included, so no entry is inferred from another.
    """

    __slots__ = ("keys", "n", "width", "rows", "d", "reached")

    def __init__(self, alg: LoopAlgebra, window: Window):
        window_keys = alg.window_keys(window)
        keys = list(window_keys)
        ids = {key: i for i, key in enumerate(keys)}
        structure = alg._structure

        def brackets(k1, others) -> list:
            row = []
            for k2 in others:
                t = structure(k1, k2)
                if t is not None and t[0] not in ids:
                    ids[t[0]] = len(keys)
                    keys.append(t[0])
                row.append(t)
            return row

        raw = [brackets(k1, window_keys) for k1 in window_keys]
        self.reached = sorted({ids[t[0]] for row in raw for t in row if t is not None})
        self.width = len(keys)
        columns = keys[len(window_keys):]
        for k1, row in zip(window_keys, raw):
            row += brackets(k1, columns)

        self.keys = keys
        self.n = len(window_keys)
        self.d = alg.group.field_d
        coeffs = _scaled_rows([[None if t is None else t[1] for t in row] for row in raw], self.d)
        self.rows = [
            [None if t is None else (ids[t[0]], *c) for t, c in zip(row, crow)]
            for row, crow in zip(raw, coeffs)
        ]

    def pair_values(self, value) -> list:
        """``value(keys[i], keys[r])`` for window ids i and reached ids r.

        Entry ``[i][r]`` is None where the value is zero, else the value as an
        integer pair scaled by one common denominator, like the table entries.
        ``value`` must return scalars in the algebra's field.
        """
        keys = self.keys
        raw = [[None] * self.width for _ in range(self.n)]
        for i in range(self.n):
            k1, row = keys[i], raw[i]
            for r in self.reached:
                v = value(k1, keys[r])
                if v:
                    row[r] = v
        return _scaled_rows(raw, self.d)


def _scaled_rows(rows: list, d: int) -> list:
    """Rows of scalars in Q(sqrt d) (or None) as integer pairs ``(a, b)``.

    Every pair is its scalar times one denominator common to all the rows.
    """
    denom = 1
    for row in rows:
        for c in row:
            if c is not None:
                if c.d not in (0, d):
                    raise ValueError(f"{c} lies outside the algebra's field")
                denom = math.lcm(denom, c.a.denominator, c.b.denominator)

    def scaled(c: Scalar) -> tuple:
        return c.a.numerator * (denom // c.a.denominator), c.b.numerator * (denom // c.b.denominator)

    return [[None if c is None else scaled(c) for c in row] for row in rows]


def antisymmetry_witnesses(alg: LoopAlgebra, window: Window, limit: int = 10) -> list:
    """Ordered key pairs where [x,y] + [y,x] != 0 (expected: none)."""
    table = alg._sweep_table(window)
    keys, rows, n = table.keys, table.rows, table.n
    bad = []
    for i in range(n):
        row_i = rows[i]
        for j in range(i, n):
            fwd = row_i[j]
            rev = rows[j][i]
            if fwd is None and rev is None:
                continue
            if fwd is None or rev is None or fwd[0] != rev[0] or fwd[1] + rev[1] or fwd[2] + rev[2]:
                bad.append((keys[i], keys[j]))
                if len(bad) >= limit:
                    return bad
    return bad


def jacobi_witnesses(alg: LoopAlgebra, window: Window, limit: int = 10) -> tuple:
    """Unordered basis triples with a nonzero Jacobi defect, plus the triple count.

    By antisymmetry (checked separately) sweeping i <= j <= k covers every
    ordered triple.
    """
    table = alg._sweep_table(window)
    keys, rows, n, d = table.keys, table.rows, table.n, table.d
    bad = []
    count = 0
    for i in range(n):
        row_i = rows[i]
        for j in range(i, n):
            row_j = rows[j]
            t_ij = row_i[j]
            for k in range(j, n):
                row_k = rows[k]
                count += 1
                acc: dict = {}
                for row, inner in ((row_i, row_j[k]), (row_j, row_k[i]), (row_k, t_ij)):
                    if inner is None:
                        continue
                    mid, a1, b1 = inner
                    t = row[mid]
                    if t is None:
                        continue
                    out, a2, b2 = t
                    a, b = acc.get(out, (0, 0))
                    acc[out] = (a + a1 * a2 + b1 * b2 * d, b + a1 * b2 + a2 * b1)
                for a, b in acc.values():
                    if a or b:
                        bad.append((keys[i], keys[j], keys[k]))
                        if len(bad) >= limit:
                            return bad, count
                        break
    return bad, count
