"""Basis keys, sparse elements, the bracket, grading, and window sweeps.

The algebra has basis families L and M indexed by Gamma and Y indexed by the
shifted coset, each with an integer loop index.  The bracket of two basis
keys is always zero or a single scalar multiple of another basis key.  The
element path caches each bracket's loop-free part; the window sweeps
(antisymmetry, Jacobi, the cocycle identity in ``cohomology``, and the
derivation and automorphism checks) share a table of the structure constants
compiled to exact integers once per window.  Only this module reads the
table's integer entries.
"""

from __future__ import annotations

import math

from .errors import GroupMismatchError, InvalidKeyError, OutputError
from .groups import GroupData
from .scalars import Scalar, ZERO, _SparseVector, _add_scaled, _signed_sum

__all__ = [
    "BasisKey",
    "Element",
    "Window",
    "LoopAlgebra",
    "antisymmetry_witnesses",
    "jacobi_witnesses",
]

def _nat(n: int) -> int:
    """The integers one-to-one onto the naturals: 0, -1, 1, -2, ... to 0, 1, 2, 3, ...

    CPython hashes -1 and -2 alike, so hashed tags hold these images in
    place of signed integers.
    """
    return n + n if n >= 0 else -n - n - 1


def _tag(kind: str, coords: tuple, loop: int) -> tuple:
    """The algebra's dict tag of the key (kind, T-coordinates, loop)."""
    return kind, tuple(map(_nat, coords)), _nat(loop)


class BasisKey:
    """One basis vector: a kind in {L, M, Y}, a group index, and a loop index.

    ``coords`` are the integer coordinates of the group index over the
    group's T-basis; ``LoopAlgebra.key`` computes them once per key.
    ``_line`` names the kind and coordinates, whatever the loop index.
    """

    __slots__ = ("kind", "gamma", "loop", "coords", "_line", "_hash")

    def __init__(self, kind: str, gamma: Scalar, loop: int, coords: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "loop", loop)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_line", f"{kind}{coords}")
        p, r, q, d = gamma.parts()
        object.__setattr__(self, "_hash", hash((kind, _nat(p), _nat(r), q, d, _nat(loop))))

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
        try:
            return f"{self.kind}({self.gamma},{self.loop})"
        except ValueError:  # beyond Python's limit on digits in an int string
            raise OutputError("a loop index of the result has too many digits to print") from None

    def __repr__(self):
        return f"BasisKey({str(self)})"


class _Line(dict):
    """The keys of one ``_line`` by loop index, made on first use and kept in ``registry``,
    the algebra's ``_keys``: bracket indices add within Gamma and s+Gamma, so need no check."""

    __slots__ = ("kind", "gamma", "coords", "registry")

    def __missing__(self, loop: int) -> BasisKey:
        tag = _tag(self.kind, self.coords, loop)
        key = self.registry.get(tag)
        if key is None:
            key = self.registry[tag] = BasisKey(self.kind, self.gamma, loop, self.coords)
        self[loop] = key
        return key


class _Part(dict):
    """The brackets of two lines by summed loop index, each one ``(line[loop], coeff)`` tuple."""

    __slots__ = ("coeff", "line")

    def __missing__(self, loop: int) -> tuple:
        t = self[loop] = self.line[loop], self.coeff
        return t


class Element(_SparseVector):
    """Finite scalar combination of basis keys, tied to one group configuration."""

    __slots__ = ()

    def __init__(self, group: GroupData, terms=None):
        super().__init__(group, terms.items() if terms else ())

    @property
    def group(self) -> GroupData:
        return self._space

    @property
    def terms(self) -> dict:
        return self._terms

    def items_sorted(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self):
        return _signed_sum((str(key), coeff) for key, coeff in self.items_sorted())

    def __repr__(self):
        return f"Element({str(self)!r})"


class Window:
    """Finite verification window.

    ``gamma_height`` bounds the coordinates of group indices over the T-basis;
    the actual coordinate bound is twice the height because T refines Gamma by
    a factor of two along the shift direction.  ``loop_bound`` bounds |i|.
    """

    __slots__ = ("gamma_height", "loop_bound")
    __match_args__ = __slots__

    def __init__(self, gamma_height: int, loop_bound: int):
        if gamma_height < 1 or loop_bound < 0:
            raise ValueError("gamma_height must be >= 1 and loop_bound >= 0")
        object.__setattr__(self, "gamma_height", gamma_height)
        object.__setattr__(self, "loop_bound", loop_bound)

    def __setattr__(self, name, value):
        raise AttributeError("Window is immutable")

    def __delattr__(self, name):
        raise AttributeError("Window is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gamma_height, self.loop_bound) == (other.gamma_height, other.loop_bound)

    def __hash__(self):
        return hash((self.gamma_height, self.loop_bound))

    def __repr__(self):
        return f"Window(gamma_height={self.gamma_height!r}, loop_bound={self.loop_bound!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, as the slots cannot be set
        return Window, (self.gamma_height, self.loop_bound)

    def loops(self) -> range:
        return range(-self.loop_bound, self.loop_bound + 1)

    def coordinate_bound(self) -> int:
        return 2 * self.gamma_height


class LoopAlgebra:
    """The algebra over one group configuration, with cached structure constants."""

    def __init__(self, group: GroupData):
        self.group = group
        # _tag(kind, T-coordinates, loop) -> the one key object
        self._keys: dict[tuple, BasisKey] = {}
        # k1._line -> k2._line -> the bracket's _Part, or None when it vanishes
        self._parts: dict[str, dict] = {}
        self._lines: dict[str, _Line] = {}
        self._window_cache: dict[Window, list] = {}
        self._table_cache: dict[Window, _SweepTable] = {}

    # -- element constructors ---------------------------------------------------

    def key(self, kind: str, gamma, loop: int) -> BasisKey:
        if not isinstance(loop, int) or isinstance(loop, bool):
            raise InvalidKeyError(f"the loop index {loop!r} is not an integer")
        gamma = Scalar.of(gamma)
        coords = self.group.t_coords(gamma)
        if coords is not None:  # None: gamma lies outside T, which the checks below refuse
            cached = self._keys.get(_tag(kind, coords, loop))
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
        made = BasisKey(kind, gamma, int(loop), coords)
        self._keys[_tag(kind, coords, loop)] = made
        return made

    def monomial(self, key: BasisKey, coeff=1) -> Element:
        return Element(self.group, {key: Scalar.of(coeff)})

    def zero(self) -> Element:
        return Element(self.group)

    def element(self, terms: dict) -> Element:
        return Element(self.group, terms)

    # -- the bracket --------------------------------------------------------------

    def structure(self, k1: BasisKey, k2: BasisKey):
        """Bracket of two basis keys as (key, coefficient), or None when zero."""
        return self._structure(k1, k2)

    def _structure(self, k1: BasisKey, k2: BasisKey):
        """``structure``: the keys' lines name a ``_Part``, and their summed loop index its bracket."""
        try:
            part = self._parts[k1._line][k2._line]
        except KeyError:
            part = self._parts.setdefault(k1._line, {})[k2._line] = self._loop_free_part(k1, k2)
        return None if part is None else part[k1.loop + k2.loop]

    def _loop_free_part(self, k1: BasisKey, k2: BasisKey):
        """The bracket formula on the two keys' lines, as a ``_Part`` onto the
        output line, or None when the bracket vanishes.  Loop indices only add."""
        pair = k1.kind + k2.kind
        if pair in ("MM", "MY", "YM"):
            return None
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
        coords = tuple(c1 + c2 for c1, c2 in zip(k1.coords, k2.coords))
        part, line = _Part(), self._lines.get(f"{kind}{coords}")
        if line is None:
            line = self._lines[f"{kind}{coords}"] = _Line()
            line.kind, line.gamma, line.coords, line.registry = kind, k1.gamma + k2.gamma, coords, self._keys
        part.coeff, part.line = coeff, line
        return part

    def bracket(self, x: Element, y: Element) -> Element:
        if x.group is not self.group or y.group is not self.group:
            raise GroupMismatchError("bracket operands use a different group configuration")
        acc: dict = {}
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                t = self.structure(k1, k2)
                if t is not None:
                    _add_scaled(acc, c1 * c2, (t,))
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


class PairWitnesses(list):
    """The window key pairs where a pair sweep failed, in sweep order.

    ``pairs`` is the number of pairs the sweep compared: all of them, or those
    up to and including the last witness when it stopped at its limit.
    """

    __slots__ = ("pairs",)


# the output id ``pair_values`` gives a form's values: one central key that no table id names
_CENTRAL = -1


class _SweepTable:
    """A window's structure constants as exact scaled integers, for the sweeps.

    Ids ``0..n-1`` are the window keys in ``window_keys`` order.  Each key
    that a bracket of two window keys reaches gets the next id; these
    ``width`` ids index the columns.  Keys reached by bracketing a window key
    with a column key get ids past ``width`` and only appear as outputs, as
    do the keys that the pair sweeps meet later.

    ``rows[i][j]`` is None when ``[keys[i], keys[j]]`` is zero, and otherwise
    ``(out, a, b)`` with ``[keys[i], keys[j]] = (a + b*sqrt(d)) / denom *
    keys[out]`` for one ``denom`` common to the whole table.  Every entry
    comes from one ``_structure`` call on the actual pair, loop indices
    included, so no entry is inferred from another.  ``ids`` maps each key
    to its id.
    """

    __slots__ = ("keys", "ids", "n", "width", "rows", "d", "denom")

    def __init__(self, alg: LoopAlgebra, window: Window):
        window_keys = alg.window_keys(window)
        self.keys = keys = list(window_keys)
        self.ids = {key: i for i, key in enumerate(keys)}
        self.n = n = len(window_keys)
        self.d = alg.group.field_d
        structure = alg._structure
        rows = [[structure(k1, k2) for k2 in window_keys] for k1 in window_keys]
        self._number(t[0] for row in rows for t in row if t is not None)
        self.width = len(keys)
        columns = keys[n:]
        for k1, row in zip(window_keys, rows):
            row += [structure(k1, k2) for k2 in columns]
        # id(bracket) -> bracket, in row order: each is scaled and numbered once into one
        # shared entry, and ``met`` keeps it alive, so no id names two brackets
        met = {}
        for row in rows:
            met.update(zip(map(id, row), row))
        met.pop(id(None), None)
        self.denom, (scaled,) = _scaled_rows([[t[1] for t in met.values()]], self.d)
        out = self._number(t[0] for t in met.values())
        entries = {i: (out[id(t[0])], *ab) for (i, t), ab in zip(met.items(), scaled)}
        entries[id(None)] = None
        self.rows = [list(map(entries.__getitem__, map(id, row))) for row in rows]

    def _number(self, outs) -> dict:
        """``{id(key): id}`` over the keys ``outs``; a key the table has not met gets the next id."""
        outs = list(outs)
        return {i: self._id(key) for i, key in dict(zip(map(id, outs), outs)).items()}

    def _id(self, key: BasisKey) -> int:
        """The id of ``key``; a key the table has not met gets the next one."""
        i = self.ids.setdefault(key, len(self.keys))
        if i == len(self.keys):
            self.keys.append(key)
        return i

    def coefficient(self, entry: tuple) -> Scalar:
        """The scalar that a nonzero entry ``(out, a, b)`` multiplies ``keys[out]`` by."""
        return Scalar.from_parts(entry[1], entry[2], self.denom, self.d)

    def pair_values(self, value) -> list:
        """``value(keys[i], keys[c])`` for window ids i and column ids c, as table rows.

        Entry ``[i][c]`` is None where the value is zero, else ``(_CENTRAL, a, b)``
        with the value as an integer pair scaled by one common denominator, like
        the table entries: the form's values as brackets onto one central id.
        ``value`` must return scalars in the algebra's field.
        """
        columns = self.keys[: self.width]
        raw = [[value(k1, k2) or None for k2 in columns] for k1 in columns[: self.n]]
        return [
            [None if c is None else (_CENTRAL, *c) for c in row]
            for row in _scaled_rows(raw, self.d)[1]
        ]

    def cyclic_witnesses(self, outer: list, first: int, limit: int) -> tuple:
        """(window triples with a nonzero cyclic sum, triple count).

        The cyclic sum of a triple (i, j, k) is ``outer[i][[j,k]] +
        outer[j][[k,i]] + outer[k][[i,j]]``, added per output id in integer
        pairs, where ``[j,k]`` is the table entry and ``outer`` has the table's
        entry shape.  j runs over ``range(i + first, n)`` and k over
        ``range(j + first, n)``.

        The triples of one (i, j) are summed together, as three walks over
        k: ``rows[j]`` against ``outer[i]``, column i of the window block
        against ``outer[j]``, and, when ``[i,j]`` is nonzero, its column of
        ``outer``.  A walk over an ``outer`` row or column with no nonzero
        entry adds nothing and is skipped.  Every term is read off the rows;
        an absent term is zero.  The witnesses of a block come in increasing
        k, and a sweep that stops at its limit counts the triples up to and
        including its last witness.
        """
        _check_limit(limit)
        keys, rows, n, d = self.keys, self.rows, self.n, self.d
        # outer_columns[c][k] is outer[k][c] and columns[i][k] is rows[k][i];
        # the Jacobi sweep's outer rows are the table's own, so one transpose
        # serves both
        outer_columns = list(zip(*outer))
        columns = outer_columns if outer is rows else list(zip(*(row[:n] for row in rows)))
        live = [any(row) for row in outer]
        live_columns = [any(column) for column in outer_columns]
        bad = []
        count = 0
        for i in range(n):
            row_i, outer_i, column_i, live_i = rows[i], outer[i], columns[i], live[i]
            for j in range(i + first, n):
                lo = j + first
                count += n - lo
                acc = {}  # (k, output id) -> integer pair
                if live_i:  # [i,[j,k]]: the first walk meets each (k, out) once
                    row_j = rows[j]
                    for k in range(lo, n):
                        inner = row_j[k]
                        if inner is not None:
                            t = outer_i[inner[0]]
                            if t is not None:
                                _, a1, b1 = inner
                                out, a2, b2 = t
                                acc[k, out] = (a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1)
                if live[j]:  # [j,[k,i]]
                    outer_j = outer[j]
                    for k in range(lo, n):
                        inner = column_i[k]
                        if inner is not None:
                            t = outer_j[inner[0]]
                            if t is not None:
                                _, a1, b1 = inner
                                out, a2, b2 = t
                                key = k, out
                                a, b = acc.get(key, (0, 0))
                                acc[key] = (a + a1 * a2 + b1 * b2 * d, b + a1 * b2 + a2 * b1)
                t_ij = row_i[j]
                if t_ij is not None and live_columns[t_ij[0]]:  # [k,[i,j]]
                    _, a1, b1 = t_ij
                    column = outer_columns[t_ij[0]]
                    for k in range(lo, n):
                        t = column[k]
                        if t is not None:
                            out, a2, b2 = t
                            key = k, out
                            a, b = acc.get(key, (0, 0))
                            acc[key] = (a + a1 * a2 + b1 * b2 * d, b + a1 * b2 + a2 * b1)
                if not any(map(any, acc.values())):  # most blocks have no witness
                    continue
                for k in sorted({k for (k, _), (a, b) in acc.items() if a or b}):
                    bad.append((keys[i], keys[j], keys[k]))
                    if len(bad) >= limit:
                        return bad, count - (n - 1 - k)
        return bad, count

    def pair_witnesses(self, structure, image_of, leibniz: bool, limit: int) -> PairWitnesses:
        """Window key pairs, ids i <= j, where op = ``image_of`` does not take
        [keys[i], keys[j]] to [op keys[i], keys[j]] + [keys[i], op keys[j]]
        (``leibniz``) or to [op keys[i], op keys[j]].

        Every window row is computed before the sweep starts, so an operator
        undefined somewhere on the window raises whatever the limit.  The rows
        of the keys that window pairs reach follow in the order the sweep
        meets them; one that raises is raised at the first pair that needs it.
        The operator rows, the table and the brackets it does not hold (from
        ``structure`` on the ordered pair, once per id pair) are scaled to one
        common denominator, and the keys they name that the table has not met
        get ids on the table.  ``structure`` is passed in because a table that
        kept the algebra's would keep every dropped algebra alive until the
        cycle collector ran.
        """
        _check_limit(limit)
        keys, rows, n, width, id_of = self.keys, self.rows, self.n, self.width, self._id
        images = {i: image_of(keys[i]) for i in range(n)}
        failure = None
        for mid in dict.fromkeys(t[0] for i in range(n) for t in rows[i][i:n] if t is not None):
            if mid not in images:
                try:
                    images[mid] = image_of(keys[mid])
                except Exception as exc:  # whatever it is, raised again at the first pair that needs the row
                    failure = exc
                    break

        # the operator rows as (id, a, b) terms over one denominator o; over Q an
        # operator may still carry the square root of its own coefficients
        d = self.d or max((c.d for image in images.values() for c in image.terms.values()), default=0)
        o, scaled = _scaled_rows([list(image.terms.values()) for image in images.values()], d)
        image_rows = {
            i: [(id_of(key), a, b) for key, (a, b) in zip(image.terms, coeffs)]
            for (i, image), coeffs in zip(images.items(), scaled)
        }
        # the right-hand side of (i, j) is the sum over its factor pairs (P, Q) of
        # [p, q] for p in P and q in Q; ``unit[i]`` is keys[i] itself
        unit = [((i, o, 0),) for i in range(n)]

        def factors(i: int, j: int) -> tuple:
            if leibniz:
                return (image_rows[i], unit[j]), (unit[i], image_rows[j])
            return ((image_rows[i], image_rows[j]),)

        # the brackets outside the table, once per id pair, over one denominator
        # that the table's divides
        missing = {}
        for i in range(n):
            for j in range(i, n):
                for left, right in factors(i, j):
                    for x, _, _ in left:
                        for y, _, _ in right:
                            if x >= n or y >= width:
                                missing[x, y] = None
        outside = [structure(keys[x], keys[y]) for x, y in missing]
        denom, scaled = _scaled_rows([[None if t is None else t[1] for t in outside]], d, self.denom)
        extra = {
            xy: None if t is None else (id_of(t[0]), *c) for xy, t, c in zip(missing, outside, scaled[0])
        }
        f = denom // self.denom
        if f != 1:
            rows = [[None if t is None else (t[0], t[1] * f, t[2] * f) for t in row] for row in rows]

        # every term below is an integer pair over o * o * denom
        bad = PairWitnesses()
        count = 0
        for i in range(n):
            row_i = rows[i]
            for j in range(i, n):
                count += 1
                acc: dict = {}
                t = row_i[j]
                if t is not None:
                    mid, a1, b1 = t
                    image = image_rows.get(mid)
                    if image is None:
                        raise failure
                    a1, b1 = a1 * o, b1 * o
                    for out, a2, b2 in image:
                        a, b = acc.get(out, (0, 0))
                        acc[out] = (a - a1 * a2 - b1 * b2 * d, b - a1 * b2 - a2 * b1)
                for left, right in factors(i, j):
                    for x, a1, b1 in left:
                        row_x = rows[x] if x < n else None
                        for y, a2, b2 in right:
                            t = row_x[y] if row_x is not None and y < width else extra[x, y]
                            if t is None:
                                continue
                            out, a3, b3 = t
                            ca, cb = a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1
                            a, b = acc.get(out, (0, 0))
                            acc[out] = (a + ca * a3 + cb * b3 * d, b + ca * b3 + cb * a3)
                for a, b in acc.values():
                    if a or b:
                        bad.append((keys[i], keys[j]))
                        if len(bad) >= limit:
                            bad.pairs = count
                            return bad
                        break
        bad.pairs = count
        return bad


def _check_limit(limit: int) -> None:
    """Refuse a sweep limit below 1: a sweep stops at its ``limit``-th witness."""
    if limit < 1:
        raise ValueError(f"a sweep limit must be at least 1, not {limit}")


def _scaled_rows(rows: list, d: int, denom: int = 1) -> tuple:
    """Rows of scalars in Q(sqrt d) (or None) as integer pairs ``(a, b)``.

    Returns ``(denom, rows)``: every pair is its scalar times ``denom``, the
    least common multiple of the given ``denom`` and the scalars'
    denominators.  Each scalar object is scaled once, however many entries
    share it.
    """
    distinct = {id(c): c for row in rows for c in row if c is not None}
    parts = {}
    for i, c in distinct.items():
        p, r, q, cd = c.parts()
        if cd not in (0, d):
            raise ValueError(f"{c} lies outside the algebra's field")
        denom = math.lcm(denom, q)
        parts[i] = p, r, q
    scaled = {i: (p * (denom // q), r * (denom // q)) for i, (p, r, q) in parts.items()}
    return denom, [[None if c is None else scaled[id(c)] for c in row] for row in rows]


def antisymmetry_witnesses(alg: LoopAlgebra, window: Window, limit: int = 10) -> list:
    """Ordered key pairs where [x,y] + [y,x] != 0 (expected: none)."""
    _check_limit(limit)
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
    return table.cyclic_witnesses(table.rows, 0, limit)
