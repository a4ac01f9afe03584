"""Second cohomology on a window, and the central extensions it classifies.

A 2-cocycle here is an alternating bilinear scalar form satisfying the
cyclic identity.  The reduction pipeline normalizes a cocycle by an explicit
coboundary read off its values against L(0,0) and the L(2s,0) line, extracts
one class coefficient per loop degree from a pivot column, and then verifies
that nothing is left, pair by pair.  All of it is exact; a window only
bounds where we look, never how precisely.

Degenerate-looking constants below keep general s honest: the normalized
representative on the L–L diagonal is (a^3 - 4 s^2 a)/12, which collapses to
the familiar (a^3 - a)/12 exactly when s = 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import BasisKey, Element, LoopAlgebra, Window
from .errors import NotACocycleError, ShapeError
from .scalars import Scalar, ZERO, ONE, _signed_sum

__all__ = [
    "LinearFunctional",
    "Cocycle",
    "ClassCocycle",
    "CoboundaryCocycle",
    "TableCocycle",
    "CombinationCocycle",
    "make_phi_k",
    "make_coboundary",
    "cocycle_defect",
    "cocycle_witnesses",
    "normalizing_functional",
    "ReducedCocycle",
    "reduce_cocycle",
    "ExtendedElement",
    "CentralExtension",
    "central_extend",
]

TWELFTH = Scalar(Fraction(1, 12))


class LinearFunctional:
    """Finitely supported scalar functional on basis keys."""

    __slots__ = ("_values",)

    def __init__(self, values: dict | None = None):
        vals = {}
        for key, coeff in (values or {}).items():
            coeff = Scalar.of(coeff)
            if coeff:
                vals[key] = coeff
        self._values = vals

    def value(self, key: BasisKey) -> Scalar:
        return self._values.get(key, ZERO)

    def items(self):
        return sorted(self._values.items(), key=lambda kv: kv[0].sort_key())

    def __bool__(self):
        return bool(self._values)

    def __eq__(self, other):
        if not isinstance(other, LinearFunctional):
            return NotImplemented
        return self._values == other._values

    def describe(self) -> dict:
        return {str(key): str(coeff) for key, coeff in self.items()}


def phi_k_value(k: int, k1: BasisKey, k2: BasisKey) -> Scalar:
    """The degree-k class representative on a key pair."""
    if k1.kind != "L" or k2.kind != "L":
        return ZERO
    if k1.loop + k2.loop != k or k1.gamma + k2.gamma != ZERO:
        return ZERO
    a = k1.gamma
    return (a * a * a - a) * TWELFTH


class Cocycle:
    """Bilinear alternating form given by its values on key pairs."""

    def __init__(self, alg: LoopAlgebra):
        self.alg = alg

    def value(self, k1: BasisKey, k2: BasisKey) -> Scalar:
        raise NotImplementedError

    def of_elements(self, x: Element, y: Element) -> Scalar:
        out = ZERO
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                v = self.value(k1, k2)
                if v:
                    out = out + c1 * c2 * v
        return out


class ClassCocycle(Cocycle):
    def __init__(self, alg: LoopAlgebra, k: int):
        super().__init__(alg)
        self.k = int(k)

    def value(self, k1: BasisKey, k2: BasisKey) -> Scalar:
        return phi_k_value(self.k, k1, k2)


class CoboundaryCocycle(Cocycle):
    def __init__(self, alg: LoopAlgebra, f: LinearFunctional):
        super().__init__(alg)
        self.f = f

    def value(self, k1: BasisKey, k2: BasisKey) -> Scalar:
        t = self.alg.structure(k1, k2)
        if t is None:
            return ZERO
        fv = self.f.value(t[0])
        return t[1] * fv if fv else ZERO


class TableCocycle(Cocycle):
    """Explicit finite table of pair values; zero everywhere else.

    Pairs are stored under the canonical key order, so lookups through
    ``value`` are antisymmetric no matter how the input was oriented.
    Conflicting duplicate entries are rejected outright.
    """

    def __init__(self, alg: LoopAlgebra, entries: dict):
        super().__init__(alg)
        table: dict = {}
        for (k1, k2), raw in entries.items():
            coeff = Scalar.of(raw)
            if k1 == k2:
                if coeff:
                    raise NotACocycleError(
                        f"alternating form cannot be nonzero on ({k1}, {k2})",
                        witness=(k1, k2),
                    )
                continue
            if k2.sort_key() < k1.sort_key():
                k1, k2, coeff = k2, k1, -coeff
            prev = table.get((k1, k2))
            if prev is not None and prev != coeff:
                raise NotACocycleError(
                    f"conflicting table values at ({k1}, {k2})",
                    witness=(k1, k2),
                )
            table[(k1, k2)] = coeff
        self._table = {pair: c for pair, c in table.items() if c}

    def value(self, k1: BasisKey, k2: BasisKey) -> Scalar:
        if k2.sort_key() < k1.sort_key():
            v = self._table.get((k2, k1))
            return -v if v is not None else ZERO
        return self._table.get((k1, k2), ZERO)

    def items(self):
        return sorted(self._table.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))


class CombinationCocycle(Cocycle):
    def __init__(self, alg: LoopAlgebra, terms):
        super().__init__(alg)
        self.terms = tuple((Scalar.of(c), phi) for c, phi in terms)

    def value(self, k1: BasisKey, k2: BasisKey) -> Scalar:
        out = ZERO
        for coeff, phi in self.terms:
            v = phi.value(k1, k2)
            if v:
                out = out + coeff * v
        return out


def make_phi_k(alg: LoopAlgebra, k: int) -> ClassCocycle:
    return ClassCocycle(alg, k)


def make_coboundary(alg: LoopAlgebra, f: LinearFunctional) -> CoboundaryCocycle:
    return CoboundaryCocycle(alg, f)


def cocycle_defect(phi: Cocycle, x: Element, y: Element, z: Element) -> Scalar:
    alg = phi.alg
    return (
        phi.of_elements(x, alg.bracket(y, z))
        + phi.of_elements(y, alg.bracket(z, x))
        + phi.of_elements(z, alg.bracket(x, y))
    )


def cocycle_witnesses(alg: LoopAlgebra, phi: Cocycle, window: Window, limit: int = 10) -> tuple:
    """(violating key triples, triple count) for the cyclic identity sweep.

    ``phi`` must take its values in the algebra's field.
    """
    table = alg._sweep_table(window)
    keys, rows, n, d = table.keys, table.rows, table.n, table.d
    values = table.pair_values(phi.value)
    bad = []
    count = 0
    for i in range(n):
        row_i, phi_i = rows[i], values[i]
        for j in range(i + 1, n):
            row_j, phi_j = rows[j], values[j]
            t_ij = row_i[j]
            for m in range(j + 1, n):
                row_m = rows[m]
                count += 1
                a = b = 0
                for phi_row, t in ((phi_i, row_j[m]), (phi_j, row_m[i]), (values[m], t_ij)):
                    if t is None:
                        continue
                    v = phi_row[t[0]]
                    if v is None:
                        continue
                    a += t[1] * v[0] + t[2] * v[1] * d
                    b += t[1] * v[1] + t[2] * v[0]
                if a or b:
                    bad.append((keys[i], keys[j], keys[m]))
                    if len(bad) >= limit:
                        return bad, count
    return bad, count


def normalizing_functional(alg: LoopAlgebra, phi: Cocycle, keys) -> LinearFunctional:
    """The coboundary functional that pins a cocycle to its class column.

    Values against L(0,0) fix f away from index zero; the L(2s,0) column
    fixes it on the zero-index lines, where the bracket with L(0,0) cannot
    see anything.
    """
    s = alg.group.s
    two_s = s + s
    l00 = alg.key("L", ZERO, 0)
    l2s = alg.key("L", two_s, 0)
    inv_4s = ONE / (two_s + two_s)
    inv_2s = ONE / two_s
    values: dict = {}
    for key in keys:
        if key.gamma:
            probe = phi.value(l00, key)
            if probe:
                values[key] = probe / key.gamma
        elif key.kind == "L":
            probe = phi.value(l2s, alg.key("L", -two_s, key.loop))
            if probe:
                values[key] = -inv_4s * probe
        elif key.kind == "M":
            probe = phi.value(l2s, alg.key("M", -two_s, key.loop))
            if probe:
                values[key] = -inv_2s * probe
    return LinearFunctional(values)


@dataclass
class ResidualEntry:
    pair: tuple
    value: Scalar
    kind: str  # "interior" or "boundary"


@dataclass
class ReducedCocycle:
    """Classes, the recovered functional, and whatever refused to vanish."""

    classes: dict
    functional: LinearFunctional
    residual: tuple
    diagnostics: tuple
    pivot: Scalar

    def residual_zero(self) -> bool:
        return not self.residual

    def interior(self) -> list:
        return [e for e in self.residual if e.kind == "interior"]

    def classes_payload(self) -> dict:
        return {str(k): str(c) for k, c in sorted(self.classes.items())}

    def residual_payload(self):
        if not self.residual:
            return "0"
        return [
            {
                "pair": [str(e.pair[0]), str(e.pair[1])],
                "value": str(e.value),
                "kind": e.kind,
            }
            for e in self.residual
        ]


def _pivots(alg: LoopAlgebra, window: Window):
    s = alg.group.s
    four_s_sq = (s + s) * (s + s)
    gammas, _ = alg.group.window_gammas(window)
    out = []
    for a in sorted((g for g in gammas if g.sign() > 0), key=abs):
        if a * a * a == a:
            continue
        if a * (a * a - four_s_sq) == ZERO:
            continue
        out.append(a)
    return out


def reduce_cocycle(alg: LoopAlgebra, phi: Cocycle, window: Window, pivot=None) -> ReducedCocycle:
    """Split a window cocycle into class coefficients plus a coboundary.

    The returned functional already includes the class-dependent correction
    on the L(0,*) line, so the residual statement is literally

        phi(x, y) - f([x, y]) - sum_k c_k phi_k(x, y) = 0

    for window key pairs.  Nonzero residual entries are reported, tagged
    "boundary" when the bracket of the pair leaves the window (a truncated
    table cannot answer there), "interior" otherwise.  Interior entries mean
    the input is not a cocycle reachable by this basis on this window.
    """
    group = alg.group
    s = group.s
    keys = alg.window_keys(window)
    key_set = set(keys)

    support = set(keys)
    for i, k1 in enumerate(keys):
        for k2 in keys[i:]:
            t = alg.structure(k1, k2)
            if t is not None:
                support.add(t[0])
    f = normalizing_functional(alg, phi, sorted(support, key=lambda k: k.sort_key()))

    delta_f = make_coboundary(alg, f)

    def prime(k1: BasisKey, k2: BasisKey) -> Scalar:
        return phi.value(k1, k2) - delta_f.value(k1, k2)

    pivots = _pivots(alg, window)
    if pivot is not None:
        pivot = Scalar.of(pivot)
        if pivot not in pivots:
            raise ShapeError(f"{pivot} is not an admissible extraction pivot")
        pivots = [pivot] + [p for p in pivots if p != pivot]
    if not pivots:
        raise ShapeError("window has no admissible extraction pivot")
    a0 = pivots[0]
    four_s_sq = (s + s) * (s + s)
    denom0 = a0 * (a0 * a0 - four_s_sq)

    bound = window.loop_bound
    classes: dict = {}
    diagnostics: list = []
    for k in range(-2 * bound, 2 * bound + 1):
        # the (0, k) probe pair works while |k| fits one loop index; past
        # that the degree has to be split across both slots
        if abs(k) <= bound:
            i = 0
        else:
            i = k - bound if k > 0 else k + bound
        j = k - i
        val = prime(alg.key("L", a0, i), alg.key("L", -a0, j))
        c_k = val * 12 / denom0 if val else ZERO
        if c_k:
            classes[k] = c_k
        for alt in pivots[1:2]:
            alt_val = prime(alg.key("L", alt, i), alg.key("L", -alt, j))
            alt_ck = alt_val * 12 / (alt * (alt * alt - four_s_sq))
            if alt_ck != c_k:
                diagnostics.append(
                    f"pivot cross-check at degree {k}: {c_k} from {a0}, {alt_ck} from {alt}"
                )

    # fold the class correction into the functional: the normalized class
    # representative differs from phi_k by the coboundary of this L(0,k) bump
    h_bump = (four_s_sq - ONE) / Scalar(24)
    f_values = dict(f._values)
    if h_bump:
        for k, c_k in classes.items():
            key = alg.key("L", ZERO, k)
            f_values[key] = f_values.get(key, ZERO) + c_k * h_bump
    f_tot = LinearFunctional(f_values)

    # Diagnostic: after normalization the L-M column must vanish off the
    # diagonal and be proportional to (a^2 - 2 a s) on it
    lm_diag: dict = {}
    residual: list = []
    delta_f_tot = make_coboundary(alg, f_tot)
    n = len(keys)
    for i1 in range(n):
        k1 = keys[i1]
        for i2 in range(i1 + 1, n):
            k2 = keys[i2]
            v = phi.value(k1, k2) - delta_f_tot.value(k1, k2)
            for k, c_k in classes.items():
                pv = phi_k_value(k, k1, k2)
                if pv:
                    v = v - c_k * pv
            if not v:
                continue
            if {k1.kind, k2.kind} == {"L", "M"}:
                lk, mk = (k1, k2) if k1.kind == "L" else (k2, k1)
                if lk.gamma + mk.gamma == ZERO:
                    lm_diag[(lk.gamma, lk.loop + mk.loop)] = (
                        v if k1.kind == "L" else -v
                    )
            t = alg.structure(k1, k2)
            kind = "interior"
            if t is not None and t[0] not in key_set:
                kind = "boundary"
            residual.append(ResidualEntry((k1, k2), v, kind))

    if lm_diag:
        two_s = s + s
        eight_s_sq = four_s_sq + four_s_sq
        for (a, m), v in sorted(lm_diag.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            ref = lm_diag.get((two_s + two_s, m), ZERO)
            expect = (a * a - a * two_s) / eight_s_sq * ref
            if v != expect:
                diagnostics.append(
                    f"L-M diagonal at ({a}, degree {m}) is {v}, expected {expect}"
                )

    return ReducedCocycle(classes, f_tot, tuple(residual), tuple(diagnostics), a0)


class ExtendedElement:
    """Element of the centrally extended algebra: a base part plus C-terms."""

    __slots__ = ("element", "central")

    def __init__(self, element: Element, central: dict | None = None):
        object.__setattr__(self, "element", element)
        cleaned = {}
        for k, coeff in (central or {}).items():
            coeff = Scalar.of(coeff)
            if coeff:
                cleaned[int(k)] = coeff
        object.__setattr__(self, "central", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("extended elements are immutable")

    def is_zero(self) -> bool:
        return self.element.is_zero() and not self.central

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        if not isinstance(other, ExtendedElement):
            return NotImplemented
        central = dict(self.central)
        for k, c in other.central.items():
            central[k] = central.get(k, ZERO) + c
        return ExtendedElement(self.element + other.element, central)

    def __sub__(self, other):
        if not isinstance(other, ExtendedElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExtendedElement(-self.element, {k: -c for k, c in self.central.items()})

    def __mul__(self, other):
        c = Scalar.of(other)
        return ExtendedElement(c * self.element, {k: c * v for k, v in self.central.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExtendedElement):
            return NotImplemented
        return self.element == other.element and self.central == other.central

    def __str__(self):
        terms = [(str(key), coeff) for key, coeff in self.element.items_sorted()]
        terms += [(f"C({k})", self.central[k]) for k in sorted(self.central)]
        return _signed_sum(terms)

    def __repr__(self):
        return f"<ExtendedElement {self}>"


class CentralExtension:
    """Bracket of the centrally extended algebra.

    ``weights`` maps loop degree k to the multiple of C_k switched on; None
    means the universal extension (every weight 1).  Central generators
    bracket to zero with everything, so only base parts interact.
    """

    def __init__(self, alg: LoopAlgebra, weights: dict | None = None):
        self.alg = alg
        if weights is None:
            self.weights = None
        else:
            self.weights = {int(k): Scalar.of(v) for k, v in weights.items() if Scalar.of(v)}

    def weight(self, k: int) -> Scalar:
        if self.weights is None:
            return ONE
        return self.weights.get(k, ZERO)

    def wrap(self, x: Element) -> ExtendedElement:
        return ExtendedElement(x)

    def C(self, k: int, coeff=1) -> ExtendedElement:
        return ExtendedElement(self.alg.zero(), {int(k): Scalar.of(coeff)})

    def bracket(self, x, y) -> ExtendedElement:
        if isinstance(x, Element):
            x = self.wrap(x)
        if isinstance(y, Element):
            y = self.wrap(y)
        base = self.alg.bracket(x.element, y.element)
        central: dict = {}
        for k1, c1 in x.element.terms.items():
            for k2, c2 in y.element.terms.items():
                k = k1.loop + k2.loop
                value = phi_k_value(k, k1, k2)
                if not value:
                    continue
                w = self.weight(k)
                if w:
                    central[k] = central.get(k, ZERO) + c1 * c2 * value * w
        return ExtendedElement(base, central)

    def jacobi_defect(self, x, y, z) -> ExtendedElement:
        return (
            self.bracket(self.bracket(x, y).element, z)
            + self.bracket(self.bracket(y, z).element, x)
            + self.bracket(self.bracket(z, x).element, y)
        )


def central_extend(alg: LoopAlgebra, classes: dict | None = None) -> CentralExtension:
    return CentralExtension(alg, classes)
