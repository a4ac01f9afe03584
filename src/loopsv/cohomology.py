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
from functools import partial
from itertools import chain

from .algebra import BasisKey, Element, LoopAlgebra, Window
from .errors import DomainError, GroupMismatchError, NotACocycleError, ShapeError
from .scalars import Scalar, ZERO, ONE, _SparseVector, _add_scaled, _nonzero, _signed_sum

__all__ = [
    "LinearFunctional",
    "Cocycle",
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


class LinearFunctional(_SparseVector):
    """Finitely supported scalar functional on basis keys."""

    __slots__ = ()

    def __init__(self, values: dict | None = None):
        super().__init__(None, values.items() if values else ())

    # the functional's value on a key is its coefficient there
    value = _SparseVector.coefficient

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

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
    """Bilinear alternating form given by its value on each key pair.

    The bilinear counterpart of ``Operator``: ``value(k1, k2)`` is the one
    function the form is made of, and ``of_elements`` extends it bilinearly.
    """

    __slots__ = ("alg", "value")

    def __init__(self, alg: LoopAlgebra, value):
        self.alg = alg
        self.value = value

    def of_elements(self, x: Element, y: Element) -> Scalar:
        out = ZERO
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                v = self.value(k1, k2)
                if v:
                    out = out + c1 * c2 * v
        return out


class TableCocycle(Cocycle):
    """Explicit finite table of pair values; zero everywhere else.

    Pairs are stored under the canonical key order, so lookups through
    ``value`` are antisymmetric no matter how the input was oriented.
    Conflicting duplicate entries are rejected outright.
    """

    __slots__ = ("_table",)

    def __init__(self, alg: LoopAlgebra, entries: dict):
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
        super().__init__(alg, partial(_table_value, self._table))

    def items(self):
        return sorted(self._table.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))


def _table_value(table: dict, k1: BasisKey, k2: BasisKey) -> Scalar:
    if k2.sort_key() < k1.sort_key():
        v = table.get((k2, k1))
        return -v if v is not None else ZERO
    return table.get((k1, k2), ZERO)


def _combination_value(terms: tuple, k1: BasisKey, k2: BasisKey) -> Scalar:
    out = ZERO
    for coeff, phi in terms:
        v = phi.value(k1, k2)
        if v:
            out = out + coeff * v
    return out


def _coboundary_value(alg: LoopAlgebra, f: LinearFunctional, k1: BasisKey, k2: BasisKey) -> Scalar:
    t = alg.structure(k1, k2)
    if t is None:
        return ZERO
    fv = f.value(t[0])
    return t[1] * fv if fv else ZERO


def CombinationCocycle(alg: LoopAlgebra, terms) -> Cocycle:
    """The form sum of ``c * phi`` over the ``(c, phi)`` terms."""
    return Cocycle(alg, partial(_combination_value, tuple((Scalar.of(c), phi) for c, phi in terms)))


def make_phi_k(alg: LoopAlgebra, k: int) -> Cocycle:
    return Cocycle(alg, partial(phi_k_value, int(k)))


def make_coboundary(alg: LoopAlgebra, f: LinearFunctional) -> Cocycle:
    """The coboundary of f: the form (x, y) -> f([x, y])."""
    return Cocycle(alg, partial(_coboundary_value, alg, f))


def cocycle_defect(phi: Cocycle, x: Element, y: Element, z: Element) -> Scalar:
    alg = phi.alg
    return (
        phi.of_elements(x, alg.bracket(y, z))
        + phi.of_elements(y, alg.bracket(z, x))
        + phi.of_elements(z, alg.bracket(x, y))
    )


def cocycle_witnesses(alg: LoopAlgebra, phi: Cocycle, window: Window, limit: int = 10) -> tuple:
    """(violating key triples, triple count) for the cyclic identity sweep.

    The cocycle identity is the central part of the Jacobi identity of
    [x, y] + phi(x, y) c, so this is the Jacobi sweep with phi's values as
    the outer rows, over i < j < k since phi is alternating.  ``phi`` must
    take its values in the algebra's field.
    """
    table = alg._sweep_table(window)
    return table.cyclic_witnesses(table.pair_values(phi.value), 1, limit)


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


def _pivot_scale(a: Scalar, four_s_sq: Scalar) -> Scalar:
    """a(a^2 - 4s^2): on L(a,i), L(-a,k-i) a normalized cocycle of class c*phi_k
    takes c/12 times this, so a pivot must not make it zero."""
    return a * (a * a - four_s_sq)


def _pivots(alg: LoopAlgebra, window: Window):
    s = alg.group.s
    four_s_sq = (s + s) * (s + s)
    gammas, _ = alg.group.window_gammas(window)
    return [a for a in sorted((g for g in gammas if g.sign() > 0), key=abs) if _pivot_scale(a, four_s_sq)]


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
    table = alg._sweep_table(window)
    keys, n = table.keys[: table.n], table.n

    # the support: the window keys and every key a bracket of two of them reaches
    f = normalizing_functional(alg, phi, table.keys[: table.width])

    prime = CombinationCocycle(alg, [(ONE, phi), (-ONE, make_coboundary(alg, f))]).value

    pivots = _pivots(alg, window)
    if pivot is not None:
        pivot = Scalar.of(pivot)
        if pivot not in pivots:
            raise ShapeError(f"{pivot} is not an admissible extraction pivot")
        pivots = [pivot] + [p for p in pivots if p != pivot]
    if not pivots:
        raise DomainError("window has no admissible extraction pivot")
    a0 = pivots[0]
    four_s_sq = (s + s) * (s + s)
    denom0 = _pivot_scale(a0, four_s_sq)

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
            alt_ck = alt_val * 12 / _pivot_scale(alt, four_s_sq)
            if alt_ck != c_k:
                diagnostics.append(
                    f"pivot cross-check at degree {k}: {c_k} from {a0}, {alt_ck} from {alt}"
                )

    # fold the class correction into the functional: the normalized class
    # representative differs from phi_k by the coboundary of this L(0,k) bump
    h_bump = (four_s_sq - ONE) / Scalar(24)
    f_tot = f + h_bump * LinearFunctional({alg.key("L", ZERO, k): c_k for k, c_k in classes.items()})

    # Diagnostic: after normalization the L-M column must vanish off the
    # diagonal and be proportional to (a^2 - 2 a s) on it
    # phi minus the classes, less f_tot of the bracket read off the table row
    lm_diag: dict = {}
    residual: list = []
    rest = CombinationCocycle(
        alg, [(ONE, phi)] + [(-c_k, make_phi_k(alg, k)) for k, c_k in classes.items()]
    ).value
    for i1 in range(n):
        k1, row = keys[i1], table.rows[i1]
        for i2 in range(i1 + 1, n):
            k2, t = keys[i2], row[i2]
            v = rest(k1, k2)
            if t is not None:
                fv = f_tot.value(table.keys[t[0]])
                if fv:
                    v = v - table.coefficient(t) * fv
            if not v:
                continue
            if {k1.kind, k2.kind} == {"L", "M"}:
                lk, mk = (k1, k2) if k1.kind == "L" else (k2, k1)
                if lk.gamma + mk.gamma == ZERO:
                    lm_diag[(lk.gamma, lk.loop + mk.loop)] = (
                        v if k1.kind == "L" else -v
                    )
            kind = "boundary" if t is not None and t[0] >= n else "interior"
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


class ExtendedElement(_SparseVector):
    """Element of the centrally extended algebra: one sum over basis keys and C-terms.

    A basis key names a base term and an integer ``k`` names the generator
    ``C(k)``; ``element`` and ``central`` read the two parts apart.
    """

    __slots__ = ()

    def __init__(self, element: Element, central: dict | None = None):
        pairs = element.terms.items()
        if central:
            pairs = chain(pairs, ((int(k), c) for k, c in central.items()))
        super().__init__(element.group, pairs)

    @property
    def element(self) -> Element:
        return Element._of(self._space, {k: c for k, c in self._terms.items() if not isinstance(k, int)})

    @property
    def central(self) -> dict:
        return {k: c for k, c in self._terms.items() if isinstance(k, int)}

    def __str__(self):
        terms = [(str(key), coeff) for key, coeff in self.element.items_sorted()]
        terms += [(f"C({k})", coeff) for k, coeff in sorted(self.central.items())]
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
        # key pair -> (its base term, that plus its C(k) term w_k*phi_k), tuples of (key, scalar)
        self._pair_cache: dict[tuple, tuple] = {}

    def weight(self, k: int) -> Scalar:
        if self.weights is None:
            return ONE
        return self.weights.get(k, ZERO)

    def wrap(self, x: Element) -> ExtendedElement:
        return ExtendedElement(x)

    def C(self, k: int, coeff=1) -> ExtendedElement:
        return ExtendedElement(self.alg.zero(), {int(k): Scalar.of(coeff)})

    def _pair(self, k1: BasisKey, k2: BasisKey) -> tuple:
        k = k1.loop + k2.loop
        value = phi_k_value(k, k1, k2) * self.weight(k)
        sc = self.alg.structure(k1, k2)
        base = (sc,) if sc is not None else ()
        return base, (base + ((k, value),) if value else base)

    def _base(self, x) -> Element:
        if isinstance(x, ExtendedElement):
            x = x.element
        if x.group is not self.alg.group:
            raise GroupMismatchError("bracket operands use a different group configuration")
        return x

    def bracket(self, x, y) -> ExtendedElement:
        x, y = self._base(x), self._base(y)
        cache, out = self._pair_cache, {}
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                entry = cache.get((k1, k2))
                if entry is None:
                    entry = cache[k1, k2] = self._pair(k1, k2)
                if entry[1]:
                    _add_scaled(out, c1 * c2, entry[1])
        return ExtendedElement._of(self.alg.group, _nonzero(out.items()))

    def jacobi_defect(self, x, y, z) -> ExtendedElement:
        """[[x, y], z] + [[y, z], x] + [[z, x], y]: the sum over term triples of cx*cy*cz * J(kx, ky, kz).

        Central terms bracket to zero, so in J(a, b, c) the inner [a, b] is its base term
        (key, s) alone, and s times the entry of (key, c) is the outer bracket, C(k) terms
        included.  Only a nonzero J pays cx*cy*cz.
        """
        x, y, z = self._base(x), self._base(y), self._base(z)
        cache, pair, out = self._pair_cache, self._pair, {}
        for kx, cx in x.terms.items():
            for ky, cy in y.terms.items():
                for kz, cz in z.terms.items():
                    part: dict = {}
                    for a, b, c in ((kx, ky, kz), (ky, kz, kx), (kz, kx, ky)):
                        inner = cache.get((a, b))
                        if inner is None:
                            inner = cache[a, b] = pair(a, b)
                        if inner[0]:
                            key, s = inner[0][0]
                            outer = cache.get((key, c))
                            if outer is None:
                                outer = cache[key, c] = pair(key, c)
                            _add_scaled(part, s, outer[1])
                    if any(part.values()):
                        _add_scaled(out, cx * cy * cz, part.items())
        return ExtendedElement._of(self.alg.group, _nonzero(out.items()))


def central_extend(alg: LoopAlgebra, classes: dict | None = None) -> CentralExtension:
    return CentralExtension(alg, classes)
