"""Derivations: the standard families, degree decomposition, and recognizers.

Every degree-zero derivation splits as a loop reparametrization part, a
homomorphism part acting diagonally through Laurent polynomials, a part
shearing L into M, and a central-direction rescaling.  The functions here
build those families, decompose a given operator back into them with exact
postcondition checks, and reduce nonzero-degree derivations to inner ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .algebra import BasisKey, Element, LoopAlgebra, Window
from .errors import DomainError, ShapeError
from .groups import GroupData
from .laurent import LaurentPoly
from .scalars import Scalar, ZERO, ONE, HALF, _add_scaled

__all__ = [
    "Operator",
    "HomToLaurent",
    "GAffine",
    "GTable",
    "CanonicalDerivation",
    "make_D_phi",
    "make_D_g",
    "make_D_b",
    "make_D_rho",
    "make_ad",
    "derivation_defect",
    "derivation_witnesses",
    "degree_decompose",
    "reduce_nonzero_degree",
    "canonical_decompose_degree0",
    "hom_quotient_witness",
    "operators_agree",
    "table_operator",
]


class Operator:
    """Linear map given by its rows: the image of each basis key.

    ``row(key)`` computes one row; ``apply_key`` computes each key's row once
    and keeps it on the operator, so repeated sweeps and sums of operators
    reuse it.  ``degree`` is an optional declared weight shift: every output
    term of a degree-gamma operator sits at the input weight plus gamma.
    A sum keeps the flat tuple of its summands' ``apply_key`` methods and
    adds their rows in one pass, so sums do not nest.
    """

    __slots__ = ("alg", "degree", "_row", "_rows", "_summands")

    def __init__(self, alg: LoopAlgebra, row, degree: Scalar | None = None):
        self.alg = alg
        self._row = row
        self.degree = degree
        self._rows: dict = {}
        self._summands = None

    def apply_key(self, key: BasisKey) -> Element:
        out = self._rows.get(key)
        if out is None:
            out = self._rows[key] = self._row(key)
        return out

    def __call__(self, x: Element) -> Element:
        return _linear_image(self.alg, x, self.apply_key)

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        degree = self.degree if self.degree is not None and self.degree == other.degree else None
        summands = (self._summands or (self.apply_key,)) + (other._summands or (other.apply_key,))
        out = Operator(self.alg, partial(_sum_row, self.alg, summands), degree)
        out._summands = summands
        return out

    @staticmethod
    def zero(alg: LoopAlgebra) -> "Operator":
        return Operator(alg, lambda key: alg.zero(), ZERO)


def _sum_row(alg: LoopAlgebra, summands: tuple, key: BasisKey) -> Element:
    """The sum of ``row(key)`` over the summand rows, added up in one dict."""
    acc: dict = {}
    for row in summands:
        _add_scaled(acc, ONE, row(key).terms.items())
    return Element(alg.group, acc)


def _linear_image(alg: LoopAlgebra, x: Element, row) -> Element:
    """The sum of ``coeff * row(key)`` over the terms of x, added up in one dict."""
    acc: dict = {}
    for key, coeff in x.terms.items():
        _add_scaled(acc, coeff, row(key).terms.items())
    return Element(alg.group, acc)


def table_operator(alg: LoopAlgebra, table: dict, degree=None) -> Operator:
    """Operator given by an explicit key table; undefined keys are an error."""

    def fn(key):
        try:
            return table[key]
        except KeyError:
            raise DomainError(f"operator table has no entry for {key}", witness=key) from None

    return Operator(alg, fn, degree)


def _t_coords(group: GroupData, gamma) -> tuple:
    """The coordinates of gamma on the T-basis; a ShapeError off T."""
    coords = group.t_coords(Scalar.of(gamma))
    if coords is None:
        raise ShapeError(f"{gamma} is not in T")
    return coords


def _additive(group: GroupData, images, gamma, zero):
    """The additive map on T with the given T-basis images, at gamma."""
    return sum((c * img for c, img in zip(_t_coords(group, gamma), images) if c), zero)


@dataclass(frozen=True)
class HomToLaurent:
    """Additive map from the index lattice T into Laurent polynomials.

    Stored through its images on the canonical T-basis; the value anywhere
    else follows by integer linearity.
    """

    images: tuple

    def value(self, group: GroupData, gamma: Scalar) -> LaurentPoly:
        return _additive(group, self.images, gamma, LaurentPoly.zero())

    @staticmethod
    def zero(group: GroupData) -> "HomToLaurent":
        return HomToLaurent(tuple(LaurentPoly.zero() for _ in group.t_basis))


@dataclass(frozen=True)
class GAffine:
    """Shear data alpha -> u*alpha + v, always a valid constraint solution.

    The same data is the shear automorphism exp(D_g) = 1 + D_g, as D_g^2 = 0.
    """

    u: LaurentPoly
    v: LaurentPoly

    def value(self, gamma: Scalar) -> LaurentPoly:
        return self.u * gamma + self.v

    def __add__(self, other):
        if not isinstance(other, GAffine):
            return NotImplemented
        return GAffine(self.u + other.u, self.v + other.v)

    def __neg__(self):
        return GAffine(-self.u, -self.v)


def GTable(values: dict) -> GAffine:
    """Shear data given by its values on a finite set of group indices.

    The compatibility relation
    (beta - alpha) g(alpha+beta) = beta g(beta) - alpha g(alpha)
    has only the affine solutions g(alpha) = u*alpha + v, so a table is the
    ``GAffine(u, v)`` its values at 0 and at its first nonzero index (in the
    table's order) write down.  Every other value must lie on that line; the
    first one off it is the witness of the refusal.  This is the one affine
    fit: ``MShearData``'s table, ``factor``'s shear step and
    ``canonical_decompose_degree0`` all read their shear through it.
    """
    values = {Scalar.of(k): v for k, v in values.items()}
    if ZERO not in values or len(values) < 2:
        raise ShapeError("shear table needs values at 0 and at a nonzero index")
    v = values[ZERO]
    pivot = next(gamma for gamma in values if gamma)
    u = (values[pivot] - v) * pivot.inverse()
    for gamma, value in values.items():
        if u * gamma + v != value:
            raise ShapeError(f"shear table is not affine at {gamma}", witness=gamma)
    return GAffine(u, v)


def _degree0_row(alg: LoopAlgebra, rho, f: HomToLaurent, g, b, key: BasisKey) -> Element:
    """Row of D_rho + D_phi + D_g + D_b at one key, for rho, f, g and b.

    The key's own line is scaled by (i*rho) t^-1 + f(gamma), plus b on M keys
    and b/2 on Y keys; an L key also gets g(gamma) on its M line.
    """
    kind, gamma, loop = key.kind, key.gamma, key.loop
    poly = (loop * rho).shift(-1) + f.value(alg.group, gamma)
    if kind == "L":
        terms = _m_line(alg, g.value(gamma), key)
    else:
        terms = {}
        poly = poly + (b if kind == "M" else HALF * b)
    for e, c in poly.items():
        terms[alg.key(kind, gamma, loop + e)] = c
    return Element(alg.group, terms)


def _m_line(alg: LoopAlgebra, poly: LaurentPoly, key: BasisKey) -> dict:
    """The t^e terms of a shear polynomial at an L key, written onto M(gamma, i+e)."""
    return {alg.key("M", key.gamma, key.loop + e): c for e, c in poly.items()}


_NO_POLY = LaurentPoly.zero()
_NO_SHEAR = GAffine(_NO_POLY, _NO_POLY)


def make_D_phi(alg: LoopAlgebra, phi: HomToLaurent) -> Operator:
    """Diagonal action: every key is multiplied by the Laurent image of its index."""
    return CanonicalDerivation(_NO_POLY, phi, _NO_SHEAR, _NO_POLY).to_operator(alg)


def make_D_g(alg: LoopAlgebra, g) -> Operator:
    """Shear L into M through g; kills M and Y."""
    return CanonicalDerivation(_NO_POLY, HomToLaurent.zero(alg.group), g, _NO_POLY).to_operator(alg)


def make_D_b(alg: LoopAlgebra, b: LaurentPoly) -> Operator:
    """Scale M by b and Y by b/2; kills L."""
    return CanonicalDerivation(_NO_POLY, HomToLaurent.zero(alg.group), _NO_SHEAR, b).to_operator(alg)


def make_D_rho(alg: LoopAlgebra, rho: LaurentPoly) -> Operator:
    """Loop reparametrization rho(t) d/dt acting on the loop variable only."""
    return CanonicalDerivation(rho, HomToLaurent.zero(alg.group), _NO_SHEAR, _NO_POLY).to_operator(alg)


def make_ad(alg: LoopAlgebra, z: Element) -> Operator:
    """Inner derivation bracketing with z; degree declared when z is homogeneous."""
    gammas = {k.gamma for k in z.terms}
    degree = next(iter(gammas)) if len(gammas) == 1 else None

    def fn(key):
        return alg.bracket(z, alg.monomial(key))

    return Operator(alg, fn, degree)


def derivation_defect(alg: LoopAlgebra, D: Operator, x: Element, y: Element) -> Element:
    return D(alg.bracket(x, y)) - alg.bracket(D(x), y) - alg.bracket(x, D(y))


def derivation_witnesses(alg: LoopAlgebra, D: Operator, window: Window, limit: int = 10) -> list:
    """Window key pairs where the Leibniz rule fails (expected: none); ``.pairs`` counts pairs compared."""
    return alg._sweep_table(window).pair_witnesses(alg._structure, D.apply_key, True, limit)


def operators_agree(A: Operator, B: Operator, keys) -> BasisKey | None:
    """First key where the two operators differ, or None."""
    for key in keys:
        if A.apply_key(key) != B.apply_key(key):
            return key
    return None


def degree_decompose(alg: LoopAlgebra, D: Operator, window: Window) -> dict:
    """Split D into weight-homogeneous components over the window keys.

    Returns a map degree -> Operator; each component is window-restricted and
    raises outside its table.  Summing the components reproduces D on the
    window.
    """
    tables: dict = {}
    for key in alg.window_keys(window):
        out = D.apply_key(key)
        buckets: dict = {}
        for out_key, coeff in out.terms.items():
            buckets.setdefault(out_key.gamma - key.gamma, {})[out_key] = coeff
        for degree, terms in buckets.items():
            tables.setdefault(degree, {})[key] = Element(alg.group, terms)
    out = {}
    for degree in sorted(tables):
        table = tables[degree]
        full = {key: table.get(key, alg.zero()) for key in alg.window_keys(window)}
        out[degree] = table_operator(alg, full, degree)
    return out


def reduce_nonzero_degree(alg: LoopAlgebra, D: Operator, window: Window) -> Element:
    """Element z with D = ad(z), for a derivation of declared nonzero degree.

    The candidate is read off the image of L(0,0) and then checked against D
    on the whole window.
    """
    if D.degree is None:
        raise ValueError("operator must declare its degree")
    if not D.degree:
        raise ValueError("degree-zero derivations are not inner in general")
    grading_key = alg.key("L", ZERO, 0)
    z = (-ONE / D.degree) * D.apply_key(grading_key)
    witness = operators_agree(make_ad(alg, z), D, alg.window_keys(window))
    if witness is not None:
        raise ShapeError(
            "operator is not a derivation of pure degree "
            f"{D.degree}: ad-candidate disagrees at {witness}",
            witness=witness,
        )
    return z


@dataclass(frozen=True)
class CanonicalDerivation:
    """The canonical pieces of a degree-zero derivation, plus an inner remainder."""

    rho: LaurentPoly
    f: HomToLaurent
    g: GAffine
    b: LaurentPoly
    inner: Element | None = None

    def to_operator(self, alg: LoopAlgebra) -> Operator:
        """One operator on the degree-zero row, plus ad(inner) when inner is nonzero."""
        op = Operator(alg, partial(_degree0_row, alg, self.rho, self.f, self.g, self.b), ZERO)
        return op + make_ad(alg, self.inner) if self.inner else op


def _split_parts(elem: Element, gamma: Scalar, allowed: tuple, base_loop: int, context: str) -> dict:
    """Split an image into Laurent data per kind, at a fixed group index."""
    polys = {kind: {} for kind in allowed}
    for key, coeff in elem.terms.items():
        if key.kind not in allowed or key.gamma != gamma:
            raise ShapeError(
                f"not degree-zero-derivation-shaped: {context} produced {key}",
                witness=key,
            )
        polys[key.kind][key.loop - base_loop] = coeff
    return {kind: LaurentPoly(data) for kind, data in polys.items()}


def canonical_decompose_degree0(alg: LoopAlgebra, D: Operator, window: Window) -> CanonicalDerivation:
    """Recover (rho, f, g, b) from a degree-zero derivation, exactly.

    Reads rho off the loop-degree action at weight zero, then f and g off the
    L-images, extends f to the T-basis through the half rule on the coset,
    and reads b off the central line.  The decomposition is verified key by
    key on the window before it is returned.
    """
    group = alg.group
    gammas, _ = alg.group.window_gammas(window)

    rho = LaurentPoly.zero()  # D_rho kills every loop-0 key: loop bound 0 reads rho as 0
    if window.loop_bound:
        img = D.apply_key(alg.key("L", ZERO, 1))
        rho = _split_parts(img, ZERO, ("L", "M"), 1, "D(L(0,1))")["L"].shift(1)

    f_at: dict = {}
    g_at: dict = {}
    for gamma in gammas:  # D_rho kills loop index 0, where every read sits
        image = D.apply_key(alg.key("L", gamma, 0))
        split = _split_parts(image, gamma, ("L", "M"), 0, f"D(L({gamma},0))")
        f_at[gamma], g_at[gamma] = split["L"], split["M"]

    for a in gammas:
        for b_ in gammas:
            tot = a + b_
            if tot in f_at and f_at[a] + f_at[b_] != f_at[tot]:
                raise ShapeError(
                    f"inconsistent f across window at ({a}, {b_})",
                    witness=(a, b_),
                )

    # every tau and 2*tau has T-coordinates of at most 2, inside the window
    images = []
    for tau in group.t_basis:
        if group.in_gamma(tau):
            images.append(f_at[tau])
        else:
            images.append(HALF * f_at[tau + tau])
    f = HomToLaurent(tuple(images))

    try:
        g = GTable(g_at)
    except ShapeError as exc:
        raise ShapeError(
            f"not degree-zero-derivation-shaped: the shear is not affine at {exc.witness}",
            witness=exc.witness,
        ) from None

    img = D.apply_key(alg.key("M", ZERO, 0))
    b = _split_parts(img, ZERO, ("M",), 0, "D(M(0,0))")["M"]

    cand = CanonicalDerivation(rho, f, g, b)
    witness = operators_agree(cand.to_operator(alg), D, alg.window_keys(window))
    if witness is not None:
        raise ShapeError(
            f"not degree-zero-derivation-shaped: canonical pieces disagree at {witness}",
            witness=witness,
        )
    return cand


def hom_quotient_witness(group: GroupData, phi: HomToLaurent) -> dict | None:
    """Coefficients a_j with phi(gamma) = gamma * sum a_j t^j, or None.

    When the witness exists, the diagonal operator of phi equals the bracket
    sum of a_j copies of ad L(0,j) on every key; the first basis image forces
    the candidate and the remaining images decide.  The empty map encodes
    phi = 0.
    """
    tau0 = group.t_basis[0]
    f = phi.images[0] * tau0.inverse()
    for tau, img in zip(group.t_basis, phi.images):
        if img != f * tau:
            return None
    return dict(f.items())
