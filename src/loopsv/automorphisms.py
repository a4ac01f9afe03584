"""Automorphisms: generator kinds, words, factorization, and the group law.

Every automorphism handled here is a word in seven generator kinds: index
rescaling, loop shifts along a lattice homomorphism, character twists, loop
inversion, loop rescaling, shears of L into M, and inner automorphisms
exp(ad x) for x in the maximal graded ideal.  ``factor`` reverses the
process: it reads the leading parameters off a handful of images, peels them
away, absorbs the remainder into explicit inner generators and one shear,
and verifies the recomposition key by key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .algebra import BasisKey, Element, LoopAlgebra, Window
from .derivations import (
    GAffine,
    GTable,
    Operator,
    _linear_image,
    _m_line,
    operators_agree,
)
from .errors import FactorError, ShapeError
from .groups import GroupData
from .laurent import LaurentPoly
from .scalars import Scalar, ZERO, ONE, HALF

__all__ = [
    "Scale",
    "LoopShift",
    "CharTwist",
    "ZFlip",
    "LoopScale",
    "MShearData",
    "MShear",
    "Inner",
    "Word",
    "compose",
    "automorphism_defect",
    "automorphism_witnesses",
    "tuple_word",
    "fold_tuple_params",
    "conjugated_shear",
    "factor",
    "FactoredAutomorphism",
    "iso_test",
]


def _hom_int(group: GroupData, images, gamma: Scalar) -> int:
    coords = group.t_coords(gamma)
    return sum(c * n for c, n in zip(coords, images))


def _hom_scalar(group: GroupData, images, gamma: Scalar) -> Scalar:
    coords = group.t_coords(gamma)
    out = ONE
    for c, img in zip(coords, images):
        if c:
            out = out * img**c
    return out


@dataclass(frozen=True)
class Scale:
    """Index rescaling by a unit a with a*Gamma = Gamma and a*T = T."""

    a: Scalar

    def validate(self, alg: LoopAlgebra):
        if not alg.group.validate_scaling(self.a):
            raise ShapeError(f"{self.a} does not rescale the index lattice onto itself")

    def apply_key(self, alg: LoopAlgebra, key: BasisKey) -> Element:
        return alg.monomial(alg.key(key.kind, key.gamma / self.a, key.loop), self.a)

    def inverse(self) -> "Scale":
        return Scale(ONE / self.a)


@dataclass(frozen=True)
class LoopShift:
    """Shift the loop index by an additive integer function of the group index."""

    images: tuple

    def validate(self, alg: LoopAlgebra):
        if len(self.images) != len(alg.group.t_basis):
            raise ShapeError("loop-shift needs one integer per T-basis element")

    def apply_key(self, alg: LoopAlgebra, key: BasisKey) -> Element:
        shift = _hom_int(alg.group, self.images, key.gamma)
        return alg.monomial(alg.key(key.kind, key.gamma, key.loop + shift))

    def inverse(self) -> "LoopShift":
        return LoopShift(tuple(-n for n in self.images))


@dataclass(frozen=True)
class CharTwist:
    """Multiplicative character twist; the Y line carries the square root r."""

    chi: tuple
    r: Scalar

    def validate(self, alg: LoopAlgebra):
        if len(self.chi) != len(alg.group.t_basis):
            raise ShapeError("character needs one value per T-basis element")
        if any(not v for v in self.chi) or not self.r:
            raise ShapeError("character values and r must be nonzero")

    def apply_key(self, alg: LoopAlgebra, key: BasisKey) -> Element:
        chi = _hom_scalar(alg.group, self.chi, key.gamma)
        if key.kind == "M":
            chi = chi * self.r * self.r
        elif key.kind == "Y":
            chi = chi * self.r
        return alg.monomial(key, chi)

    def inverse(self) -> "CharTwist":
        return CharTwist(tuple(ONE / v for v in self.chi), ONE / self.r)


@dataclass(frozen=True)
class ZFlip:
    """Negate the loop index (eps = -1) or do nothing (eps = 1)."""

    eps: int = -1

    def validate(self, alg: LoopAlgebra):
        if self.eps not in (1, -1):
            raise ShapeError("flip exponent must be +1 or -1")

    def apply_key(self, alg: LoopAlgebra, key: BasisKey) -> Element:
        return alg.monomial(alg.key(key.kind, key.gamma, self.eps * key.loop))

    def inverse(self) -> "ZFlip":
        return self


@dataclass(frozen=True)
class LoopScale:
    """Scale by b**i according to the loop index."""

    b: Scalar

    def validate(self, alg: LoopAlgebra):
        if not self.b:
            raise ShapeError("loop-scale parameter must be invertible")

    def apply_key(self, alg: LoopAlgebra, key: BasisKey) -> Element:
        return alg.monomial(key, self.b**key.loop)

    def inverse(self) -> "LoopScale":
        return LoopScale(ONE / self.b)


def MShearData(diagonals=None, table=None) -> GAffine:
    """Coefficients e^k_(alpha,i) for a shear of L into M, as the GAffine they write down.

    The shear constraint forces the coefficients to be the same at every
    loop index i and affine in alpha.  ``diagonals`` maps a loop offset
    d = k - i to an affine pair (u_d, v_d) and gives
    GAffine(sum u_d t^d, sum v_d t^d).  ``table`` maps (alpha, i, k) to
    scalars: each (alpha, i) it names gets the line sum value*t^(k-i) over
    its rows (a zero value still names the line).  All lines of one alpha
    must equal its first one; the first (alpha, i) whose line differs is
    the witness of the refusal.  The lines then go through ``GTable``, which
    needs a line at 0 and at a nonzero index and refuses one off the affine
    line.  ``factor`` reads an operator's shear through this table too.
    """
    if (diagonals is None) == (table is None):
        raise ValueError("give exactly one of diagonals or table")
    if diagonals is not None:
        return GAffine(
            LaurentPoly({d: u for d, (u, v) in diagonals.items()}),
            LaurentPoly({d: v for d, (u, v) in diagonals.items()}),
        )
    offsets: dict = {}
    for (gamma, i, k), val in table.items():
        offsets.setdefault((Scalar.of(gamma), int(i)), {})[int(k) - int(i)] = Scalar.of(val)
    lines: dict = {}
    for (gamma, loop), terms in offsets.items():
        line = LaurentPoly(terms)
        prev = lines.setdefault(gamma, line)
        if line != prev:
            raise ShapeError(
                f"shear value at offset {(line - prev).items()[0][0]} depends on the loop index",
                witness=(gamma, loop),
            )
    return GTable(lines)


@dataclass(frozen=True)
class MShear:
    """exp(D_g) = 1 + D_g: L(alpha,i) gains e^k_(alpha,i) M(alpha,k); fixes M and Y."""

    data: GAffine

    def validate(self, alg: LoopAlgebra):
        pass

    def apply_key(self, alg: LoopAlgebra, key: BasisKey) -> Element:
        if key.kind != "L":
            return alg.monomial(key)
        return Element(alg.group, {key: ONE, **_m_line(alg, self.data.value(key.gamma), key)})

    def inverse(self) -> "MShear":
        return MShear(-self.data)


@dataclass(frozen=True, eq=False)
class Inner:
    """exp(ad x) for x in the maximal graded ideal; (ad x)^3 vanishes."""

    x: Element

    def validate(self, alg: LoopAlgebra):
        if self.x.group is not alg.group:
            raise ShapeError("inner parameter uses a different group configuration")
        if not alg.in_maximal_ideal(self.x):
            raise ShapeError("inner parameter must lie in the span of M and Y")

    def apply_key(self, alg: LoopAlgebra, key: BasisKey) -> Element:
        base = alg.monomial(key)
        first = alg.bracket(self.x, base)
        if not first:
            return base
        second = alg.bracket(self.x, first)
        return base + first + HALF * second

    def inverse(self) -> "Inner":
        return Inner(-self.x)


class Word(Operator):
    """A finite composition of generators, applied first-to-last.

    A word's row is the image of the key under each generator in turn.
    """

    __slots__ = ("gens",)

    def __init__(self, alg: LoopAlgebra, gens):
        gens = tuple(gens)
        for gen in gens:
            gen.validate(alg)
        # the row holds no reference to the word, so no cycle keeps a word alive
        super().__init__(alg, partial(_word_row, alg, gens))
        self.gens = gens

    def inverse(self) -> "Word":
        return Word(self.alg, [gen.inverse() for gen in reversed(self.gens)])

    def then(self, other: "Word") -> "Word":
        return Word(self.alg, self.gens + other.gens)

    def __len__(self):
        return len(self.gens)


def _word_row(alg: LoopAlgebra, gens: tuple, key: BasisKey) -> Element:
    out = alg.monomial(key)
    for gen in gens:
        out = _linear_image(alg, out, partial(gen.apply_key, alg))
    return out


def compose(outer: Word, inner: Word) -> Word:
    """Word acting as outer after inner (matching the usual product order)."""
    return inner.then(outer)


def automorphism_defect(alg: LoopAlgebra, sigma: Operator, x: Element, y: Element) -> Element:
    return sigma(alg.bracket(x, y)) - alg.bracket(sigma(x), sigma(y))


def automorphism_witnesses(alg: LoopAlgebra, sigma: Operator, window: Window, limit: int = 10) -> list:
    """Window key pairs where sigma fails to respect the bracket; ``.pairs`` counts the pairs compared."""
    return alg._sweep_table(window).pair_witnesses(alg._structure, sigma.apply_key, False, limit)


def tuple_word(alg: LoopAlgebra, a, shifts, chi, r, eps: int, b) -> Word:
    """Canonical word for a parameter tuple, with the loop rescaling first."""
    return Word(
        alg,
        [
            LoopScale(Scalar.of(b)),
            ZFlip(eps),
            CharTwist(tuple(Scalar.of(v) for v in chi), Scalar.of(r)),
            LoopShift(tuple(int(n) for n in shifts)),
            Scale(Scalar.of(a)),
        ],
    )


def fold_tuple_params(group: GroupData, first: tuple, second: tuple) -> tuple:
    """Parameter tuple of the composite that applies ``first`` then ``second``.

    Tuples are (a, shifts, chi, r, eps, b) with shifts and chi given on the
    T-basis.  The formula mirrors the group law: indices seen by the second
    factor are already rescaled by the first.
    """
    a1, sh1, chi1, r1, e1, b1 = first
    a2, sh2, chi2, r2, e2, b2 = second

    # composite = sigma(second) after sigma(first); indices reaching the
    # second factor are already divided by a1, and its loop shift sees the
    # flipped loop index.
    a = a1 * a2
    shifts = []
    chi = []
    for tau in group.t_basis:
        scaled = tau / a1
        sh1_val = _hom_int(group, sh1, tau)
        shifts.append(e2 * sh1_val + _hom_int(group, sh2, scaled))
        chi_val = (
            b2**sh1_val
            * _hom_scalar(group, chi1, tau)
            * _hom_scalar(group, chi2, scaled)
        )
        chi.append(chi_val)
    return (a, tuple(shifts), tuple(chi), r1 * r2, e1 * e2, b1 * b2**e1)


def conjugated_shear(group: GroupData, a, shifts, chi, r, eps: int, b, e: GAffine) -> GAffine:
    """Shear data d with psi_d = P^(-1) psi_e P for the canonical tuple word P.

    The rule acts term by term: t^m moves to t^dd with dd = eps*m, scaled by
    1/(r^2 b^dd), and the linear part u is scaled by 1/a as well.
    """
    a, r, b = Scalar.of(a), Scalar.of(r), Scalar.of(b)
    c_inv = ONE / (r * r)

    def moved(poly: LaurentPoly) -> LaurentPoly:
        return LaurentPoly({eps * m: c_inv * b ** (-eps * m) * c for m, c in poly.items()})

    return GAffine(moved(e.u) * (ONE / a), moved(e.v))


@dataclass
class FactoredAutomorphism:
    """Result of ``factor``: leading parameters, inner elements, and the shear.

    The action factors as parameter word after inner word after MShear(e),
    with the inner elements applied in the order stored.
    """

    a: Scalar
    shifts: tuple
    chi: tuple
    r: Scalar
    eps: int
    b: Scalar
    e: GAffine
    inner: tuple

    def to_word(self, alg: LoopAlgebra) -> Word:
        gens = [MShear(self.e)]
        gens.extend(Inner(x) for x in self.inner)
        gens.extend(tuple_word(alg, self.a, self.shifts, self.chi, self.r, self.eps, self.b).gens)
        return Word(alg, gens)

    def describe(self) -> dict:
        e = self.e
        offsets = sorted({d for d, _ in e.u.items()} | {d for d, _ in e.v.items()})
        return {
            "a": str(self.a),
            "phi": list(self.shifts),
            "chi": [str(v) for v in self.chi],
            "r": str(self.r),
            "eps": self.eps,
            "b": str(self.b),
            "e": {"diagonals": {str(d): [str(e.u.coefficient(d)), str(e.v.coefficient(d))] for d in offsets}},
            "inner": [str(x) for x in self.inner],
            "residual": "0",
        }


def _single_term(elem: Element, kind: str, step: str):
    picked = None
    for key, coeff in elem.terms.items():
        if key.kind != kind:
            continue
        if picked is not None:
            raise FactorError(step, f"expected a single {kind} term, got {elem}")
        picked = (key, coeff)
    if picked is None:
        raise FactorError(step, f"expected a {kind} term in {elem}")
    return picked


def factor(alg: LoopAlgebra, sigma: Operator, window: Window) -> FactoredAutomorphism:
    """Factor an automorphism into the canonical generator word.

    Leading parameters are read off the images of a few distinguished keys
    (M images stay single-term under every generator kind, so they are
    reliable probes).  What remains after peeling the parameter word is
    unipotent; its M and Y components feed three explicit inner generators
    and one canonical shear.  The factorization is verified on the window.
    """
    group = alg.group

    # leading L coefficient at the origin
    key_l00 = alg.key("L", ZERO, 0)
    l_key, a = _single_term(sigma.apply_key(key_l00), "L", "scale")
    if l_key.gamma != ZERO or l_key.loop != 0:
        raise FactorError("scale", f"image of L(0,0) has L part at {l_key}")

    m_image = sigma.apply_key(alg.key("M", ZERO, 0))
    m_key, ac = _single_term(m_image, "M", "loop-scale")
    if m_key.gamma != ZERO or m_key.loop != 0 or len(m_image) != 1:
        raise FactorError("loop-scale", "image of M(0,0) is not a multiple of M(0,0)")
    c = ac / a

    m_key, coeff = _single_term(sigma.apply_key(alg.key("M", ZERO, 1)), "M", "loop-scale")
    if m_key.gamma != ZERO or m_key.loop not in (1, -1):
        raise FactorError("loop-scale", f"image of M(0,1) sits at {m_key}")
    eps = m_key.loop
    b = coeff / ac

    r = c.sqrt(group.field_d)
    if r is None:
        raise FactorError("char-twist", f"coefficient {c} has no square root in the field")

    shifts = []
    chi = []
    for tau in group.t_basis:
        if group.in_gamma(tau):
            key, coeff = _single_term(sigma.apply_key(alg.key("M", tau, 0)), "M", "char-twist")
            chi_val = coeff / ac
        else:
            key, coeff = _single_term(sigma.apply_key(alg.key("Y", tau, 0)), "Y", "char-twist")
            chi_val = coeff / (a * r)
        if key.gamma != tau / a:
            raise FactorError("char-twist", f"image index of {tau} is {key.gamma}, expected {tau / a}")
        shifts.append(key.loop)
        chi.append(chi_val)

    lead = tuple_word(alg, a, tuple(shifts), tuple(chi), r, eps, b)
    lead_inv = lead.inverse()

    def tau_map(key: BasisKey) -> Element:
        return lead_inv(sigma.apply_key(key))

    resid = tau_map(key_l00)
    a_part: dict = {}
    b_part: dict = {}
    # every generator keeps a key's kind, so the L part of the residual is L(0,0) itself
    for key, coeff in resid.terms.items():
        if key.kind == "M":
            a_part[key] = coeff
        elif key.kind == "Y":
            b_part[key] = coeff

    x_y = Element(group, {key: -coeff / key.gamma for key, coeff in b_part.items()})
    x_lin = Element(
        group,
        {
            alg.key("M", key.gamma, key.loop): -coeff / key.gamma
            for key, coeff in a_part.items()
            if key.gamma
        },
    )
    quad: dict = {}
    for k1, c1 in b_part.items():
        for k2, c2 in b_part.items():
            if k1.gamma == k2.gamma:
                continue
            tot = k1.gamma + k2.gamma
            if not tot:
                continue
            key = alg.key("M", tot, k1.loop + k2.loop)
            val = -c1 * c2 * (k2.gamma - k1.gamma) / (2 * k1.gamma * tot)
            quad[key] = quad.get(key, ZERO) + val
    x_quad = Element(group, quad)

    unipotent = Word(alg, [Inner(x_y), Inner(x_lin), Inner(x_quad)])

    # shear: tau = (inner word) then MShear(e), so the m-shear table of e
    # holds the M-part surplus of tau over the inner word on each L key; the
    # zero row names the line of a key without surplus
    table: dict = {}
    for key in alg.window_keys(window):
        if key.kind != "L":
            continue
        diff = tau_map(key) - unipotent.apply_key(key)
        table[key.gamma, key.loop, key.loop] = ZERO
        for out_key, coeff in diff.terms.items():
            if out_key.kind != "M" or out_key.gamma != key.gamma:
                raise FactorError("shear", f"residual at {key} contains {out_key}", witness=key)
            table[key.gamma, key.loop, out_key.loop] = coeff
    try:
        e = MShearData(table=table)
    except ShapeError as exc:
        raise FactorError("shear", str(exc), witness=exc.witness) from None

    inner = tuple(x for x in (x_y, x_lin, x_quad) if x)
    result = FactoredAutomorphism(a, tuple(shifts), tuple(chi), r, eps, b, e, inner)
    witness = operators_agree(result.to_word(alg), sigma, alg.window_keys(window))
    if witness is not None:
        raise FactorError("recompose", f"factored word disagrees at {witness}", witness=witness)
    return result


# iso_test's candidates are first-lattice points of T-coordinates up to this bound
ISO_HEIGHT = 4


def iso_test(g1: GroupData, g2: GroupData) -> Scalar | None:
    """A scalar a with a*Gamma2 = Gamma1 and a*T2 = T1, or None.

    Candidates are ratios of small elements of the first lattice, up to
    ``ISO_HEIGHT``, against the second lattice's basis, and the reciprocals of
    the same ratios with the groups swapped, so swapping the arguments inverts
    every candidate and ``None`` does not depend on their order.  Every
    candidate is verified exactly in both directions, so a returned value is
    always correct.  ``None`` means no candidate up to that height worked.
    """
    if g1.field_d != g2.field_d:
        return None
    candidates = {x / den for x in g1.t_points(ISO_HEIGHT) for den in (*g2.gamma_basis, g2.s)}
    candidates |= {num / x for x in g2.t_points(ISO_HEIGHT) if x for num in (*g1.gamma_basis, g1.s)}
    candidates.discard(ZERO)
    for a in sorted(candidates, key=lambda a: (abs(a), a.sign() < 0)):
        if g1.carries(g2, a):
            return a
    return None
