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
from itertools import product as iproduct

from .algebra import BasisKey, Element, LoopAlgebra, Window
from .derivations import Operator, _fit_affine, _linear_image, _pair_witnesses, operators_agree
from .errors import FactorError, ShapeError
from .groups import GroupData
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


class MShearData:
    """Coefficients e^k_(alpha,i) for a shear of L into M.

    Canonical form stores one affine pair (u_d, v_d) per loop offset
    d = k - i, which always satisfies the shear constraint.  A generic table
    maps (alpha, i, k) to scalars and is validated eagerly on the index box
    spanned by its support.
    """

    def __init__(self, diagonals=None, table=None):
        if (diagonals is None) == (table is None):
            raise ValueError("give exactly one of diagonals or table")
        self.diagonals = None
        self.table = None
        if diagonals is not None:
            cleaned = {}
            for d, (u, v) in diagonals.items():
                u, v = Scalar.of(u), Scalar.of(v)
                if u or v:
                    cleaned[int(d)] = (u, v)
            self.diagonals = cleaned
        else:
            cleaned = {}
            for (gamma, i, k), val in table.items():
                val = Scalar.of(val)
                if val:
                    cleaned[(Scalar.of(gamma), int(i), int(k))] = val
            self.table = cleaned
            self._validate_table()

    def _validate_table(self):
        # A finite table can only describe a shear on the box it spans, so
        # the constraint is checked where all three indices land inside the
        # declared support; missing entries count as zero.
        gammas = sorted({g for g, _, _ in self.table}, key=lambda x: (abs(x), x.sign()))
        loops = sorted({i for _, i, _ in self.table} | {k for _, _, k in self.table})
        support = set(gammas)
        for a in gammas:
            for b in gammas:
                tot = a + b
                if tot not in support:
                    continue
                for i in loops:
                    for j in loops:
                        for k in loops:
                            lhs = (b - a) * self.value(tot, i + j, k)
                            rhs = b * self.value(b, j, k - i) - a * self.value(a, i, k - j)
                            if lhs != rhs:
                                raise ShapeError(
                                    "shear table violates the shear constraint",
                                    witness=(a, b, i, j, k),
                                )

    def value(self, gamma, i: int, k: int) -> Scalar:
        gamma = Scalar.of(gamma)
        if self.diagonals is not None:
            pair = self.diagonals.get(k - i)
            if pair is None:
                return ZERO
            u, v = pair
            return u * gamma + v
        return self.table.get((gamma, i, k), ZERO)

    def is_canonical(self) -> bool:
        return self.diagonals is not None

    def __neg__(self):
        if self.diagonals is not None:
            return MShearData(diagonals={d: (-u, -v) for d, (u, v) in self.diagonals.items()})
        return MShearData(table={key: -v for key, v in self.table.items()})

    def __add__(self, other):
        if not isinstance(other, MShearData):
            return NotImplemented
        if self.diagonals is not None and other.diagonals is not None:
            out = dict(self.diagonals)
            for d, (u, v) in other.diagonals.items():
                pu, pv = out.get(d, (ZERO, ZERO))
                out[d] = (pu + u, pv + v)
            return MShearData(diagonals=out)
        if self.table is not None and other.table is not None:
            out = dict(self.table)
            for key, v in other.table.items():
                out[key] = out.get(key, ZERO) + v
            return MShearData(table=out)
        raise ValueError("cannot mix canonical and table shear data")

    def __eq__(self, other):
        if not isinstance(other, MShearData):
            return NotImplemented
        return self.diagonals == other.diagonals and self.table == other.table

    def describe(self) -> dict:
        if self.diagonals is not None:
            return {
                "diagonals": {str(d): [str(u), str(v)] for d, (u, v) in sorted(self.diagonals.items())}
            }
        return {
            "table": [
                [str(g), i, k, str(v)]
                for (g, i, k), v in sorted(self.table.items(), key=lambda kv: (str(kv[0][0]), kv[0][1], kv[0][2]))
            ]
        }


@dataclass(frozen=True)
class MShear:
    """Shear L(alpha,i) by adding e^k_(alpha,i) M(alpha,k); fixes M and Y."""

    data: MShearData

    def validate(self, alg: LoopAlgebra):
        pass

    def apply_key(self, alg: LoopAlgebra, key: BasisKey) -> Element:
        out = alg.monomial(key)
        if key.kind != "L":
            return out
        terms = {}
        if self.data.diagonals is not None:
            for d, (u, v) in self.data.diagonals.items():
                coeff = u * key.gamma + v
                if coeff:
                    terms[alg.key("M", key.gamma, key.loop + d)] = coeff
        else:
            for (gamma, i, k), coeff in self.data.table.items():
                if gamma == key.gamma and i == key.loop:
                    terms[alg.key("M", gamma, k)] = coeff
        return out + Element(alg.group, terms)

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
    """Window key pairs where sigma fails to respect the bracket."""

    def rhs(k1, k2):
        return alg.bracket(sigma.apply_key(k1), sigma.apply_key(k2))

    return _pair_witnesses(alg, sigma, window, limit, rhs)


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


def conjugated_shear(
    group: GroupData, a, shifts, chi, r, eps: int, b, e: MShearData
) -> MShearData:
    """Shear data d with psi_d = P^(-1) psi_e P for the canonical tuple word P.

    In canonical form the rule collapses diagonal-wise: the offset dd picks
    the source diagonal eps*dd, scaled by 1/(r^2 b^dd) and, on the linear
    part, by 1/a.
    """
    if not e.is_canonical():
        raise ValueError("conjugation formula needs canonical shear data")
    a, r, b = Scalar.of(a), Scalar.of(r), Scalar.of(b)
    c_inv = ONE / (r * r)
    out = {}
    for m, (u, v) in e.diagonals.items():
        dd = eps * m
        scale = c_inv * b ** (-dd)
        out[dd] = (scale * u / a, scale * v)
    return MShearData(diagonals=out)


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
    e: MShearData
    inner: tuple

    def to_word(self, alg: LoopAlgebra) -> Word:
        gens = [MShear(self.e)]
        gens.extend(Inner(x) for x in self.inner)
        gens.extend(tuple_word(alg, self.a, self.shifts, self.chi, self.r, self.eps, self.b).gens)
        return Word(alg, gens)

    def describe(self) -> dict:
        return {
            "a": str(self.a),
            "phi": list(self.shifts),
            "chi": [str(v) for v in self.chi],
            "r": str(self.r),
            "eps": self.eps,
            "b": str(self.b),
            "e": self.e.describe(),
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
    for key, coeff in resid.terms.items():
        if key.kind == "L":
            if key != key_l00 or coeff != ONE:
                raise FactorError("unipotent", f"residual image of L(0,0) contains {coeff}*{key}")
        elif key.kind == "M":
            a_part[key] = coeff
        else:
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
            prev = quad.get(key)
            quad[key] = val if prev is None else prev + val
    x_quad = Element(group, quad)

    unipotent = Word(alg, [Inner(x_y), Inner(x_lin), Inner(x_quad)])

    # shear coefficients: tau = (inner word) then MShear(e), so e is read off
    # the M-part surplus of tau over the inner word on L keys
    diag_values: dict = {}
    for key in alg.window_keys(window):
        if key.kind != "L":
            continue
        diff = tau_map(key) - unipotent.apply_key(key)
        for out_key, coeff in diff.terms.items():
            if out_key.kind != "M" or out_key.gamma != key.gamma:
                raise FactorError("shear", f"residual at {key} contains {out_key}", witness=key)
            d = out_key.loop - key.loop
            bucket = diag_values.setdefault(d, {})
            prev = bucket.get((key.gamma, key.loop))
            if prev is not None and prev != coeff:
                raise FactorError("shear", f"conflicting shear value at {key}", witness=key)
            bucket[(key.gamma, key.loop)] = coeff

    diagonals = {}
    for d, bucket in diag_values.items():
        by_gamma: dict = {}
        for (gamma, loop), coeff in bucket.items():
            prev = by_gamma.get(gamma)
            if prev is not None and prev != coeff:
                raise FactorError(
                    "shear", f"shear value at offset {d} depends on the loop index", witness=(gamma, loop)
                )
            by_gamma[gamma] = coeff
        u, v, off = _fit_affine(by_gamma, ZERO)
        if off is not None:
            raise FactorError("shear", f"shear values at offset {d} are not affine", witness=off)
        if u or v:
            diagonals[d] = (u, v)
    e = MShearData(diagonals=diagonals)

    inner = tuple(x for x in (x_y, x_lin, x_quad) if x)
    result = FactoredAutomorphism(a, tuple(shifts), tuple(chi), r, eps, b, e, inner)
    witness = operators_agree(result.to_word(alg), sigma, alg.window_keys(window))
    if witness is not None:
        raise FactorError("recompose", f"factored word disagrees at {witness}", witness=witness)
    return result


def iso_test(g1: GroupData, g2: GroupData, height: int = 4) -> Scalar | None:
    """A scalar a with a*Gamma2 = Gamma1 and a*T2 = T1, or None.

    Candidates are ratios of small elements of the first lattice against the
    second lattice's basis; every candidate is verified exactly in both
    directions, so a returned value is always correct.  ``None`` means no
    candidate up to the search height worked.
    """
    if g1.field_d != g2.field_d:
        return None

    def relates(a: Scalar) -> bool:
        for g in g2.gamma_basis:
            if not g1.in_gamma(a * g):
                return False
        for g in g1.gamma_basis:
            if not g2.in_gamma(g / a):
                return False
        return g1.in_gamma(a * g2.s - g1.s)

    candidates = []
    seen = set()
    small = []
    for coords in iproduct(range(-height, height + 1), repeat=len(g1.t_basis)):
        x = ZERO
        for ccoord, basis_elt in zip(coords, g1.t_basis):
            x = x + ccoord * basis_elt
        if x:
            small.append(x)
    denominators = list(g2.gamma_basis) + [g2.s]
    for x in small:
        for den in denominators:
            a = x / den
            if a and a not in seen:
                seen.add(a)
                candidates.append(a)
    candidates.sort(key=lambda a: (abs(a), a.sign() < 0))
    for a in candidates:
        if relates(a):
            return a
    return None
