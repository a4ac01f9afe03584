"""Index-group data: the base group, its shifted coset, and the joint lattice.

The bracket indices live in a finitely generated additive subgroup Gamma of
the scalar field together with a shift s satisfying s not in Gamma and
2s in Gamma.  The union T = Gamma | (s + Gamma) is again a group, with Gamma
of index 2 in it; membership in any of the three sets is back-substitution
against a canonical (Hermite) lattice basis stored once per group.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import GroupConfigError, ParseError
from .lattice import coordinates, lattice_basis
from .scalars import ZERO, Scalar, is_radicand, parse_scalar

__all__ = ["GroupData"]


def _check_field(field_d: int) -> None:
    if field_d != 0 and not is_radicand(field_d):
        raise GroupConfigError("the field radicand must be squarefree, >= 2 and below 10^12")


class GroupData:
    """Field choice plus generators of Gamma and the shift s, with derived bases."""

    def __init__(self, gamma_generators, s, field_d: int = 0):
        _check_field(field_d)
        gens = tuple(Scalar.of(g) for g in gamma_generators)
        if not gens:
            raise GroupConfigError("Gamma needs at least one generator")
        s = Scalar.of(s)
        for x in gens + (s,):
            if x.d not in (0, field_d):
                raise GroupConfigError(f"scalar {x} does not live in the configured field")
        if any(not g for g in gens):
            raise GroupConfigError("Gamma generators must be nonzero")
        self.field_d = field_d
        self.gamma_generators = gens
        self.s = s
        self._dim = 1 if field_d == 0 else 2
        self._gamma_rows = self._lattice(gens)
        self._t_rows = self._lattice(gens + (s,))
        self.gamma_basis = tuple(self._unvec(row) for row in self._gamma_rows)
        self.t_basis = tuple(self._unvec(row) for row in self._t_rows)
        self.rank = len(self.t_basis)
        self._coord_cache: dict[tuple[str, Scalar], tuple[int, ...] | None] = {}
        if self.in_gamma(s):
            raise GroupConfigError(f"the shift s = {s} must lie outside Gamma")
        if not self.in_gamma(s + s):
            raise GroupConfigError(f"2s = {s + s} must lie in Gamma")

    # -- coordinates ----------------------------------------------------------

    def _vec(self, x: Scalar) -> tuple[list[int], int]:
        """x as an integer vector over (1, sqrt d) and its denominator."""
        p, r, q, _ = x.parts()
        return ([p] if self._dim == 1 else [p, r]), q

    def _lattice(self, xs) -> list:
        rows, dens = zip(*map(self._vec, xs))
        return lattice_basis(rows, dens)

    def _unvec(self, v) -> Scalar:
        if self._dim == 1:
            return Scalar(v[0])
        return Scalar(v[0], v[1], self.field_d if v[1] else 0)

    def _coords(self, basis_name: str, rows, x: Scalar) -> tuple[int, ...] | None:
        key = (basis_name, x)
        try:
            return self._coord_cache[key]
        except KeyError:
            pass
        if x.d not in (0, self.field_d):
            raise GroupConfigError(f"scalar {x} does not live in the configured field")
        out = coordinates(rows, *self._vec(x))
        self._coord_cache[key] = out
        return out

    def gamma_coords(self, x: Scalar) -> tuple[int, ...] | None:
        return self._coords("g", self._gamma_rows, x)

    def t_coords(self, x: Scalar) -> tuple[int, ...] | None:
        return self._coords("t", self._t_rows, x)

    # -- membership -------------------------------------------------------------

    def in_gamma(self, x) -> bool:
        return self.gamma_coords(Scalar.of(x)) is not None

    def in_gamma1(self, x) -> bool:
        return self.gamma_coords(Scalar.of(x) - self.s) is not None

    def in_t(self, x) -> bool:
        return self.t_coords(Scalar.of(x)) is not None

    def carries(self, other: "GroupData", a) -> bool:
        """True when a*Gamma_other = Gamma and a*s_other - s lies in Gamma.

        Given a*Gamma_other = Gamma, a*T_other = Gamma | (a*s_other + Gamma),
        which is T exactly when a*s_other - s lies in Gamma.
        """
        a = Scalar.of(a)
        if not a:
            return False
        return (
            all(self.in_gamma(a * g) for g in other.gamma_basis)
            and all(other.in_gamma(g / a) for g in self.gamma_basis)
            and self.in_gamma(a * other.s - self.s)
        )

    def validate_scaling(self, a) -> bool:
        """True when multiplication by a maps Gamma onto Gamma and T onto T."""
        return self.carries(self, a)

    def t_points(self, bound: int):
        """T-points whose T-basis coordinates lie in [-bound, bound], in product order."""
        for coords in product(range(-bound, bound + 1), repeat=self.rank):
            x = ZERO
            for c, b in zip(coords, self.t_basis):
                x = x + c * b
            yield x

    def window_gammas(self, window):
        """Group indices inside the window, split as (Gamma part, coset part).

        Coordinates over a basis are unique, so no point repeats, and a T-point
        outside Gamma lies in s + Gamma.
        """
        in_gamma, in_coset = [], []
        for gamma in self.t_points(window.coordinate_bound()):
            (in_gamma if self.in_gamma(gamma) else in_coset).append(gamma)
        in_gamma.sort()
        in_coset.sort()
        return in_gamma, in_coset

    # -- construction from a config document ------------------------------------

    @classmethod
    def from_config(cls, doc: dict) -> "GroupData":
        if not isinstance(doc, dict):
            raise GroupConfigError("config must be a JSON object")
        field = doc.get("field", "Q")
        if field == "Q":
            field_d = 0
        elif isinstance(field, dict) and set(field) == {"Q_sqrt"}:
            raw = field["Q_sqrt"]
            if not isinstance(raw, int):
                raise GroupConfigError("Q_sqrt radicand must be an integer")
            field_d = raw
            _check_field(field_d)  # before parse_scalar builds scalars over it
        else:
            raise GroupConfigError(f"unknown field description {field!r}")
        gens_raw = doc.get("gamma_generators")
        if not isinstance(gens_raw, list) or not gens_raw or not all(isinstance(g, str) for g in gens_raw):
            raise GroupConfigError("gamma_generators must be a nonempty list of scalar strings")
        s_raw = doc.get("s")
        if not isinstance(s_raw, str):
            raise GroupConfigError("s must be a scalar string")
        try:
            gens = [parse_scalar(g, field_d) for g in gens_raw]
            s = parse_scalar(s_raw, field_d)
        except ParseError as exc:
            raise GroupConfigError(f"bad scalar in config: {exc}") from exc
        return cls(gens, s, field_d)

    @classmethod
    def default(cls) -> "GroupData":
        """Gamma = Z with s = 1/2, the base example."""
        return cls([Scalar(1)], Scalar(Fraction(1, 2)))

    def parse_scalar(self, text: str) -> Scalar:
        return parse_scalar(text, self.field_d)

    def describe(self) -> dict:
        field = "Q" if self.field_d == 0 else {"Q_sqrt": self.field_d}
        return {
            "field": field,
            "gamma_generators": [str(g) for g in self.gamma_generators],
            "s": str(self.s),
        }

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gamma_generators)
        return f"GroupData(<{gens}>, s={self.s}, d={self.field_d})"
