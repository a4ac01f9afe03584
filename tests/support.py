"""Deterministic random factories, the CLI launcher and a reference scalar shared across the test modules.

Every factory takes an explicit ``random.Random`` so a test controls its seed;
draws are kept small so windows stay meaningful and failures stay readable.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import total_ordering
from pathlib import Path

import loopsv
from loopsv import (
    CharTwist,
    Element,
    GAffine,
    GroupData,
    CanonicalDerivation,
    HomToLaurent,
    Inner,
    LaurentPoly,
    LinearFunctional,
    LoopAlgebra,
    LoopScale,
    LoopShift,
    MShear,
    MShearData,
    OutputError,
    Scalar,
    Scale,
    Window,
    Word,
    ZFlip,
)

SMALL_RATIONALS = [
    Scalar(1),
    Scalar(-1),
    Scalar(2),
    Scalar(-2),
    Scalar(3),
    Scalar(Fraction(1, 2)),
    Scalar(Fraction(-1, 2)),
    Scalar(Fraction(3, 2)),
    Scalar(Fraction(2, 3)),
    Scalar(Fraction(-5, 3)),
]


def rand_scalar(rng, nonzero=False) -> Scalar:
    if not nonzero and rng.random() < 0.15:
        return Scalar(0)
    return rng.choice(SMALL_RATIONALS)


def rand_laurent(rng, span=2, nonzero=False) -> LaurentPoly:
    coeffs = {}
    for exp in range(-span, span + 1):
        if rng.random() < 0.35:
            coeffs[exp] = rand_scalar(rng, nonzero=True)
    if nonzero and not coeffs:
        coeffs[rng.randrange(-span, span + 1)] = rand_scalar(rng, nonzero=True)
    return LaurentPoly(coeffs)


def window_keys_of_kind(alg: LoopAlgebra, window: Window, kinds: str) -> list:
    return [k for k in alg.window_keys(window) if k.kind in kinds]


def rand_element(alg, rng, window, kinds="LMY", terms=2) -> Element:
    pool = window_keys_of_kind(alg, window, kinds)
    out = alg.zero()
    for key in rng.sample(pool, min(terms, len(pool))):
        out = out + alg.monomial(key, rand_scalar(rng, nonzero=True))
    return out


def rand_ideal_element(alg, rng, window, terms=2) -> Element:
    return rand_element(alg, rng, window, kinds="MY", terms=terms)


def rand_hom(group, rng, span=2) -> HomToLaurent:
    return HomToLaurent(tuple(rand_laurent(rng, span) for _ in group.t_basis))


def rand_canonical(alg, rng) -> CanonicalDerivation:
    group = alg.group
    return CanonicalDerivation(
        rho=rand_laurent(rng, 1),
        f=rand_hom(group, rng, 1),
        g=GAffine(rand_laurent(rng, 1), rand_laurent(rng, 1)),
        b=rand_laurent(rng, 1),
    )


def rand_shear_data(rng) -> MShearData:
    diagonals = {}
    for d in rng.sample(range(-2, 3), rng.randrange(1, 3)):
        diagonals[d] = (rand_scalar(rng), rand_scalar(rng))
    return MShearData(diagonals=diagonals)


def rand_generator(alg, rng, window):
    group = alg.group
    kind = rng.randrange(7)
    if kind == 0:
        return Scale(rng.choice([Scalar(1), Scalar(-1)]))
    if kind == 1:
        return LoopShift(tuple(rng.randrange(-2, 3) for _ in group.t_basis))
    if kind == 2:
        chi = tuple(rand_scalar(rng, nonzero=True) for _ in group.t_basis)
        return CharTwist(chi, rand_scalar(rng, nonzero=True))
    if kind == 3:
        return ZFlip(rng.choice([1, -1]))
    if kind == 4:
        return LoopScale(rand_scalar(rng, nonzero=True))
    if kind == 5:
        return MShear(rand_shear_data(rng))
    inner = rand_ideal_element(alg, rng, Window(2, 2), terms=rng.randrange(1, 3))
    if not inner:
        inner = alg.monomial(alg.key("M", 1, 0))
    return Inner(inner)


def rand_word(alg, rng, window, length=None) -> Word:
    if length is None:
        length = rng.randrange(1, 7)
    return Word(alg, [rand_generator(alg, rng, window) for _ in range(length)])


def rand_functional(alg, rng, window, terms=3) -> LinearFunctional:
    pool = alg.window_keys(window)
    values = {}
    for key in rng.sample(pool, min(terms, len(pool))):
        values[key] = rand_scalar(rng, nonzero=True)
    return LinearFunctional(values)


# -- algebras with an injected bracket fault, and the windows the sweeps are checked on --


class WrongLY(LoopAlgebra):
    """The [L, Y] coefficient is off by the L index, which may be irrational."""

    def _structure(self, k1, k2):
        t = super()._structure(k1, k2)
        if t is not None and k1.kind + k2.kind == "LY":
            return t[0], t[1] + k1.gamma
        return t


class LoopDependentLL(LoopAlgebra):
    """The [L, L] coefficient is scaled by 1 + (loop index of the left key)."""

    def _structure(self, k1, k2):
        t = super()._structure(k1, k2)
        if t is not None and k1.kind + k2.kind == "LL":
            return t[0], t[1] * (1 + k1.loop)
        return t


class DividedLL(LoopAlgebra):
    """The [L, L] coefficient is divided by 1 + (loop index of the left key)^2.

    Brackets of keys past the window's loop bound then carry denominators
    that no bracket of two window keys has.
    """

    def _structure(self, k1, k2):
        t = super()._structure(k1, k2)
        if t is not None and k1.kind + k2.kind == "LL":
            return t[0], t[1] / (1 + k1.loop * k1.loop)
        return t


class RescaledBasis(LoopAlgebra):
    """Every key with a nonzero index scaled by sqrt2.

    This is still a Lie algebra, but its Jacobi identity cancels only
    because sqrt2 * sqrt2 = 2.
    """

    def _structure(self, k1, k2):
        t = super()._structure(k1, k2)
        if t is None:
            return None

        def scale(key):
            return Scalar(0, 1, 2) if key.gamma else Scalar(1)

        return t[0], t[1] * scale(k1) * scale(k2) / scale(t[0])


class LoopDependentShear:
    """A generator that gives L(a,i) the M coefficients named for (a, i) only.

    This is a shear table read entry by entry, the way no automorphism's
    shear is: its line depends on the loop index.  ``MShearData`` refuses
    such a table, so a test builds a word ``factor`` must refuse from this.
    """

    def __init__(self, table: dict):
        self.table = {(Scalar.of(a), int(i), int(k)): Scalar.of(v) for (a, i, k), v in table.items()}

    def validate(self, alg):
        pass

    def apply_key(self, alg, key):
        out = alg.monomial(key)
        if key.kind == "L":
            for (a, i, k), value in self.table.items():
                if (a, i) == (key.gamma, key.loop):
                    out = out + alg.monomial(alg.key("M", a, k), value)
        return out

    def inverse(self):
        return LoopDependentShear({at: -value for at, value in self.table.items()})


FAULT_WINDOWS = {
    "Q": (lambda: GroupData.default(), Window(1, 1)),
    "Q(sqrt2)": (
        lambda: GroupData.from_config(
            {"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "sqrt2"], "s": "1/2"}
        ),
        Window(1, 0),
    ),
}


# -- command line -------------------------------------------------------------------

def cli_env(env_extra=None) -> dict:
    """The environment ``run_cli`` gives its child: no ``LSV_CONFIG``, and the
    directory holding the imported ``loopsv`` (``src`` in a checkout) first on
    ``PYTHONPATH`` as an absolute path."""
    env = {k: v for k, v in os.environ.items() if k != "LSV_CONFIG"}
    parent = str(Path(loopsv.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (parent, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*argv, env_extra=None) -> subprocess.CompletedProcess:
    """Run the ``lsv`` command line on the package under test.

    Launches ``python -m loopsv``, never an ``lsv`` found on ``PATH``, which
    exists only after an install and may belong to another checkout.
    """
    return subprocess.run(
        [sys.executable, "-m", "loopsv", *argv],
        capture_output=True,
        text=True,
        env=cli_env(env_extra),
        timeout=300,
    )


# -- reference scalar ---------------------------------------------------------


def _ref_fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


@total_ordering
class RefScalar:
    """The two-Fraction ``RefScalar`` this package had before its integer form:
    ``a + b*sqrt(d)`` with Fraction parts ``a`` and ``b``, kept as a parity
    reference for ``tests/test_scalars.py``."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=0):
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if b == 0:
            d = 0
        elif d < 2:
            raise ValueError("a nonzero square-root part needs a radicand d >= 2")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", int(d))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def of(value) -> "RefScalar":
        if isinstance(value, RefScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return RefScalar(value)
        raise TypeError(f"cannot interpret {value!r} as a RefScalar")

    # -- field structure ----------------------------------------------------

    def _join(self, other: "RefScalar") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise ValueError(f"mixed radicands sqrt{self.d} and sqrt{other.d}")

    def __add__(self, other):
        if isinstance(other, RefScalar):
            if not (self.d or other.d):
                return _ref_rational(self.a + other.a)
        elif isinstance(other, (int, Fraction)):
            other = RefScalar(other)
        else:
            return NotImplemented
        return RefScalar(self.a + other.a, self.b + other.b, self._join(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RefScalar):
            if not (self.d or other.d):
                return _ref_rational(self.a - other.a)
        elif isinstance(other, (int, Fraction)):
            other = RefScalar(other)
        else:
            return NotImplemented
        return RefScalar(self.a - other.a, self.b - other.b, self._join(other))

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefScalar(other) - self
        return NotImplemented

    def __neg__(self):
        return RefScalar(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, RefScalar):
            if not (self.d or other.d):
                return _ref_rational(self.a * other.a)
        elif isinstance(other, (int, Fraction)):
            other = RefScalar(other)
        else:
            return NotImplemented
        d = self._join(other)
        return RefScalar(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "RefScalar":
        if not self:
            raise ZeroDivisionError("scalar division by zero")
        norm = self.a * self.a - self.b * self.b * self.d
        # norm == 0 would force d to be a rational square, which is excluded
        return RefScalar(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("scalar division by zero")
            return RefScalar(self.a / other, self.b / other, self.d)
        if not isinstance(other, RefScalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefScalar(other) * self.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = RefScalar(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefScalar(other)
        elif not isinstance(other, RefScalar):
            return NotImplemented
        return self.d == other.d and self.a == other.a and self.b == other.b

    # d == 0 exactly when b == 0, so the radicand answers "is b zero?" cheaply

    def __hash__(self):
        if not self.d:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.d) or self.a != 0

    def sign(self) -> int:
        """Sign of the real number this scalar denotes (sqrt d > 0)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        sa = 1 if self.a > 0 else -1
        if sa == (1 if self.b > 0 else -1):
            return sa
        gap = self.a * self.a - self.b * self.b * self.d
        # gap == 0 cannot happen for squarefree d >= 2
        return sa if gap > 0 else -sa

    def __lt__(self, other):
        other = RefScalar.of(other) if isinstance(other, (int, Fraction)) else other
        if not isinstance(other, RefScalar):
            return NotImplemented
        return (self - other).sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- misc ---------------------------------------------------------------

    def sqrt(self, field_d: int = 0) -> "RefScalar | None":
        """A square root inside Q(sqrt field_d), or None if there is none.

        The returned root is the nonnegative one, which makes the choice
        deterministic.  ``field_d == 0`` restricts the search to Q.
        """
        if self.sign() < 0:
            return None
        if not self:
            return RefScalar(0)
        if self.b == 0:
            r = _ref_fraction_sqrt(self.a)
            if r is not None:
                return RefScalar(r)
            if field_d >= 2:
                r = _ref_fraction_sqrt(self.a / field_d)
                if r is not None:
                    return RefScalar(0, r, field_d)
            return None
        # (x + y sqrt d)^2 = a + b sqrt d with b != 0 forces x, y != 0 and
        # x^2 = (a +- sqrt(a^2 - d b^2)) / 2, y = b / (2 x).
        if field_d != self.d:
            return None
        gap = _ref_fraction_sqrt(self.a * self.a - self.b * self.b * self.d)
        if gap is None:
            return None
        for root in (gap, -gap):
            x2 = (self.a + root) / 2
            x = _ref_fraction_sqrt(x2)
            if x is not None and x != 0:
                y = self.b / (2 * x)
                cand = RefScalar(x, y, self.d)
                if cand.sign() < 0:
                    cand = -cand
                if cand * cand == self:
                    return cand
        return None

    def __str__(self):
        try:
            if self.b == 0:
                return str(self.a)
            root = f"sqrt{self.d}"
            mag = abs(self.b)
            part = root if mag == 1 else f"{mag}*{root}"
            if self.a == 0:
                return part if self.b > 0 else f"-{part}"
            op = "+" if self.b > 0 else "-"
            return f"{self.a}{op}{part}"
        except ValueError:  # beyond Python's limit on digits in an int string
            raise OutputError("a coefficient of the result has too many digits to print") from None

    def __repr__(self):
        return f"RefScalar({str(self)!r})"


_REF_FRACTION_ZERO = Fraction(0)


def _ref_rational(a: Fraction) -> RefScalar:
    """``RefScalar(a)`` for a Fraction, without re-checking the arguments."""
    out = object.__new__(RefScalar)
    object.__setattr__(out, "a", a)
    object.__setattr__(out, "b", _REF_FRACTION_ZERO)
    object.__setattr__(out, "d", 0)
    return out
