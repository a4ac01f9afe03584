"""Deterministic random factories and the CLI launcher shared across the test modules.

Every factory takes an explicit ``random.Random`` so a test controls its seed;
draws are kept small so windows stay meaningful and failures stay readable.
"""

import os
import subprocess
import sys
from fractions import Fraction
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
