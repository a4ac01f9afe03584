"""An independent oracle for the bracket: L, Y and M as differential operators.

Adapted from Henkel's Schrodinger algebra (J. Stat. Phys. 75, 1994), with the
signs of L and M flipped and the mass set to 1.  The operators act on formal
monomials x^g r^m t^n, with g an exact scalar:

    L(a,i) = t^i (x^(a+1) d/dx + (a+1)/2 x^a r d/dr + (a+1)a/4 x^(a-1) r^2)
    Y(b,j) = -t^j (x^(b+1/2) d/dr + (b+1/2) x^(b-1/2) r)
    M(a,i) = t^i x^a, a multiplication operator.

The realization is associative, so the commutators of these operators form a
Lie algebra, written here without the bracket formula of ``algebra.py``.  On
generic test monomials each key's operator has its own image, so a wrong
output key, kind or coefficient in ``structure`` shows as a mismatch.
"""

from functools import lru_cache

import pytest

from loopsv import HALF, ONE, ZERO, GroupData, LoopAlgebra, Scalar, Window, parse_scalar

from support import FAULT_WINDOWS, WrongLY

# group, window and the exponents g of the test monomials (10/21 = 1/7 + 1/3)
CASES = {
    "Q": (GroupData.default(), Window(2, 1), ("1/7", "10/21")),
    "Q(sqrt2)": (FAULT_WINDOWS["Q(sqrt2)"][0](), Window(1, 0), ("1/7+1/3*sqrt2",)),
    "2Z": (GroupData.from_config({"gamma_generators": ["2"], "s": "1"}), Window(1, 1), ("1/7", "10/21")),
}


_ids: dict = {}
_monos: list = []


def mono_id(mono) -> int:
    """An integer name for the monomial (g, m, n); polynomials are keyed by it, so scalars are hashed once."""
    i = _ids.get(mono)
    if i is None:
        i = _ids[mono] = len(_monos)
        _monos.append(mono)
    return i


@lru_cache(maxsize=None)
def act(key, i: int) -> dict:
    """The key's operator on the monomial named i, as {monomial id: coefficient}."""
    kind, a, loop = key.kind, key.gamma, key.loop
    g, m, n = _monos[i]
    n += loop
    if kind == "M":
        return {mono_id((g + a, m, n)): ONE}
    if kind == "L":
        terms = (((g + a, m, n), g + HALF * (a + ONE) * m), ((g + a - ONE, m + 2, n), (a + ONE) * a / 4))
    else:
        terms = (((g + a + HALF, m - 1, n), Scalar(-m)), ((g + a - HALF, m + 1, n), -(a + HALF)))
    return {mono_id(at): c for at, c in terms if c}


def apply(key, vec: dict, scale=ONE, out=None) -> dict:
    """out + scale * (the key's operator on the polynomial vec), zeros dropped."""
    out = {} if out is None else out
    for i, c in vec.items():
        c = scale * c
        for at, d in act(key, i).items():
            prev = out.get(at)
            out[at] = c * d if prev is None else prev + c * d
    return {at: c for at, c in out.items() if c}


def monomials(group, gammas) -> list:
    """The test monomials x^g r^m for each g and m = 0, 1, 2, as one-term polynomials."""
    return [{mono_id((parse_scalar(g, group.field_d), m, 0)): ONE} for g in gammas for m in range(3)]


def mismatches(alg, window, gammas) -> list:
    """Ordered window pairs whose commutator is not ``structure``'s key times its coefficient."""
    keys = alg.window_keys(window)
    monos = monomials(alg.group, gammas)
    images = {k: [apply(k, f) for f in monos] for k in keys}
    bad = []
    for k1 in keys:
        for k2 in keys:
            t = alg.structure(k1, k2)
            for f, img1, img2 in zip(monos, images[k1], images[k2]):
                comm = apply(k1, img2, ONE, apply(k2, img1, -ONE))
                want = {} if t is None else apply(t[0], f, t[1])
                if comm != want:
                    bad.append((k1, k2))
                    break
    return bad


@pytest.mark.parametrize("name", sorted(CASES))
def test_structure_matches_the_differential_operators(name):
    group, window, gammas = CASES[name]
    assert mismatches(LoopAlgebra(group), window, gammas) == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_distinct_keys_have_distinct_images(name):
    group, window, gammas = CASES[name]
    alg = LoopAlgebra(group)
    monos = monomials(group, gammas)
    images = [tuple(frozenset(apply(k, f).items()) for f in monos) for k in alg.window_keys(window)]
    assert len(set(images)) == len(images)


def test_oracle_finds_a_wrong_ly_coefficient():
    group, _, gammas = CASES["Q"]
    bad = mismatches(WrongLY(group), Window(1, 1), gammas)
    assert bad and all({k1.kind, k2.kind} == {"L", "Y"} for k1, k2 in bad)
