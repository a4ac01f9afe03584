"""Acceptance sweep: every guarantee the package makes, checked exactly.

Each test prints one ``criterion N: pass/FAIL`` line to the real stdout so a
full run doubles as a checklist even under output capture.  All comparisons
are exact; there are no tolerances anywhere.
"""

import contextlib
import json
import random
import time
from fractions import Fraction

import pytest

from loopsv import (
    CombinationCocycle,
    GAffine,
    GroupData,
    CharTwist,
    HomToLaurent,
    Inner,
    LaurentPoly,
    LoopAlgebra,
    LoopScale,
    LoopShift,
    MShear,
    MShearData,
    Operator,
    Scalar,
    Scale,
    Window,
    Word,
    ZFlip,
    antisymmetry_witnesses,
    automorphism_witnesses,
    canonical_decompose_degree0,
    central_extend,
    cocycle_witnesses,
    conjugated_shear,
    derivation_witnesses,
    factor,
    g_constraint_space,
    hom_quotient_witness,
    iso_test,
    jacobi_witnesses,
    make_D_b,
    make_D_g,
    make_D_phi,
    make_D_rho,
    make_ad,
    make_coboundary,
    make_phi_k,
    operators_agree,
    parse_element,
    reduce_cocycle,
    reduce_nonzero_degree,
    shear_constraint_space,
    tuple_word,
)

from support import (
    rand_canonical,
    rand_element,
    rand_functional,
    rand_ideal_element,
    rand_laurent,
    rand_scalar,
    rand_word,
    run_cli,
)

ZERO = Scalar(0)
ONE = Scalar(1)


@pytest.fixture
def criterion(capfd):
    """Verdict printer that sidesteps output capture for its one line."""

    @contextlib.contextmanager
    def run(num: int):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capfd.disabled():
                print(f"criterion {num:2d}: {'pass' if ok else 'FAIL'}", flush=True)

    return run


def test_criterion_01_lie_axioms(criterion, alg, window):
    with criterion(1):
        start = time.perf_counter()
        anti = antisymmetry_witnesses(alg, window)
        bad, count = jacobi_witnesses(alg, window)
        elapsed = time.perf_counter() - start
        assert anti == []
        assert bad == []
        assert count >= 100_000
        assert elapsed <= 60.0, f"axiom sweep took {elapsed:.1f}s"


def test_criterion_02_derivation_families(criterion, alg, group, window):
    with criterion(2):
        rng = random.Random(202)
        t_len = len(group.t_basis)
        for _ in range(20):
            families = [
                make_D_phi(
                    alg, HomToLaurent(tuple(rand_laurent(rng) for _ in range(t_len)))
                ),
                make_D_g(alg, GAffine(rand_laurent(rng), rand_laurent(rng))),
                make_D_b(alg, rand_laurent(rng, nonzero=True)),
                make_D_rho(alg, rand_laurent(rng, nonzero=True)),
                make_ad(alg, rand_ideal_element(alg, rng, window)),
            ]
            for D in families:
                assert derivation_witnesses(alg, D, window, limit=1) == []


def test_criterion_03_decomposition(criterion, alg, group, window):
    with criterion(3):
        rng = random.Random(303)
        # directness: build from a tuple, decompose, land on the same tuple
        for _ in range(50):
            cand = rand_canonical(alg, rng)
            got = canonical_decompose_degree0(alg, cand.to_operator(alg), window)
            assert got == cand

        # homogeneous inner parts come back exactly from their ad operator
        for _ in range(10):
            gamma, kinds = rng.choice([(ONE, "LM"), (Scalar.of(Fraction(1, 2)), "Y")])
            terms = {}
            for _ in range(rng.randrange(1, 3)):
                kind = rng.choice(kinds)
                key = alg.key(kind, gamma, rng.randrange(-3, 4))
                terms[key] = rand_scalar(rng, nonzero=True)
            z = alg.element(terms)
            assert reduce_nonzero_degree(alg, make_ad(alg, z), window) == z

        # diagonal maps multiple of the identity: the ad L(0,j) combination
        # reproduces the operator on every window key
        for _ in range(10):
            f = rand_laurent(rng, nonzero=True)
            phi = HomToLaurent(tuple(tau * f for tau in group.t_basis))
            coeffs = hom_quotient_witness(group, phi)
            assert coeffs == dict(f.items())
            D = Operator.zero(alg)
            for j, a in coeffs.items():
                D = D + make_ad(alg, alg.monomial(alg.key("L", 0, j), a))
            assert operators_agree(make_D_phi(alg, phi), D, alg.window_keys(window)) is None


def test_criterion_04_rank_two_witness(criterion, root2_alg, root2_group):
    with criterion(4):
        t = LaurentPoly({1: ONE})
        keys = root2_alg.window_keys(Window(2, 1))

        # the partial map phi(1) = t, phi(sqrt2) = 0 is not a multiple of the
        # identity, and no ad L(0,j) combination reproduces it on a window
        phi = HomToLaurent((Scalar.of(Fraction(1, 2)) * t, LaurentPoly.zero()))
        assert hom_quotient_witness(root2_group, phi) is None
        cand = make_ad(root2_alg, root2_alg.monomial(root2_alg.key("L", 0, 1)))
        assert operators_agree(make_D_phi(root2_alg, phi), cand, keys) is not None

        # the full diagonal map is, with coefficient 1 on degree 1
        phi = HomToLaurent((Scalar.of(Fraction(1, 2)) * t, Scalar(0, 1, 2) * t))
        coeffs = hom_quotient_witness(root2_group, phi)
        assert coeffs == {1: ONE}
        D = Operator.zero(root2_alg)
        for j, a in coeffs.items():
            D = D + make_ad(root2_alg, root2_alg.monomial(root2_alg.key("L", 0, j), a))
        assert operators_agree(make_D_phi(root2_alg, phi), D, keys) is None


def test_criterion_05_automorphism_words(criterion, alg, group, window):
    with criterion(5):
        rng = random.Random(505)
        keys = alg.window_keys(window)
        for _ in range(100):
            w = rand_word(alg, rng, window)
            assert len(w) <= 6
            assert automorphism_witnesses(alg, w, window, limit=1) == []
            round_trip = w.then(w.inverse())
            for key in keys:
                assert round_trip.apply_key(key) == alg.monomial(key)

        # shears compose additively
        for _ in range(10):
            c = MShearData(
                diagonals={rng.randrange(-2, 3): (rand_scalar(rng), rand_scalar(rng))}
            )
            e = MShearData(
                diagonals={rng.randrange(-2, 3): (rand_scalar(rng), rand_scalar(rng))}
            )
            two = Word(alg, [MShear(c), MShear(e)])
            one = Word(alg, [MShear(c + e)])
            assert operators_agree(two, one, keys) is None

        # conjugating a canonical shear through a parameter word stays
        # canonical, with the predicted diagonals
        for _ in range(20):
            params = (
                rng.choice([ONE, Scalar(-1)]),
                (rng.randrange(-2, 3),),
                (rand_scalar(rng, nonzero=True),),
                rand_scalar(rng, nonzero=True),
                rng.choice([1, -1]),
                rand_scalar(rng, nonzero=True),
            )
            e = MShearData(
                diagonals={rng.randrange(-2, 3): (rand_scalar(rng), rand_scalar(rng))}
            )
            P = tuple_word(alg, *params)
            conj = Word(alg, P.gens + (MShear(e),) + P.inverse().gens)
            direct = Word(alg, [MShear(conjugated_shear(group, *params, e))])
            assert operators_agree(conj, direct, keys) is None


def test_criterion_06_factorization(criterion, alg, window):
    with criterion(6):
        rng = random.Random(606)
        keys = alg.window_keys(window)
        seen_kinds = set()
        words = [rand_word(alg, rng, window) for _ in range(49)]
        # one handcrafted word guarantees every generator kind is exercised
        words.append(
            Word(
                alg,
                [
                    MShear(MShearData(diagonals={1: (ONE, ZERO)})),
                    Inner(alg.monomial(alg.key("Y", Fraction(1, 2), 0), Scalar(2))),
                    LoopScale(Scalar(2)),
                    ZFlip(),
                    CharTwist((Scalar(3),), Scalar(2)),
                    LoopShift((1,)),
                    Scale(Scalar(-1)),
                ],
            )
        )
        for w in words:
            seen_kinds.update(type(g).__name__ for g in w.gens)
            got = factor(alg, w, window)
            rebuilt = got.to_word(alg)
            assert operators_agree(rebuilt, w, keys) is None
            inner_elements = [g.x for g in w.gens if isinstance(g, Inner)]
            inner_elements.extend(got.inner)
            for x in inner_elements:
                ad = make_ad(alg, x)
                for key in keys:
                    assert ad(ad(ad(alg.monomial(key)))) == alg.zero()
        assert seen_kinds >= {
            "Scale",
            "LoopShift",
            "CharTwist",
            "ZFlip",
            "LoopScale",
            "MShear",
            "Inner",
        }


def test_criterion_07_iso_test(criterion, group, root2_group):
    with criterion(7):
        other = GroupData.from_config({"field": "Q", "gamma_generators": ["2"], "s": "1"})
        a = iso_test(group, other)
        assert a == Scalar.of(Fraction(1, 2))
        for g in other.gamma_basis:
            assert group.in_gamma(a * g)
        for g in group.gamma_basis:
            assert other.in_gamma(g / a)
        assert group.in_gamma(a * other.s - group.s)
        assert other.in_gamma(group.s / a - other.s) or other.in_gamma(group.s / a + other.s)

        assert iso_test(group, root2_group) is None


def test_criterion_08_cocycle_reduction(criterion, alg, window):
    with criterion(8):
        for k in range(-2, 3):
            bad, _ = cocycle_witnesses(alg, make_phi_k(alg, k), window, limit=1)
            assert bad == []

        rng = random.Random(808)
        for n in range(50):
            classes = {}
            for k in range(-3, 4):
                if rng.random() < 0.4:
                    classes[k] = rand_scalar(rng, nonzero=True)
            f = rand_functional(alg, rng, window)
            terms = [(c, make_phi_k(alg, k)) for k, c in classes.items()]
            terms.append((ONE, make_coboundary(alg, f)))
            phi = CombinationCocycle(alg, terms)
            got = reduce_cocycle(alg, phi, window)
            assert got.classes == classes
            assert got.residual_zero()
            for key, val in f.items():
                assert got.functional.value(key) == val
            if n < 5:
                # extraction does not depend on the pivot choice
                for pivot in (2, 3):
                    alt = reduce_cocycle(alg, phi, window, pivot=pivot)
                    assert alt.classes == classes
                    assert alt.diagnostics == ()


def test_criterion_09_central_extension(criterion, alg, window):
    with criterion(9):
        ext = central_extend(alg)
        got = ext.bracket(
            alg.monomial(alg.key("L", 2, 1)), alg.monomial(alg.key("L", -2, -1))
        )
        assert got.element == alg.monomial(alg.key("L", 0, 0), Scalar(-4))
        assert got.central == {0: Scalar.of(Fraction(1, 2))}
        assert str(got) == "-4*L(0,0) + 1/2*C(0)"

        keys = alg.window_keys(window)
        mono = {key: alg.monomial(key) for key in keys}
        n = len(keys)
        for i in range(n):
            x = mono[keys[i]]
            for j in range(i, n):
                y = mono[keys[j]]
                for k in range(j, n):
                    defect = ext.jacobi_defect(x, y, mono[keys[k]])
                    assert defect.is_zero(), (keys[i], keys[j], keys[k])


def test_criterion_10_constraint_solvers(criterion, group, window):
    with criterion(10):
        basis, gammas = g_constraint_space(group, window)
        assert len(basis) == 2
        for values in basis:
            v = values.get(ZERO, ZERO)
            pivot = next(g for g in gammas if g)
            u = (values.get(pivot, ZERO) - v) / pivot
            for g in gammas:
                assert values.get(g, ZERO) == u * g + v

        basis, idx_keys = shear_constraint_space(group, window)
        assert len(basis) == 2
        gammas = sorted({g for g, _ in idx_keys}, key=lambda x: (abs(x), x.sign()))
        loops = sorted({i for _, i in idx_keys})
        for values in basis:
            per_gamma = {}
            for g in gammas:
                col = {values.get((g, i), ZERO) for i in loops}
                assert len(col) == 1
                per_gamma[g] = col.pop()
            v = per_gamma[ZERO]
            pivot = next(g for g in gammas if g)
            u = (per_gamma[pivot] - v) / pivot
            for g in gammas:
                assert per_gamma[g] == u * g + v


def test_criterion_11_cli(criterion, alg, window, tmp_path):
    with criterion(11):
        rng = random.Random(1111)
        for _ in range(200):
            x = rand_element(alg, rng, window, terms=rng.randrange(1, 4))
            assert parse_element(alg, str(x)) == x

        proc = run_cli("bracket", "L(1,0)", "L(2,3)")
        assert proc.returncode == 0 and proc.stdout == "L(3,3)\n"

        proc = run_cli("check", "jacobi", "--gamma-height", "3", "--loop-bound", "2")
        assert proc.returncode == 0 and proc.stdout == "pass\n"

        doc = tmp_path / "cocycle.json"
        doc.write_text(json.dumps({"classes": {"0": "3"}}))
        proc = run_cli("cocycle-class", str(doc), "--gamma-height", "2", "--loop-bound", "2")
        assert proc.returncode == 0
        assert proc.stdout == '{"classes":{"0":"3"},"residual":"0"}\n'
