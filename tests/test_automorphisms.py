"""Generator actions, words, factorization, and the lattice-scale test."""

import random
from fractions import Fraction

import pytest

from loopsv import (
    CharTwist,
    FactorError,
    GroupData,
    Inner,
    LoopScale,
    LoopShift,
    MShear,
    MShearData,
    Scalar,
    Scale,
    ShapeError,
    Window,
    Word,
    ZFlip,
    automorphism_defect,
    automorphism_witnesses,
    compose,
    conjugated_shear,
    factor,
    fold_tuple_params,
    iso_test,
    make_ad,
    operators_agree,
    tuple_word,
)

from support import rand_element, rand_ideal_element, rand_word

ONE = Scalar(1)
HALF = Scalar.of(Fraction(1, 2))


@pytest.fixture
def m(alg):
    def build(kind, gamma, loop, coeff=1):
        return alg.monomial(alg.key(kind, gamma, loop), Scalar.of(coeff))

    return build


def assert_identity_on(alg, word, window):
    for key in alg.window_keys(window):
        assert word.apply_key(key) == alg.monomial(key)


class TestGenerators:
    def test_scale(self, alg, m):
        w = Word(alg, [Scale(Scalar(-1))])
        assert w(m("L", 2, 3)) == m("L", -2, 3, -1)

    def test_scale_rejects_non_unit(self, alg):
        with pytest.raises(ShapeError):
            Word(alg, [Scale(Scalar(2))])

    def test_loop_shift(self, alg, m):
        w = Word(alg, [LoopShift((1,))])
        assert w(m("L", 1, 2)) == m("L", 1, 4)
        assert w(m("Y", Fraction(1, 2), 0)) == m("Y", Fraction(1, 2), 1)

    def test_char_twist(self, alg, m):
        w = Word(alg, [CharTwist((Scalar(2),), Scalar(3))])
        assert w(m("Y", Fraction(1, 2), 0)) == m("Y", Fraction(1, 2), 0, 6)
        assert w(m("M", 1, 0)) == m("M", 1, 0, 36)
        assert w(m("L", 1, 0)) == m("L", 1, 0, 4)

    def test_char_twist_rejects_zero(self, alg):
        with pytest.raises(ShapeError):
            Word(alg, [CharTwist((Scalar(0),), Scalar(1))])

    def test_z_flip(self, alg, m):
        w = Word(alg, [ZFlip()])
        assert w(m("M", 1, 3)) == m("M", 1, -3)
        assert w(m("L", 0, 0)) == m("L", 0, 0)

    def test_loop_scale(self, alg, m):
        w = Word(alg, [LoopScale(Scalar(3))])
        assert w(m("Y", Fraction(1, 2), -2)) == m("Y", Fraction(1, 2), -2, Fraction(1, 9))

    def test_m_shear(self, alg, m):
        w = Word(alg, [MShear(MShearData(diagonals={1: (0, 1)}))])
        assert w(m("L", 2, 0)) == m("L", 2, 0) + m("M", 2, 1)
        assert w(m("M", 2, 0)) == m("M", 2, 0)
        assert w(m("Y", Fraction(1, 2), 0)) == m("Y", Fraction(1, 2), 0)

    def test_inner(self, alg, m):
        w = Word(alg, [Inner(m("M", 1, 0))])
        assert w(m("L", 2, 5)) == m("L", 2, 5) - m("M", 3, 5)

    def test_inner_rejects_L_component(self, alg, m):
        with pytest.raises(ShapeError):
            Word(alg, [Inner(m("L", 1, 0))])

    def test_each_generator_respects_the_bracket(self, alg, small_window):
        gens = [
            Scale(Scalar(-1)),
            LoopShift((2,)),
            CharTwist((Scalar.of(Fraction(3, 2)),), Scalar(2)),
            ZFlip(),
            LoopScale(Scalar.of(Fraction(-1, 3))),
            MShear(MShearData(diagonals={-1: (Fraction(1, 2), 0), 2: (1, 3)})),
            Inner(alg.monomial(alg.key("Y", Fraction(1, 2), 1), Scalar(2))),
        ]
        for gen in gens:
            assert automorphism_witnesses(alg, Word(alg, [gen]), small_window, limit=1) == []


class TestWords:
    def test_random_words_are_automorphisms(self, alg, small_window):
        rng = random.Random(11)
        for _ in range(10):
            w = rand_word(alg, rng, small_window)
            x = rand_element(alg, rng, small_window)
            y = rand_element(alg, rng, small_window)
            assert automorphism_defect(alg, w, x, y) == alg.zero()
            assert_identity_on(alg, w.then(w.inverse()), small_window)
            assert_identity_on(alg, w.inverse().then(w), small_window)

    def test_compose_order(self, alg, m):
        shear = Word(alg, [MShear(MShearData(diagonals={1: (0, 1)}))])
        scale = Word(alg, [LoopScale(Scalar(2))])
        both = compose(scale, shear)  # scale after shear
        assert both(m("L", 0, 0)) == m("L", 0, 0) + m("M", 0, 1, 2)

    def test_shear_words_add(self, alg, small_window):
        c = MShearData(diagonals={0: (1, 0), 1: (0, 2)})
        e = MShearData(diagonals={1: (Fraction(1, 2), -1), -2: (0, 3)})
        two_step = Word(alg, [MShear(c), MShear(e)])
        one_step = Word(alg, [MShear(c + e)])
        assert operators_agree(two_step, one_step, alg.window_keys(small_window)) is None

    def test_tuple_fold_matches_composition(self, alg, group, small_window):
        rng = random.Random(31)
        for _ in range(8):
            def draw():
                return (
                    rng.choice([Scalar(1), Scalar(-1)]),
                    (rng.randrange(-2, 3),),
                    (Scalar.of(rng.choice([1, 2, Fraction(1, 2), Fraction(-3, 2)])),),
                    Scalar.of(rng.choice([1, -1, 2, Fraction(1, 3)])),
                    rng.choice([1, -1]),
                    Scalar.of(rng.choice([1, -1, Fraction(1, 2), 3])),
                )

            t1, t2 = draw(), draw()
            folded = fold_tuple_params(group, t1, t2)
            w = tuple_word(alg, *t1).then(tuple_word(alg, *t2))
            wf = tuple_word(alg, *folded)
            assert operators_agree(w, wf, alg.window_keys(small_window)) is None

    def test_conjugated_shear_matches_word_conjugation(self, alg, group, small_window):
        rng = random.Random(47)
        for _ in range(6):
            params = (
                rng.choice([Scalar(1), Scalar(-1)]),
                (rng.randrange(-1, 2),),
                (Scalar.of(rng.choice([1, 2, Fraction(-1, 2)])),),
                Scalar.of(rng.choice([1, 2, Fraction(3, 2)])),
                rng.choice([1, -1]),
                Scalar.of(rng.choice([1, 2, Fraction(-1, 3)])),
            )
            e = MShearData(
                diagonals={
                    rng.randrange(-2, 3): (Scalar.of(rng.choice([0, 1, Fraction(1, 2)])), Scalar.of(rng.choice([1, -2]))),
                }
            )
            P = tuple_word(alg, *params)
            conj = Word(alg, P.gens + (MShear(e),) + P.inverse().gens)
            direct = Word(alg, [MShear(conjugated_shear(group, *params, e))])
            assert operators_agree(conj, direct, alg.window_keys(small_window)) is None


class TestInnerStructure:
    def test_ad_cubed_vanishes(self, alg, small_window):
        rng = random.Random(5)
        for _ in range(6):
            x = rand_ideal_element(alg, rng, small_window, terms=3)
            ad = make_ad(alg, x)
            for key in alg.window_keys(small_window):
                assert ad(ad(ad(alg.monomial(key)))) == alg.zero()

    def test_inner_matches_exponential_series(self, alg, m, small_window):
        x = m("Y", Fraction(1, 2), 0, 2) + m("M", -1, 1)
        w = Word(alg, [Inner(x)])
        ad = make_ad(alg, x)
        for key in alg.window_keys(small_window):
            base = alg.monomial(key)
            series = base + ad(base) + HALF * ad(ad(base))
            assert w.apply_key(key) == series


class TestFactor:
    def test_documented_word(self, alg, window):
        # composition notation: the shear acts first, the scale last
        w = Word(
            alg,
            [
                MShear(MShearData(diagonals={1: (0, 1)})),
                LoopScale(Scalar(2)),
                Scale(Scalar(-1)),
            ],
        )
        got = factor(alg, w, window)
        assert got.a == Scalar(-1)
        assert got.b == Scalar(2)
        assert got.eps == 1
        assert got.r == ONE
        assert got.chi == (ONE,)
        assert got.shifts == (0,)
        assert got.e == MShearData(diagonals={1: (0, 1)})
        assert got.inner == ()
        assert got.describe()["residual"] == "0"

    def test_reversed_word_conjugates_the_shear(self, alg, window):
        w = Word(
            alg,
            [
                Scale(Scalar(-1)),
                LoopScale(Scalar(2)),
                MShear(MShearData(diagonals={1: (0, 1)})),
            ],
        )
        got = factor(alg, w, window)
        assert got.e == MShearData(diagonals={1: (0, Fraction(1, 2))})

    def test_identity_word(self, alg, window):
        got = factor(alg, Word(alg, []), window)
        assert (got.a, got.r, got.eps, got.b) == (ONE, ONE, 1, ONE)
        assert got.chi == (ONE,)
        assert got.shifts == (0,)
        assert got.e == MShearData(diagonals={})
        assert got.inner == ()

    def test_round_trip_on_random_words(self, alg, window):
        rng = random.Random(17)
        for _ in range(8):
            w = rand_word(alg, rng, window)
            got = factor(alg, w, window)
            rebuilt = got.to_word(alg)
            assert operators_agree(rebuilt, w, alg.window_keys(window)) is None

    def test_conjugated_inner_has_trivial_leading_part(self, alg, m, window):
        P = tuple_word(alg, Scalar(-1), (1,), (Scalar(2),), Scalar(3), -1, Scalar(2))
        x = m("M", 1, 0, 2) + m("Y", Fraction(-1, 2), 1)
        conj = Word(alg, P.gens + (Inner(x),) + P.inverse().gens)
        got = factor(alg, conj, window)
        assert (got.a, got.r, got.eps, got.b) == (ONE, ONE, 1, ONE)
        assert got.chi == (ONE,)
        assert got.shifts == (0,)

    def test_non_automorphism_is_rejected(self, alg, window):
        # scaling L alone breaks multiplicativity of the M image probes
        class Bad:
            def validate(self, alg):
                pass

            def apply_key(self, alg, key):
                coeff = Scalar(2) if key.kind == "L" else ONE
                return alg.monomial(key, coeff)

            def inverse(self):
                return self

        with pytest.raises(FactorError):
            factor(alg, Word(alg, [Bad()]), window)

    def test_non_affine_shear_names_its_index(self, alg):
        # L(a,i) -> L(a,i) + a^2 M(a,i): loop-independent on each offset, but a^2 is not affine
        class SquareShear:
            def validate(self, alg):
                pass

            def apply_key(self, alg, key):
                out = alg.monomial(key)
                if key.kind == "L" and key.gamma:
                    out = out + alg.monomial(alg.key("M", key.gamma, key.loop), key.gamma * key.gamma)
                return out

        with pytest.raises(FactorError, match="shear values at offset 0 are not affine") as err:
            factor(alg, Word(alg, [SquareShear()]), Window(2, 1))
        assert err.value.step == "shear"
        assert err.value.witness == Scalar(-1)  # pivot -2 fixes u = -2, and -1 is the first index off the line

    def test_describe_shape(self, alg, window):
        got = factor(alg, Word(alg, [ZFlip()]), window)
        doc = got.describe()
        assert set(doc) == {"a", "phi", "chi", "r", "eps", "b", "e", "inner", "residual"}
        assert doc["eps"] == -1
        assert doc["e"] == {"diagonals": {}}


class TestIso:
    def test_scaled_integer_lattices(self, group):
        other = GroupData.from_config({"field": "Q", "gamma_generators": ["2"], "s": "1"})
        a = iso_test(group, other)
        assert a == HALF
        # the returned scalar really carries each lattice onto the other
        for g in other.gamma_basis:
            assert group.in_gamma(a * g)
        for g in group.gamma_basis:
            assert other.in_gamma(g / a)
        assert group.in_gamma(a * other.s - group.s)
        assert other.in_t(other.s)

    def test_rank_mismatch(self, group, root2_group):
        assert iso_test(group, root2_group) is None
        assert iso_test(root2_group, group) is None

    def test_self_relation_is_unit(self, group):
        assert iso_test(group, group) == ONE

    def test_field_mismatch(self, root2_group):
        other = GroupData.from_config(
            {"field": {"Q_sqrt": 3}, "gamma_generators": ["1", "sqrt3"], "s": "1/2"}
        )
        assert iso_test(root2_group, other) is None

    def test_shifted_coset_is_still_equivalent(self, group):
        # s may differ by a lattice element once the lattices are matched
        other = GroupData.from_config({"field": "Q", "gamma_generators": ["2"], "s": "3"})
        a = iso_test(group, other)
        assert a is not None
        assert group.in_gamma(a * other.s - group.s)
