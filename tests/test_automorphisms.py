"""Generator actions, words, factorization, and the lattice-scale test."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from loopsv import (
    CharTwist,
    FactorError,
    GAffine,
    GroupConfigError,
    GroupData,
    Inner,
    LaurentPoly,
    LoopAlgebra,
    LoopScale,
    LoopShift,
    MShear,
    MShearData,
    ONE,
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
    make_D_g,
    make_ad,
    operators_agree,
    parse_element,
    parse_key,
    tuple_word,
)

from support import FAULT_WINDOWS, LoopDependentShear, SquareShear, rand_element, rand_ideal_element, rand_word

ZERO = Scalar(0)
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

    def test_tuple_fold_refuses_a_scale_that_leaves_t(self, group):
        # the second factor's maps on T are read at tau / 2, and 1/4 is not in T = (1/2)Z
        with pytest.raises(ShapeError, match="1/4 is not in T"):
            fold_tuple_params(group, (Scalar(2), (0,), (ONE,), ONE, 1, ONE), (ONE, (1,), (ONE,), ONE, 1, ONE))

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

    def test_root2_round_trip(self, root2_alg):
        # T-basis (1/2, sqrt2): the twist at sqrt2, in Gamma, is read through M(sqrt2, 0)
        assert root2_alg.group.in_gamma(root2_alg.group.t_basis[1])
        window = Window(1, 1)
        w = tuple_word(root2_alg, 1, (1, -1), (2, 3), 5, -1, Fraction(1, 2))
        got = factor(root2_alg, w, window)
        assert (got.a, got.r, got.eps, got.b) == (ONE, Scalar(5), -1, Scalar.of(Fraction(1, 2)))
        assert got.shifts == (1, -1)
        assert got.chi == (Scalar(2), Scalar(3))
        assert got.inner == ()
        assert operators_agree(got.to_word(root2_alg), w, root2_alg.window_keys(window)) is None

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
        with pytest.raises(FactorError, match="^shear: shear table is not affine at -1$") as err:
            factor(alg, Word(alg, [SquareShear()]), Window(2, 1))
        assert err.value.step == "shear"
        assert err.value.witness == Scalar(-1)  # pivot -2 fixes u = -2, and -1 is the first index off the line

    @pytest.mark.parametrize(
        "rows, step, message, witness",
        [
            ({"L(0,0)": "L(0,0) + L(1,0)"}, "scale", "expected a single L term, got L(0,0) + L(1,0)", None),
            ({"L(0,0)": "M(0,0)"}, "scale", "expected a L term in M(0,0)", None),
            ({"L(0,0)": "L(0,1)"}, "scale", "image of L(0,0) has L part at L(0,1)", None),
            ({"M(0,0)": "M(0,0) + Y(1/2,0)"}, "loop-scale", "image of M(0,0) is not a multiple of M(0,0)", None),
            ({"M(0,1)": "M(0,2)"}, "loop-scale", "image of M(0,1) sits at M(0,2)", None),
            ({"Y(1/2,0)": "Y(-1/2,0)"}, "char-twist", "image index of 1/2 is -1/2, expected 1/2", None),
            ({"L(1,0)": "L(1,0) + Y(3/2,0)"}, "shear", "residual at L(1,0) contains Y(3/2,0)", "L(1,0)"),
            ({"M(1,0)": "2*M(1,0)"}, "recompose", "factored word disagrees at M(1,0)", "M(1,0)"),
        ],
        ids=["scale-two-L", "scale-no-L", "scale-moved", "loop-scale-M00", "loop-scale-M01", "char-twist", "shear", "recompose"],
    )
    def test_refusal_names_its_step(self, alg, rows, step, message, witness):
        # each word moves one key, fixes the rest, and loads; together they
        # reach every step that refuses.  The residual of L(0,0) has no step of
        # its own: every generator keeps a key's kind, so the leading word's
        # inverse takes a*L(0,0) plus M and Y terms back to L(0,0) plus M and Y terms
        class Rows:
            def validate(self, alg):
                pass

            def apply_key(self, alg, key):
                text = rows.get(str(key))
                return alg.monomial(key) if text is None else parse_element(alg, text)

        with pytest.raises(FactorError) as err:
            factor(alg, Word(alg, [Rows()]), Window(2, 1))
        assert err.value.step == step
        assert str(err.value) == f"{step}: {message}"
        assert err.value.witness == (None if witness is None else parse_key(alg, witness))

    def test_describe_shape(self, alg, window):
        got = factor(alg, Word(alg, [ZFlip()]), window)
        doc = got.describe()
        assert set(doc) == {"a", "phi", "chi", "r", "eps", "b", "e", "inner", "residual"}
        assert doc["eps"] == -1
        assert doc["e"] == {"diagonals": {}}


class TestShearData:
    """An m-shear is exp(D_g) = 1 + D_g; its table form is the GAffine its lines write down."""

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
    def test_shear_row_is_key_plus_D_g_row(self, alg, root2_alg, field):
        rng = random.Random(83)
        if field == "Q":
            on, window, scalars = alg, Window(2, 1), [0, 1, -2, Fraction(1, 2), Fraction(-3, 2)]
        else:
            sqrt2 = root2_alg.group.parse_scalar("sqrt2")
            on, window = root2_alg, Window(1, 1)
            scalars = [Scalar(0), Scalar(1), Scalar(-2), sqrt2, Scalar.of(Fraction(1, 2)) - sqrt2]
        keys = on.window_keys(window)
        for _ in range(20):
            diagonals = {
                d: (rng.choice(scalars), rng.choice(scalars))
                for d in rng.sample(range(-2, 3), rng.randrange(1, 4))
            }
            shear = Word(on, [MShear(MShearData(diagonals=diagonals))])
            g = GAffine(
                LaurentPoly({d: u for d, (u, v) in diagonals.items()}),
                LaurentPoly({d: v for d, (u, v) in diagonals.items()}),
            )
            D = make_D_g(on, g)
            for key in keys:
                assert shear.apply_key(key) == on.monomial(key) + D.apply_key(key)

    def test_table_is_the_affine_data_it_writes_down(self, alg):
        # GAffine(0, t) written at loop 0 only: every other L key reads it past the table
        data = MShearData(table={(0, 0, 1): 1, (1, 0, 1): 1, (2, 0, 1): 1})
        assert data == MShearData(diagonals={1: (0, 1)})
        assert automorphism_witnesses(alg, Word(alg, [MShear(data)]), Window(3, 2)) == []

    @pytest.mark.parametrize(
        "table, message, witness",
        [
            # L(1,0) gets 1 - 2t^2 and L(1,1) gets t^-2/2
            (
                {(0, 0, 0): 0, (1, 0, 0): 1, (1, 0, 2): -2, (1, 1, -1): Fraction(1, 2), (1, 1, 1): 0},
                "shear value at offset -2 depends on the loop index",
                (Scalar(1), 1),
            ),
            # the zero row names the zero line at 2, off the line through 0 and t
            ({(0, 0, 1): 0, (1, 0, 1): 1, (2, 1, 1): 0}, "shear table is not affine at 2", Scalar(2)),
            ({(1, 0, 0): 1, (2, 0, 0): 2, (3, 0, 0): 1}, "shear table needs values at 0 and at a nonzero index", None),
        ],
        ids=["loop-dependent", "off-the-line", "no-line-at-0"],
    )
    def test_refused_table_names_its_witness(self, table, message, witness):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$") as err:
            MShearData(table=table)
        assert err.value.witness == witness

    def test_factor_refuses_a_loop_dependent_shear_at_the_shear_step(self, alg):
        word = Word(alg, [LoopDependentShear({(1, 0, 0): 1})])
        with pytest.raises(FactorError, match="shear value at offset 0 depends on the loop index") as err:
            factor(alg, word, Window(2, 1))
        assert err.value.step == "shear"
        assert err.value.witness == (Scalar(1), 0)  # the line at L(1,-1) is zero

    @pytest.mark.parametrize(
        "gen",
        [SquareShear(), LoopDependentShear({(1, 0, 0): 1})],
        ids=["not-affine", "loop-dependent"],
    )
    def test_factor_refuses_a_shear_as_its_m_shear_table_does(self, alg, gen):
        # the surplus over L(a,i) on each window L key, in window order, with the zero row naming every line
        window = Window(2, 1)
        table = {}
        for key in alg.window_keys(window):
            if key.kind == "L":
                table[key.gamma, key.loop, key.loop] = 0
                for out_key, coeff in (gen.apply_key(alg, key) - alg.monomial(key)).terms.items():
                    table[key.gamma, key.loop, out_key.loop] = coeff
        with pytest.raises(ShapeError) as read:
            MShearData(table=table)
        with pytest.raises(FactorError) as factored:
            factor(alg, Word(alg, [gen]), window)
        assert factored.value.step == "shear"
        assert str(factored.value) == f"shear: {read.value}"
        assert factored.value.witness == read.value.witness

    def test_pair_sweep_stops_at_its_limit(self, alg):
        word = Word(alg, [LoopDependentShear({(1, 0, 0): 1})])
        bad = automorphism_witnesses(alg, word, Window(2, 1))
        assert bad.pairs == 242  # of the window's 903 pairs
        assert len(bad) == 10
        assert bad[-1] == (parse_key(alg, "L(0,-1)"), parse_key(alg, "L(1,0)"))


SHEAR_WINDOWS = {"Q": Window(2, 1), "Q(sqrt2)": Window(1, 1)}


@pytest.mark.parametrize("field", sorted(SHEAR_WINDOWS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_shear_table_reads_like_its_diagonals(field, data):
    group, window = FAULT_WINDOWS[field][0](), SHEAR_WINDOWS[field]
    alg = LoopAlgebra(group)
    gammas, _ = group.window_gammas(window)
    rational = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    root = Scalar(0, 1, group.field_d) if group.field_d else Scalar(0)
    scalar = st.builds(lambda p, q: Scalar.of(p) + Scalar.of(q) * root, rational, rational)
    diagonals = data.draw(st.dictionaries(st.integers(-2, 2), st.tuples(scalar, scalar), max_size=3))
    expected = MShearData(diagonals=diagonals)
    nonzero = data.draw(st.sampled_from([g for g in gammas if g]))
    others = data.draw(st.lists(st.sampled_from(gammas), max_size=3))
    lines = data.draw(st.permutations([(a, data.draw(st.integers(-2, 2))) for a in [ZERO, nonzero, *others]]))
    table = {}
    for a, i in lines:
        table.setdefault((a, i, i), ZERO)  # names the line even where it is zero
        for d, c in expected.value(a).items():
            table[a, i, i + d] = c
    assert MShearData(table=table) == expected
    shear = Word(alg, [MShear(MShearData(table=table))])
    D = make_D_g(alg, expected)
    for key in alg.window_keys(window):
        if (key.gamma, key.loop) not in lines:
            assert shear.apply_key(key) == alg.monomial(key) + D.apply_key(key)


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


# seven groups: Z, 2Z, (1/6)Z from two generators, Z + sqrt2 Z, sqrt2 Z inside
# Q(sqrt2), a Q(sqrt5) lattice and Z + 10 sqrt2 Z
ISO_GROUPS = {
    "Z": {"gamma_generators": ["1"], "s": "1/2"},
    "2Z": {"gamma_generators": ["2"], "s": "1"},
    "Q2gen": {"gamma_generators": ["2/3", "1/2"], "s": "1/12"},
    "Z+r2Z": {"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "sqrt2"], "s": "1/2"},
    "r2Z": {"field": {"Q_sqrt": 2}, "gamma_generators": ["sqrt2"], "s": "1/2*sqrt2"},
    "Q5": {"field": {"Q_sqrt": 5}, "gamma_generators": ["1", "1/2+1/2*sqrt5"], "s": "1/4+1/4*sqrt5"},
    "Z+10r2Z": {"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "10*sqrt2"], "s": "1/2"},
}
# iso_test on every ordered pair; pairs not listed give None
ISO_FOUND = {
    ("Z", "Z"): "1", ("Z", "2Z"): "1/2", ("Z", "Q2gen"): "6",
    ("2Z", "Z"): "2", ("2Z", "2Z"): "1", ("2Z", "Q2gen"): "12",
    ("Q2gen", "Z"): "1/6", ("Q2gen", "2Z"): "1/12", ("Q2gen", "Q2gen"): "1",
    ("Z+r2Z", "Z+r2Z"): "3-2*sqrt2", ("r2Z", "r2Z"): "1", ("Q5", "Q5"): "-2+sqrt5",
    ("Z+10r2Z", "Z+10r2Z"): "1",
}


def test_iso_table_on_seven_groups():
    groups = {name: GroupData.from_config(doc) for name, doc in ISO_GROUPS.items()}
    for n1, g1 in groups.items():
        for n2, g2 in groups.items():
            a = iso_test(g1, g2)
            assert (None if a is None else str(a)) == ISO_FOUND.get((n1, n2)), (n1, n2)
            if a is not None:
                assert g1.carries(g2, a)


SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def scaled_pair(draw):
    """A random (Gamma, s) over Q, Q(sqrt2), Q(sqrt3) or Q(sqrt5), and its image x*(Gamma, s)."""
    d = draw(st.sampled_from([0, 2, 3, 5]))

    def field_element():
        b = draw(SMALL) if d else 0
        return Scalar(draw(SMALL), b, d if b else 0)

    gens = [draw(st.builds(field_element).filter(bool)) for _ in range(1 if d == 0 else 2)]
    halves = draw(st.lists(st.sampled_from([0, 1]), min_size=len(gens), max_size=len(gens)).filter(any))
    s = sum((g for g, e in zip(gens, halves) if e), Scalar(0)) * HALF
    x = draw(st.builds(field_element).filter(bool))
    try:
        return GroupData(gens, s, d), GroupData([x * g for g in gens], x * s, d)
    except GroupConfigError:  # s fell into Gamma
        assume(False)


@settings(max_examples=8, deadline=None)
@given(scaled_pair())
def test_iso_answer_does_not_depend_on_argument_order(pair):
    g1, g2 = pair
    forward, backward = iso_test(g1, g2), iso_test(g2, g1)
    assert (forward is None) == (backward is None)
    if forward is not None:
        assert g1.carries(g2, forward) and g2.carries(g1, backward)
