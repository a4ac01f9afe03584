"""Derivation families, degree splitting, and canonical decomposition."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from loopsv import (
    CanonicalDerivation,
    GAffine,
    GTable,
    HomToLaurent,
    LaurentPoly,
    Operator,
    Scalar,
    ShapeError,
    Window,
    Word,
    automorphism_witnesses,
    canonical_decompose_degree0,
    degree_decompose,
    derivation_defect,
    derivation_witnesses,
    hom_quotient_witness,
    make_D_b,
    make_D_g,
    make_D_phi,
    make_D_rho,
    make_ad,
    operators_agree,
    parse_element,
    parse_laurent,
    reduce_nonzero_degree,
    table_operator,
)

from support import rand_canonical, rand_element, rand_ideal_element, rand_laurent

ZERO = Scalar(0)
ONE = Scalar(1)


def poly(alg, text):
    return parse_laurent(alg, text)


@pytest.fixture
def m(alg):
    def build(kind, gamma, loop, coeff=1):
        return alg.monomial(alg.key(kind, gamma, loop), Scalar.of(coeff))

    return build


class TestFamilies:
    def test_D_phi_examples(self, alg, m):
        phi = HomToLaurent((poly(alg, "2*t"),))
        D = make_D_phi(alg, phi)
        assert D(m("L", 2, 3)) == m("L", 2, 4, 8)
        assert D(m("Y", Fraction(1, 2), 0)) == m("Y", Fraction(1, 2), 1, 2)

    def test_D_g_examples(self, alg, m):
        D = make_D_g(alg, GAffine(LaurentPoly.zero(), poly(alg, "1")))
        assert D(m("L", 3, 2)) == m("M", 3, 2)
        assert D(m("M", 3, 2)) == alg.zero()
        assert D(m("Y", Fraction(1, 2), 0)) == alg.zero()

        D = make_D_g(alg, GAffine(poly(alg, "t"), LaurentPoly.zero()))
        assert D(m("L", 2, 0)) == m("M", 2, 1, 2)

    def test_D_b_examples(self, alg, m):
        D = make_D_b(alg, poly(alg, "t^2"))
        assert D(m("M", 1, 0)) == m("M", 1, 2)
        assert D(m("Y", Fraction(1, 2), 0)) == m("Y", Fraction(1, 2), 2, Fraction(1, 2))
        assert D(m("L", 2, 0)) == alg.zero()

    def test_D_rho_examples(self, alg, m):
        D = make_D_rho(alg, poly(alg, "t"))
        assert D(m("L", 2, 3)) == m("L", 2, 3, 3)
        assert D(m("L", 2, 0)) == alg.zero()

        D = make_D_rho(alg, poly(alg, "t^3"))
        assert D(m("M", 0, -1)) == m("M", 0, 1, -1)

    def test_ad_examples(self, alg, m):
        D = make_ad(alg, m("M", 1, 0))
        assert D(m("L", 2, 5)) == m("M", 3, 5, -1)
        assert D.degree == ONE

        D = make_ad(alg, m("L", 0, 0))
        assert D(m("Y", Fraction(3, 2), 1)) == m("Y", Fraction(3, 2), 1, Fraction(3, 2))

        central = make_ad(alg, m("M", 0, 4))
        for key in alg.window_keys(Window(2, 2)):
            assert central.apply_key(key) == alg.zero()

    def test_mixed_ad_has_no_degree(self, alg, m):
        D = make_ad(alg, m("M", 1, 0) + m("Y", Fraction(1, 2), 2))
        assert D.degree is None


class TestDefects:
    def test_documented_zero_defect(self, alg, m):
        D = make_D_g(alg, GAffine(LaurentPoly.zero(), poly(alg, "1")))
        assert derivation_defect(alg, D, m("L", 1, 0), m("L", 2, 0)) == alg.zero()

    def test_plain_loop_shift_is_not_a_derivation(self, alg, m):
        D = Operator(alg, lambda key: alg.monomial(alg.key(key.kind, key.gamma, key.loop + 1)))
        defect = derivation_defect(alg, D, m("L", 1, 0), m("L", 2, 0))
        assert defect == m("L", 3, 1, -1)
        bad = derivation_witnesses(alg, D, Window(2, 2), limit=3)
        assert bad

    def test_families_have_zero_defect_on_window(self, alg, small_window):
        cases = [
            make_D_rho(alg, poly(alg, "t^2 - 3")),
            make_D_phi(alg, HomToLaurent((poly(alg, "t^-1 + 2*t"),))),
            make_D_g(alg, GAffine(poly(alg, "t"), poly(alg, "1/2 + t^2"))),
            make_D_b(alg, poly(alg, "2*t^-2 + t")),
            make_ad(alg, alg.monomial(alg.key("Y", Fraction(1, 2), 1), Scalar.of(Fraction(2, 3)))),
        ]
        for D in cases:
            assert derivation_witnesses(alg, D, small_window, limit=1) == []

    def test_random_combination_has_zero_defect(self, alg, small_window):
        rng = random.Random(7)
        for _ in range(5):
            D = rand_canonical(alg, rng).to_operator(alg)
            D = D + make_ad(alg, rand_ideal_element(alg, rng, small_window))
            x = rand_element(alg, rng, small_window)
            y = rand_element(alg, rng, small_window)
            assert derivation_defect(alg, D, x, y) == alg.zero()


class TestPairSweep:
    @pytest.mark.parametrize("limit", [3, 10**6])
    def test_both_checks_match_a_reference_loop(self, alg, small_window, limit):
        # shifting every loop index by one is neither a derivation nor an automorphism
        def shifted(x):
            return alg.element({alg.key(k.kind, k.gamma, k.loop + 1): c for k, c in x.terms.items()})

        shift = Operator(alg, lambda key: shifted(alg.monomial(key)))
        keys = alg.window_keys(small_window)

        def reference(rhs):
            bad = []
            for i, k1 in enumerate(keys):
                for k2 in keys[i:]:
                    x, y = alg.monomial(k1), alg.monomial(k2)
                    if shifted(alg.bracket(x, y)) != rhs(x, y):
                        bad.append((k1, k2))
                        if len(bad) >= limit:
                            return bad
            return bad

        leibniz = reference(lambda x, y: alg.bracket(shifted(x), y) + alg.bracket(x, shifted(y)))
        respect = reference(lambda x, y: alg.bracket(shifted(x), shifted(y)))
        assert leibniz and respect
        assert limit > 3 or len(leibniz) == len(respect) == 3
        assert derivation_witnesses(alg, shift, small_window, limit) == leibniz
        assert automorphism_witnesses(alg, shift, small_window, limit) == respect

    def test_apply_key_computes_each_row_once(self, alg, small_window):
        calls = Counter()

        def row(key):
            calls[key] += 1
            return alg.monomial(key)

        op = Operator(alg, row)
        keys = alg.window_keys(small_window)
        for _ in range(2):
            for key in keys:
                op.apply_key(key)
            op(alg.element({key: 1 for key in keys}))
        derivation_witnesses(alg, op, small_window)
        automorphism_witnesses(alg, op, small_window)
        assert set(keys) <= set(calls)
        assert set(calls.values()) == {1}

    def test_word_is_an_operator(self, alg):
        word = Word(alg, [])
        assert isinstance(word, Operator)
        # only this name and getrefcount's argument refer to the word: its row
        # holds no reference back, so no cycle keeps its rows alive
        assert sys.getrefcount(word) == 2


class TestDegreeSplit:
    def test_split_of_mixed_inner(self, alg, m, small_window):
        z1 = m("L", 1, 0)
        z2 = m("M", 2, 1)
        D = make_ad(alg, z1 + z2)
        parts = degree_decompose(alg, D, small_window)
        assert sorted(parts) == [ONE, Scalar(2)]
        for degree, comp in parts.items():
            assert comp.degree == degree
        total = parts[ONE] + parts[Scalar(2)]
        assert operators_agree(total, D, alg.window_keys(small_window)) is None

    def test_degree_zero_operator_splits_trivially(self, alg, small_window):
        D = make_D_b(alg, poly(alg, "t"))
        parts = degree_decompose(alg, D, small_window)
        assert list(parts) == [ZERO]
        assert parts[ZERO].degree == ZERO

    def test_zero_operator_has_no_components(self, alg, small_window):
        parts = degree_decompose(alg, Operator.zero(alg), small_window)
        assert parts == {}

    def test_component_table_raises_outside_window(self, alg, m, small_window):
        parts = degree_decompose(alg, make_ad(alg, m("L", 1, 0)), small_window)
        outside = alg.key("L", 3, 0)
        with pytest.raises(ShapeError):
            parts[ONE].apply_key(outside)


class TestReduceNonzeroDegree:
    @pytest.mark.parametrize(
        "kind,gamma,loop",
        [("Y", Fraction(1, 2), 0), ("M", 2, 3), ("L", 1, 5)],
    )
    def test_recovers_homogeneous_generator(self, alg, small_window, kind, gamma, loop):
        z = alg.monomial(alg.key(kind, gamma, loop))
        assert reduce_nonzero_degree(alg, make_ad(alg, z), small_window) == z

    def test_recovers_scaled_sums_at_fixed_degree(self, alg, m, small_window):
        z = m("L", 1, 0, Fraction(3, 2)) + m("M", 1, -1, -2)
        D = make_ad(alg, z)
        assert reduce_nonzero_degree(alg, D, small_window) == z

    def test_requires_declared_degree(self, alg, m, small_window):
        D = Operator(alg, lambda key: alg.zero())
        with pytest.raises(ValueError):
            reduce_nonzero_degree(alg, D, small_window)

    def test_rejects_degree_zero(self, alg, small_window):
        D = make_D_b(alg, poly(alg, "t"))
        with pytest.raises(ValueError):
            reduce_nonzero_degree(alg, D, small_window)

    def test_rejects_impostor_of_pure_degree(self, alg, small_window):
        keys = alg.window_keys(small_window)
        table = {key: alg.monomial(alg.key(key.kind, key.gamma + 1, key.loop)) if alg.group.in_gamma(key.gamma + 1) and key.kind == "L" else alg.zero() for key in keys}
        D = table_operator(alg, table, degree=ONE)
        with pytest.raises(ShapeError):
            reduce_nonzero_degree(alg, D, small_window)


class TestCanonicalDecompose:
    def test_rho_plus_b_example(self, alg, small_window):
        D = make_D_rho(alg, poly(alg, "t")) + make_D_b(alg, poly(alg, "t^2"))
        cand = canonical_decompose_degree0(alg, D, small_window)
        assert cand.rho == poly(alg, "t")
        assert cand.f == HomToLaurent.zero(alg.group)
        assert cand.g == GAffine(LaurentPoly.zero(), LaurentPoly.zero())
        assert cand.b == poly(alg, "t^2")
        assert cand.inner is None

    def test_pure_shear_round_trip(self, alg, small_window):
        g = GAffine(poly(alg, "t^-1"), poly(alg, "3"))
        cand = canonical_decompose_degree0(alg, make_D_g(alg, g), small_window)
        assert cand.g == g
        assert cand.rho == LaurentPoly.zero()
        assert cand.b == LaurentPoly.zero()

    def test_random_round_trips(self, alg, small_window):
        rng = random.Random(23)
        for _ in range(10):
            cand = rand_canonical(alg, rng)
            D = cand.to_operator(alg)
            got = canonical_decompose_degree0(alg, D, small_window)
            assert got == cand
            assert operators_agree(got.to_operator(alg), D, alg.window_keys(small_window)) is None

    def test_rejects_Y_shaped_image(self, alg, small_window):
        keys = alg.window_keys(small_window)
        bad = alg.monomial(alg.key("Y", Fraction(1, 2), 0))
        table = {key: (bad if key == alg.key("L", 0, 1) else alg.zero()) for key in keys}
        with pytest.raises(ShapeError):
            canonical_decompose_degree0(alg, table_operator(alg, table, ZERO), small_window)

    def test_rejects_inconsistent_f(self, alg, small_window):
        keys = alg.window_keys(small_window)

        def image(key):
            if key.kind == "L" and key.loop == 0 and key.gamma:
                return alg.monomial(key, key.gamma * key.gamma)
            return alg.zero()

        table = {key: image(key) for key in keys}
        with pytest.raises(ShapeError, match="inconsistent f"):
            canonical_decompose_degree0(alg, table_operator(alg, table, ZERO), small_window)

    def test_weight_zero_inner_folds_into_f(self, alg, m, small_window):
        # ad L(0,j) acts diagonally by (gamma) t^j, so it lands in the f slot.
        D = make_ad(alg, m("L", 0, 1, 2))
        cand = canonical_decompose_degree0(alg, D, small_window)
        assert cand.rho == LaurentPoly.zero()
        assert cand.f.value(alg.group, ONE) == poly(alg, "2*t")
        assert operators_agree(cand.to_operator(alg), D, alg.window_keys(small_window)) is None


class TestGTable:
    def test_affine_data_passes_table_validation(self, alg):
        u, v = poly(alg, "t"), poly(alg, "1 - t^2")
        values = {g: u * Scalar.of(g) + v for g in range(-3, 4)}
        table = GTable(values)
        for g in range(-3, 4):
            assert table.value(g) == GAffine(u, v).value(Scalar.of(g))

    def test_inconsistent_table_is_rejected(self, alg):
        values = {
            Scalar(1): poly(alg, "t"),
            Scalar(2): poly(alg, "2*t"),
            Scalar(3): poly(alg, "t"),
        }
        with pytest.raises(ShapeError):
            GTable(values)

    def test_lookup_outside_support_raises(self, alg):
        table = GTable({Scalar(1): poly(alg, "t")})
        with pytest.raises(ShapeError):
            table.value(Scalar(5))


class TestHomQuotient:
    def test_multiple_of_identity_on_rank_one(self, alg):
        phi = HomToLaurent((poly(alg, "t"),))
        assert hom_quotient_witness(alg.group, phi) == {1: Scalar(2)}

    def test_zero_map(self, alg):
        assert hom_quotient_witness(alg.group, HomToLaurent.zero(alg.group)) == {}

    def test_witness_gives_operator_identity(self, alg, small_window):
        phi = HomToLaurent((poly(alg, "t"),))
        coeffs = hom_quotient_witness(alg.group, phi)
        D = Operator.zero(alg)
        for j, a in coeffs.items():
            D = D + make_ad(alg, alg.monomial(alg.key("L", 0, j), a))
        assert operators_agree(make_D_phi(alg, phi), D, alg.window_keys(small_window)) is None

    def test_rank_two_obstruction(self, root2_alg, root2_group):
        half_t = LaurentPoly({1: Scalar.of(Fraction(1, 2))})
        phi = HomToLaurent((half_t, LaurentPoly.zero()))
        assert hom_quotient_witness(root2_group, phi) is None
        # the same failure is visible as an operator inequality on a window
        D = make_D_phi(root2_alg, phi)
        cand = make_ad(root2_alg, root2_alg.monomial(root2_alg.key("L", 0, 1)))
        keys = root2_alg.window_keys(Window(2, 1))
        assert operators_agree(D, cand, keys) is not None

    def test_rank_two_diagonal_map(self, root2_alg, root2_group):
        t = LaurentPoly({1: Scalar(1)})
        root2 = Scalar(0, 1, 2)
        phi = HomToLaurent((Scalar.of(Fraction(1, 2)) * t, root2 * t))
        coeffs = hom_quotient_witness(root2_group, phi)
        assert coeffs == {1: Scalar(1)}
        D = Operator.zero(root2_alg)
        for j, a in coeffs.items():
            D = D + make_ad(root2_alg, root2_alg.monomial(root2_alg.key("L", 0, j), a))
        keys = root2_alg.window_keys(Window(2, 1))
        assert operators_agree(make_D_phi(root2_alg, phi), D, keys) is None


class TestFullPipeline:
    def test_mixed_degree_derivation_recovers_all_pieces(self, alg, m, small_window):
        rng = random.Random(99)
        cand = rand_canonical(alg, rng)
        inner = m("M", 1, 0, 2) + m("Y", Fraction(-1, 2), 1)
        D = cand.to_operator(alg) + make_ad(alg, inner)

        parts = degree_decompose(alg, D, small_window)
        recovered = alg.zero()
        for degree in sorted(k for k in parts if k):
            recovered = recovered + reduce_nonzero_degree(alg, parts[degree], small_window)
        assert recovered == inner

        zero_part = parts.get(ZERO, Operator.zero(alg))
        got = canonical_decompose_degree0(alg, zero_part, small_window)
        rebuilt = CanonicalDerivation(got.rho, got.f, got.g, got.b, recovered)
        assert operators_agree(rebuilt.to_operator(alg), D, alg.window_keys(small_window)) is None


def reference_degree0_row(alg, cand, key):
    """D_rho + D_phi + D_g + D_b (+ ad inner) at one key, each family's action
    written out on its own and added term by term."""
    group = alg.group
    terms = Counter()

    def add(kind, loop, coeff):
        terms[alg.key(kind, key.gamma, loop)] += coeff

    for e, c in cand.rho.items():  # D_rho: X(a,i) -> i t^(e-1) X(a,i)
        if key.loop:
            add(key.kind, key.loop + e - 1, key.loop * c)
    for e, c in cand.f.value(group, key.gamma).items():  # D_phi: multiply by f(a)
        add(key.kind, key.loop + e, c)
    if key.kind == "L":  # D_g: L(a,i) -> g(a) M(a,i)
        for e, c in cand.g.value(key.gamma).items():
            add("M", key.loop + e, c)
    else:  # D_b: M by b, Y by b/2
        half = Scalar(Fraction(1, 2)) if key.kind == "Y" else ONE
        for e, c in cand.b.items():
            add(key.kind, key.loop + e, half * c)
    out = alg.element(dict(terms))
    if cand.inner:
        out = out + alg.bracket(cand.inner, alg.monomial(key))
    return out


class TestDegreeZeroRow:
    @pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
    @pytest.mark.parametrize("g_kind", ["affine", "table"])
    @pytest.mark.parametrize("inner", [None, "M(0,1) - 2*M(0,-1)", "M(1,0) + Y(-1/2,1)"])
    def test_to_operator_matches_family_sum(self, alg, root2_alg, field, g_kind, inner):
        if field == "Q":
            window, f = Window(2, 1), HomToLaurent((poly(alg, "t^-1 + 2*t"),))
        else:
            alg, window = root2_alg, Window(1, 1)
            f = HomToLaurent((poly(alg, "t^-1 + 2*t"), poly(alg, "sqrt2*t - 1")))
        g = GAffine(poly(alg, "t"), poly(alg, "1/2 + t^2"))
        if g_kind == "table":
            gammas, _ = alg.group.window_gammas(window)
            g = GTable({gamma: g.value(gamma) for gamma in gammas})
        x = None if inner is None else parse_element(alg, inner)
        cand = CanonicalDerivation(poly(alg, "t^2 - 3"), f, g, poly(alg, "2*t^-2 + t"), x)
        D = cand.to_operator(alg)
        for key in alg.window_keys(window):
            assert D.apply_key(key) == reference_degree0_row(alg, cand, key), key
        # a weight-zero inner part keeps the declared degree; one of mixed weight drops it
        assert D.degree == (None if inner and "Y" in inner else ZERO)

    def test_family_rows_are_the_row_with_other_pieces_zero(self, alg, small_window):
        cand = CanonicalDerivation(
            poly(alg, "t - t^3"),
            HomToLaurent((poly(alg, "3*t^-1"),)),
            GAffine(poly(alg, "t^-1"), poly(alg, "2")),
            poly(alg, "5 + t"),
        )
        zero = LaurentPoly.zero()
        no_f = HomToLaurent.zero(alg.group)
        no_g = GAffine(zero, zero)
        families = [
            (make_D_rho(alg, cand.rho), CanonicalDerivation(cand.rho, no_f, no_g, zero)),
            (make_D_phi(alg, cand.f), CanonicalDerivation(zero, cand.f, no_g, zero)),
            (make_D_g(alg, cand.g), CanonicalDerivation(zero, no_f, cand.g, zero)),
            (make_D_b(alg, cand.b), CanonicalDerivation(zero, no_f, no_g, cand.b)),
        ]
        for D, alone in families:
            assert D.degree == ZERO
            for key in alg.window_keys(small_window):
                assert D.apply_key(key) == reference_degree0_row(alg, alone, key)

    @pytest.mark.parametrize("inner, most", [(None, 1), ("M(1,0)", 2)])
    def test_to_operator_builds_one_operator_per_part(self, alg, monkeypatch, inner, most):
        built = []
        init = Operator.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Operator, "__init__", counting_init)
        cand = rand_canonical(alg, random.Random(8))
        x = None if inner is None else parse_element(alg, inner)
        CanonicalDerivation(cand.rho, cand.f, cand.g, cand.b, x).to_operator(alg)
        assert len(built) <= most
