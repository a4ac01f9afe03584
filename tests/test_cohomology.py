"""Window cocycles, the class basis, reduction, and central extensions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopsv import (
    CombinationCocycle,
    ExtendedElement,
    GroupData,
    GroupMismatchError,
    LinearFunctional,
    LoopAlgebra,
    NotACocycleError,
    Scalar,
    ShapeError,
    TableCocycle,
    Window,
    central_extend,
    cocycle_defect,
    cocycle_witnesses,
    make_coboundary,
    make_phi_k,
    normalizing_functional,
    reduce_cocycle,
)

from support import FAULT_WINDOWS, WrongLY, rand_element, rand_functional

ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar.of(Fraction(1, 2))


@pytest.fixture
def k(alg):
    def build(kind, gamma, loop):
        return alg.key(kind, gamma, loop)

    return build


@pytest.fixture
def m2(alg):
    def build(kind, gamma, loop, coeff=1):
        return alg.monomial(alg.key(kind, gamma, loop), Scalar.of(coeff))

    return build


class TestClassBasis:
    def test_documented_values(self, alg, k):
        phi0 = make_phi_k(alg, 0)
        assert phi0.value(k("L", 2, 1), k("L", -2, -1)) == HALF
        assert phi0.value(k("L", -2, -1), k("L", 2, 1)) == -HALF

        phi3 = make_phi_k(alg, 3)
        assert phi3.value(k("L", 1, 0), k("L", -1, 3)) == ZERO

    def test_support(self, alg, k):
        phi0 = make_phi_k(alg, 0)
        assert phi0.value(k("L", 2, 1), k("L", -2, 0)) == ZERO  # loop degree 1
        assert phi0.value(k("L", 2, 0), k("L", -1, 0)) == ZERO  # index sum 1
        assert phi0.value(k("M", 2, 0), k("M", -2, 0)) == ZERO
        assert phi0.value(k("Y", Fraction(3, 2), 0), k("Y", Fraction(-3, 2), 0)) == ZERO

    def test_classes_satisfy_the_cyclic_identity(self, alg, small_window):
        for kk in (-2, 0, 2):
            bad, count = cocycle_witnesses(alg, make_phi_k(alg, kk), small_window, limit=1)
            assert bad == []
            n = len(alg.window_keys(small_window))
            assert count == n * (n - 1) * (n - 2) // 6

    def test_classes_also_work_at_other_shifts(self, root2_alg, small_window):
        bad, _ = cocycle_witnesses(root2_alg, make_phi_k(root2_alg, 1), Window(1, 1), limit=1)
        assert bad == []


class TestCoboundaries:
    def test_documented_values(self, alg, k):
        psi = make_coboundary(alg, LinearFunctional({k("L", 0, 0): ONE}))
        assert psi.value(k("L", 1, 2), k("L", -1, -2)) == Scalar(-2)

        psi = make_coboundary(alg, LinearFunctional({k("M", 0, 0): ONE}))
        assert psi.value(k("Y", Fraction(1, 2), 0), k("Y", Fraction(-1, 2), 0)) == Scalar(-1)

    def test_coboundaries_satisfy_the_cyclic_identity(self, alg, small_window):
        rng = random.Random(3)
        for _ in range(4):
            psi = make_coboundary(alg, rand_functional(alg, rng, small_window))
            x = rand_element(alg, rng, small_window)
            y = rand_element(alg, rng, small_window)
            z = rand_element(alg, rng, small_window)
            assert cocycle_defect(psi, x, y, z) == ZERO


class TestTableCocycle:
    def test_orientation_is_canonicalized(self, alg, k):
        pair = (k("L", 1, 0), k("L", -1, 0))
        phi = TableCocycle(alg, {pair: Scalar(5)})
        assert phi.value(*pair) == Scalar(5)
        assert phi.value(pair[1], pair[0]) == Scalar(-5)

    def test_consistent_duplicates_collapse(self, alg, k):
        a, b = k("L", 1, 0), k("L", -1, 0)
        phi = TableCocycle(alg, {(a, b): Scalar(5), (b, a): Scalar(-5)})
        assert phi.value(a, b) == Scalar(5)
        assert len(phi.items()) == 1

    def test_diagonal_must_vanish(self, alg, k):
        a = k("L", 1, 0)
        with pytest.raises(NotACocycleError):
            TableCocycle(alg, {(a, a): ONE})

    def test_conflicting_duplicates_are_rejected(self, alg, k):
        a, b = k("L", 1, 0), k("L", -1, 0)
        with pytest.raises(NotACocycleError):
            TableCocycle(alg, {(a, b): Scalar(5), (b, a): Scalar(5)})

    def test_corrupted_table_fails_the_identity_sweep(self, alg, k, small_window):
        phi0 = make_phi_k(alg, 0)
        keys = alg.window_keys(small_window)
        entries = {}
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1 :]:
                v = phi0.value(k1, k2)
                if v:
                    entries[(k1, k2)] = v
        entries[(k("L", 1, 1), k("L", -1, -1))] = Scalar(7)  # off the class line
        bad, _ = cocycle_witnesses(alg, TableCocycle(alg, entries), small_window, limit=5)
        assert bad

    def test_value_outside_the_field_is_refused(self, alg, k, small_window):
        # the sweep table holds values as integer pairs over the algebra's field, Q here
        phi = TableCocycle(alg, {(k("L", 1, 0), k("L", -1, 0)): Scalar(0, 1, 2)})
        with pytest.raises(ValueError, match="sqrt2 lies outside the algebra's field"):
            cocycle_witnesses(alg, phi, small_window)


class TestNormalizingFunctional:
    def test_recovers_a_coboundary_functional(self, alg, k, small_window):
        g = LinearFunctional({k("L", 2, 0): Scalar(5), k("M", 0, 1): Scalar(-3)})
        psi = make_coboundary(alg, g)
        f = normalizing_functional(alg, psi, alg.window_keys(small_window))
        assert f.value(k("L", 2, 0)) == Scalar(5)
        assert f.value(k("M", 0, 1)) == Scalar(-3)
        assert f.value(k("L", 1, 0)) == ZERO

    def test_class_column_is_already_normalized(self, alg, small_window):
        f = normalizing_functional(alg, make_phi_k(alg, 0), alg.window_keys(small_window))
        assert not f


class TestReduce:
    def test_class_plus_coboundary(self, alg, k, window):
        f = LinearFunctional({k("L", 0, 0): Scalar(2), k("M", 1, -1): ONE})
        phi = CombinationCocycle(alg, [(Scalar(3), make_phi_k(alg, 0)), (ONE, make_coboundary(alg, f))])
        got = reduce_cocycle(alg, phi, window)
        assert got.classes == {0: Scalar(3)}
        assert got.residual_zero()
        assert got.functional.value(k("L", 0, 0)) == Scalar(2)
        assert got.functional.value(k("M", 1, -1)) == ONE
        assert got.diagnostics == ()

    def test_pure_coboundary_has_no_classes(self, alg, window):
        rng = random.Random(13)
        phi = make_coboundary(alg, rand_functional(alg, rng, window))
        got = reduce_cocycle(alg, phi, window)
        assert got.classes == {}
        assert got.residual_zero()

    def test_two_classes(self, alg, window):
        phi = CombinationCocycle(
            alg, [(ONE, make_phi_k(alg, 2)), (Scalar(-1), make_phi_k(alg, -1))]
        )
        got = reduce_cocycle(alg, phi, window)
        assert got.classes == {2: ONE, -1: Scalar(-1)}
        assert got.residual_zero()

    def test_far_degrees_use_split_probes(self, alg, window):
        # degree 5 exceeds the loop bound 3, so the probe splits as (2, 3)
        phi = make_phi_k(alg, 5)
        got = reduce_cocycle(alg, phi, window)
        assert got.classes == {5: ONE}
        assert got.residual_zero()

    def test_pivot_override_cross_checks(self, alg, window):
        phi = make_phi_k(alg, 0)
        default = reduce_cocycle(alg, phi, window)
        assert default.pivot == Scalar(2)
        alt = reduce_cocycle(alg, phi, window, pivot=3)
        assert alt.pivot == Scalar(3)
        assert alt.classes == default.classes == {0: ONE}
        assert alt.diagnostics == ()

    def test_pivot_cross_check_names_the_degree_where_pivots_disagree(self, alg, k):
        # a lone value at (L(2,0), L(-2,0)) reads as a class through pivot 2 but not through pivot 3
        phi = TableCocycle(alg, {(k("L", 2, 0), k("L", -2, 0)): 1})
        got = reduce_cocycle(alg, phi, Window(3, 1))
        assert got.classes_payload() == {"0": "2"}
        assert "pivot cross-check at degree 0: 2 from 2, 0 from 3" in got.diagnostics

    def test_inadmissible_pivot_is_rejected(self, alg, window):
        with pytest.raises(ShapeError):
            reduce_cocycle(alg, make_phi_k(alg, 0), window, pivot=1)

    def test_pivot_one_serves_where_it_is_admissible(self):
        # Gamma = Z/2 with s = 1/4: the window's other points 1/2 are 2s, so 1 is the only pivot
        alg = LoopAlgebra(GroupData.from_config({"gamma_generators": ["1/2"], "s": "1/4"}))
        window = Window(2, 1)
        rng = random.Random(7)
        for _ in range(4):
            classes = {kk: Scalar.of(rng.choice([1, -2, Fraction(1, 2)])) for kk in rng.sample(range(-2, 3), 2)}
            terms = [(c, make_phi_k(alg, kk)) for kk, c in classes.items()]
            terms.append((ONE, make_coboundary(alg, rand_functional(alg, rng, window))))
            got = reduce_cocycle(alg, CombinationCocycle(alg, terms), window)
            assert got.pivot == ONE
            assert got.classes == classes
            assert got.residual_zero()

    def test_random_structured_cocycles_round_trip(self, alg, window):
        rng = random.Random(101)
        for _ in range(6):
            classes = {}
            for kk in range(-3, 4):
                if rng.random() < 0.4:
                    classes[kk] = Scalar.of(rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
            f = rand_functional(alg, rng, window)
            terms = [(c, make_phi_k(alg, kk)) for kk, c in classes.items()]
            terms.append((ONE, make_coboundary(alg, f)))
            got = reduce_cocycle(alg, CombinationCocycle(alg, terms), window)
            assert got.classes == classes
            assert got.residual_zero()
            for key, val in f.items():
                assert got.functional.value(key) == val

    def test_truncated_table_flags_boundary_pairs(self, alg, k, small_window):
        # a coboundary against L(0,4) only shows up on brackets that leave
        # the window, so a window table of it cannot reduce cleanly; every
        # surviving residual entry must be tagged as a boundary artifact
        target = alg.key("L", 0, 4)
        entries = {}
        keys = alg.window_keys(small_window)
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1 :]:
                t = alg.structure(k1, k2)
                if t is not None and t[0] == target:
                    entries[(k1, k2)] = t[1]
        phi = TableCocycle(alg, entries)
        got = reduce_cocycle(alg, phi, small_window)
        assert not got.residual_zero()
        assert got.interior() == []
        assert all(e.kind == "boundary" for e in got.residual)
        assert got.residual_payload() != "0"

    @pytest.mark.parametrize("generators, s", [(["2"], "1"), (["2/3", "1/2"], "1/12")])
    @pytest.mark.parametrize("kk", [0, 1])
    def test_class_correction_is_folded_into_f_when_4s2_is_not_1(self, generators, s, kk):
        # phi_k differs from the normalized class representative by the
        # coboundary of an L(0,k) bump, which is zero only when 4s^2 = 1
        alg = LoopAlgebra(GroupData.from_config({"field": "Q", "gamma_generators": generators, "s": s}))
        window = Window(2, 1)
        f = rand_functional(alg, random.Random(29), window)
        c = Scalar(Fraction(5, 2))
        phi = CombinationCocycle(alg, [(c, make_phi_k(alg, kk)), (ONE, make_coboundary(alg, f))])
        got = reduce_cocycle(alg, phi, window)
        assert got.classes == {kk: c}
        assert got.residual_zero()

    def test_payload_shapes(self, alg, window):
        phi = CombinationCocycle(alg, [(Scalar(3), make_phi_k(alg, 0))])
        got = reduce_cocycle(alg, phi, window)
        assert got.classes_payload() == {"0": "3"}
        assert got.residual_payload() == "0"


class TestCentralExtension:
    def test_documented_bracket(self, alg, m2):
        ext = central_extend(alg)
        got = ext.bracket(m2("L", 2, 1), m2("L", -2, -1))
        assert str(got) == "-4*L(0,0) + 1/2*C(0)"
        assert got.central == {0: HALF}

    def test_bracket_without_central_term(self, alg, m2):
        ext = central_extend(alg)
        got = ext.bracket(m2("L", 1, 0), m2("L", 2, 0))
        assert got.element == m2("L", 3, 0)
        assert got.central == {}

    def test_central_generators_are_inert(self, alg, m2):
        ext = central_extend(alg)
        c5 = ext.C(5)
        assert ext.bracket(m2("M", 1, 0), c5).is_zero()
        assert ext.bracket(c5, c5 + ext.wrap(m2("L", 1, 0))).is_zero()

    def test_extended_jacobi(self, alg, small_window):
        ext = central_extend(alg)
        rng = random.Random(19)
        for _ in range(6):
            x = rand_element(alg, rng, small_window)
            y = rand_element(alg, rng, small_window)
            z = rand_element(alg, rng, small_window)
            assert ext.jacobi_defect(x, y, z).is_zero()

    def test_weighted_extension(self, alg, m2):
        ext = central_extend(alg, {0: Scalar(3)})
        got = ext.bracket(m2("L", 2, 1), m2("L", -2, -1))
        assert got.central == {0: Scalar.of(Fraction(3, 2))}
        # other degrees are switched off
        got = ext.bracket(m2("L", 2, 1), m2("L", -2, 0))
        assert got.central == {}

    @pytest.mark.parametrize("weights", [None, {1: 2, -1: 0}])
    def test_bracket_matches_reference(self, alg, weights):
        """Base bracket plus the sum of w_k * phi_k, term pair by term pair."""
        ext = central_extend(alg, weights)
        keys = alg.window_keys(Window(2, 1))
        rng = random.Random(23)

        def full(scale):
            return alg.element({key: Scalar(rng.randint(-3, 3) * scale) for key in keys})

        for scale in (1, Fraction(1, 2), 1):  # later rounds reuse the cached pairs
            x, y = full(scale), full(1)
            central = {}
            for k1, c1 in x.terms.items():
                for k2, c2 in y.terms.items():
                    k = k1.loop + k2.loop
                    w = ONE if weights is None else Scalar(weights.get(k, 0))
                    central[k] = central.get(k, ZERO) + c1 * c2 * w * phi_k_formula(k, k1, k2)
            got = ext.bracket(x, y)
            assert got.element == alg.bracket(x, y)
            assert got.central == {k: v for k, v in central.items() if v}
            assert got.central  # the window reaches the central terms

    @pytest.mark.parametrize("weights", [None, {1: 2}])
    @pytest.mark.parametrize("field", sorted(FAULT_WINDOWS))
    @pytest.mark.parametrize("algebra", [LoopAlgebra, WrongLY])
    def test_jacobi_defect_matches_six_brackets(self, algebra, field, weights):
        """The one-pass defect against its six-bracket formula, on a fresh extension."""
        make_group, window = FAULT_WINDOWS[field]
        alg = algebra(make_group())
        ext, ref = central_extend(alg, weights), central_extend(alg, weights)

        def six(x, y, z):
            return (
                ref.bracket(ref.bracket(x, y).element, z)
                + ref.bracket(ref.bracket(y, z).element, x)
                + ref.bracket(ref.bracket(z, x).element, y)
            )

        rng = random.Random(41)
        nonzero = 0
        for _ in range(8):
            x, y, z = (rand_element(alg, rng, window, terms=4) for _ in range(3))
            got, want = ext.jacobi_defect(x, y, z), six(x, y, z)
            assert got == want
            assert str(got) == str(want)
            nonzero += bool(want)
        # a broken [L, Y] coefficient breaks the identity; the paper's bracket does not
        assert (nonzero > 0) == (algebra is WrongLY)

    def test_bracket_refuses_foreign_operand(self, alg, m2):
        other = LoopAlgebra(GroupData.default())
        foreign = other.monomial(other.key("L", 1, 0))
        ext = central_extend(alg)
        with pytest.raises(GroupMismatchError):
            ext.bracket(m2("L", 1, 0), foreign)
        with pytest.raises(GroupMismatchError):
            ext.bracket(ext.wrap(foreign), m2("L", 1, 0))

    @pytest.mark.parametrize("position", range(3))
    def test_jacobi_defect_refuses_foreign_operand(self, alg, m2, position):
        other = LoopAlgebra(GroupData.default())
        foreign = other.monomial(other.key("L", 1, 0))
        ext = central_extend(alg)
        for bad in (foreign, ext.wrap(foreign)):
            operands = [m2("L", 1, 0), m2("M", -1, 0), m2("Y", Fraction(1, 2), 0)]
            operands[position] = bad
            with pytest.raises(GroupMismatchError):
                ext.jacobi_defect(*operands)

    def test_element_arithmetic_and_str(self, alg, m2):
        ext = central_extend(alg)
        x = ext.wrap(m2("L", 1, 0)) + ext.C(0, Fraction(1, 2)) - ext.C(2)
        assert str(x) == "L(1,0) + 1/2*C(0) - C(2)"
        assert str(ext.C(1) * Scalar(2)) == "2*C(1)"
        assert (x - x).is_zero()
        y = -x
        assert y.central == {0: Scalar.of(Fraction(-1, 2)), 2: ONE}
        with pytest.raises(AttributeError):
            x.central = {}


NON_UNIT = [Scalar(2), Scalar(-3), HALF, Scalar.of(Fraction(-2, 3)), Scalar.of(Fraction(5, 4))]
SQRT2_NON_UNIT = NON_UNIT + [Scalar(0, 1, 2), Scalar(Fraction(1, 2), -3, 2)]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("weights", [None, {1: 2, -1: 0}, {0: 3}])
@pytest.mark.parametrize("field", sorted(FAULT_WINDOWS))
@pytest.mark.parametrize("algebra", [LoopAlgebra, WrongLY])
def test_jacobi_defect_matches_term_by_term_reference(algebra, field, weights, data):
    """The key-triple defect against the base bracket plus w_k * phi_k, outside CentralExtension."""
    make_group, window = FAULT_WINDOWS[field]
    alg = algebra(make_group())
    keys = alg.window_keys(window)
    coeffs = NON_UNIT if field == "Q" else SQRT2_NON_UNIT
    ext = central_extend(alg, weights)

    def operand(terms):
        picked = data.draw(st.lists(st.sampled_from(keys), min_size=terms, max_size=terms, unique=True))
        return alg.element({key: data.draw(st.sampled_from(coeffs)) for key in picked})

    def reference(x, y, z):
        base, central = alg.zero(), {}
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            inner = alg.bracket(u, v)
            base = base + alg.bracket(inner, w)
            for k1, c1 in inner.terms.items():
                for k2, c2 in w.terms.items():
                    k = k1.loop + k2.loop
                    wk = ONE if weights is None else Scalar(weights.get(k, 0))
                    central[k] = central.get(k, ZERO) + c1 * c2 * wk * phi_k_formula(k, k1, k2)
        return ExtendedElement(base, central)

    single = [operand(1) for _ in range(3)]
    multi = [operand(data.draw(st.integers(2, 4))) for _ in range(3)]
    for x, y, z in (single, multi):
        got, want = ext.jacobi_defect(x, y, z), reference(x, y, z)
        assert got == want
        assert str(got) == str(want)
        if algebra is LoopAlgebra:
            assert not want
        # C(k) parts of the operands bracket to zero
        extended = [ExtendedElement(u, {data.draw(st.integers(-2, 2)): c}) for u, c in zip((x, y, z), coeffs)]
        assert ext.jacobi_defect(*extended) == want


def phi_k_formula(k, k1, k2):
    """phi_k(L(a,i), L(-a,k-i)) = (a^3 - a)/12, and zero on every other pair."""
    if k1.kind == k2.kind == "L" and k1.gamma + k2.gamma == ZERO and k1.loop + k2.loop == k:
        a = k1.gamma
        return (a * a * a - a) / 12
    return ZERO


class TestConstructorsMatchFormulas:
    """Each cocycle constructor gives the pair values of its defining formula."""

    @pytest.mark.parametrize("name, window", [("alg", Window(2, 1)), ("root2_alg", Window(1, 1))])
    def test_every_pair(self, request, name, window):
        from loopsv import Cocycle

        alg = request.getfixturevalue(name)
        keys = alg.window_keys(window)
        f = rand_functional(alg, random.Random(31), window, terms=8)

        def coboundary_formula(k1, k2):  # f([x, y])
            t = alg.structure(k1, k2)
            return ZERO if t is None else t[1] * f.value(t[0])

        phis = {k: make_phi_k(alg, k) for k in (-1, 0, 2)}
        delta = make_coboundary(alg, f)
        combo = CombinationCocycle(alg, [(2, phis[0]), (Fraction(-1, 3), delta), (5, phis[-1])])
        entries = {(a, b): Scalar(i + 1) for i, (a, b) in enumerate(zip(keys, keys[2:]))}
        table = TableCocycle(alg, entries)
        assert all(type(phi) is Cocycle for phi in (*phis.values(), delta, combo))
        assert isinstance(table, Cocycle)
        for k1 in keys:
            for k2 in keys:
                for k, phi in phis.items():
                    assert phi.value(k1, k2) == phi_k_formula(k, k1, k2)
                assert delta.value(k1, k2) == coboundary_formula(k1, k2)
                assert combo.value(k1, k2) == (
                    2 * phi_k_formula(0, k1, k2)
                    - coboundary_formula(k1, k2) / 3
                    + 5 * phi_k_formula(-1, k1, k2)
                )
                expected = entries.get((k1, k2), ZERO) - entries.get((k2, k1), ZERO)
                assert table.value(k1, k2) == expected
