from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopsv import (
    GroupMismatchError,
    GroupData,
    InvalidKeyError,
    LinearFunctional,
    LoopAlgebra,
    LoopShift,
    Scalar,
    TableCocycle,
    Window,
    Word,
    antisymmetry_witnesses,
    automorphism_witnesses,
    cocycle_defect,
    cocycle_witnesses,
    derivation_witnesses,
    jacobi_witnesses,
    make_ad,
    make_coboundary,
    make_phi_k,
)

from support import FAULT_WINDOWS, DividedLL, LoopDependentLL, RescaledBasis, WrongLY

HALF = Scalar(Fraction(1, 2))
SQRT2 = Scalar(0, 1, 2)
ZERO = Scalar(0)


@pytest.fixture(scope="module")
def m(alg):
    def make(kind, gamma, loop, coeff=1):
        return alg.monomial(alg.key(kind, gamma, loop), coeff)

    return make


def test_key_membership_enforced(alg):
    with pytest.raises(InvalidKeyError):
        alg.key("L", HALF, 0)
    with pytest.raises(InvalidKeyError):
        alg.key("M", HALF, 0)
    with pytest.raises(InvalidKeyError):
        alg.key("Y", 1, 0)
    with pytest.raises(InvalidKeyError):
        alg.key("X", 1, 0)
    # a loop index must be an int: no rounding, no parsing, no bool
    for loop in (1.5, Fraction(3, 2), Fraction(2), "2", True):
        with pytest.raises(InvalidKeyError):
            alg.key("L", 0, loop)


def test_key_index_is_a_number_not_text(alg):
    # scalar text goes through the parser; key() reads an index as a float is read: it refuses it
    for gamma in ("1", "1/2", 1.0):
        with pytest.raises(TypeError):
            alg.key("L", gamma, 0)


def test_bracket_examples(alg, m):
    assert alg.bracket(m("L", 1, 0), m("L", 2, 3)) == m("L", 3, 3)
    assert alg.bracket(m("L", 1, 0), m("Y", HALF, 2)).is_zero()
    assert alg.bracket(m("Y", HALF, 0), m("Y", Fraction(3, 2), 1)) == m("M", 2, 1)
    assert alg.bracket(m("L", 2, 1), m("M", 3, -1)) == m("M", 5, 0, 3)


def test_bracket_dead_sectors(alg, m):
    assert alg.bracket(m("M", 1, 0), m("M", 2, 5)).is_zero()
    assert alg.bracket(m("M", 1, 0), m("Y", HALF, 0)).is_zero()
    assert alg.bracket(m("M", 0, 3), m("L", 2, 0)).is_zero()


def test_bracket_bilinear(alg, m):
    x = 2 * m("L", 1, 0) + m("Y", HALF, 1)
    y = m("L", -1, 0) - 3 * m("M", 2, 0)
    lhs = alg.bracket(x, y)
    expected = (
        2 * alg.bracket(m("L", 1, 0), m("L", -1, 0))
        - 6 * alg.bracket(m("L", 1, 0), m("M", 2, 0))
        + alg.bracket(m("Y", HALF, 1), m("L", -1, 0))
        - 3 * alg.bracket(m("Y", HALF, 1), m("M", 2, 0))
    )
    assert lhs == expected


def test_bracket_group_mismatch(alg, m):
    other = LoopAlgebra(GroupData.default())
    with pytest.raises(GroupMismatchError):
        alg.bracket(m("L", 1, 0), other.monomial(other.key("L", 1, 0)))


def test_grade(alg, m):
    y = m("Y", Fraction(3, 2), 5)
    graded = alg.grade(y)
    assert set(graded) == {Scalar(Fraction(3, 2))}
    assert graded[Scalar(Fraction(3, 2))] == y
    assert alg.grade(m("L", 0, 7)) == {Scalar(0): m("L", 0, 7)}
    mixed = alg.grade(m("L", 1, 0) + m("M", 2, 3))
    assert mixed == {Scalar(1): m("L", 1, 0), Scalar(2): m("M", 2, 3)}
    # grading eigenvalue property
    for gamma, part in mixed.items():
        assert alg.bracket(m("L", 0, 0), part) == gamma * part


def test_is_central(alg, m):
    assert alg.is_central(m("M", 0, 7))
    assert not alg.is_central(m("L", 0, 0))
    assert alg.is_central(alg.zero())
    assert not alg.is_central(m("M", 0, 1) + m("M", 1, 0))


def test_in_maximal_ideal(alg, m):
    assert alg.in_maximal_ideal(m("M", 1, 2) + m("Y", HALF, 0))
    assert not alg.in_maximal_ideal(m("L", 0, 0))
    assert alg.in_maximal_ideal(alg.zero())


def test_jacobi_examples(alg, m):
    def defect(x, y, z):
        return (
            alg.bracket(x, alg.bracket(y, z))
            + alg.bracket(y, alg.bracket(z, x))
            + alg.bracket(z, alg.bracket(x, y))
        )

    assert defect(m("L", 1, 0), m("L", 2, 0), m("L", -3, 1)).is_zero()
    assert defect(m("L", 1, 0), m("Y", HALF, 0), m("Y", -HALF, 0)).is_zero()
    assert defect(m("M", 1, 0), m("M", 2, 0), m("Y", HALF, 0)).is_zero()


def test_window_enumeration(alg, window):
    gammas, cosets = alg.group.window_gammas(window)
    assert gammas == [Scalar(v) for v in range(-3, 4)]
    assert cosets == [Scalar(Fraction(n, 2)) for n in (-5, -3, -1, 1, 3, 5)]
    keys = alg.window_keys(window)
    assert len(keys) == 2 * 7 * 7 + 6 * 7
    assert len(set(keys)) == len(keys)


def test_small_window_axioms(alg, small_window):
    assert antisymmetry_witnesses(alg, small_window) == []
    bad, count = jacobi_witnesses(alg, small_window)
    assert bad == []
    n = len(alg.window_keys(small_window))
    assert count == n * (n + 1) * (n + 2) // 6


def test_grading_additivity(alg, small_window):
    keys = alg.window_keys(small_window)
    for k1 in keys[::7]:
        for k2 in keys[::11]:
            t = alg.structure(k1, k2)
            if t is not None:
                assert t[0].gamma == k1.gamma + k2.gamma
                assert t[0].loop == k1.loop + k2.loop


def test_center_property(alg, small_window, m):
    for key in alg.window_keys(small_window):
        for i in range(-2, 3):
            assert alg.bracket(alg.monomial(key), m("M", 0, i)).is_zero()


def test_element_str(alg, m):
    assert str(alg.zero()) == "0"
    assert str(m("L", 3, 3)) == "L(3,3)"
    assert str(-m("L", -2, 3)) == "-L(-2,3)"
    assert str(3 * m("M", 5, 0)) == "3*M(5,0)"
    x = m("L", 1, -2) + m("M", 0, 3, Fraction(3, 2))
    assert str(x) == "L(1,-2) + 3/2*M(0,3)"
    y = m("Y", HALF, 0, Fraction(-1, 2)) + m("L", 0, 0)
    assert str(y) == "L(0,0) - 1/2*Y(1/2,0)"


def test_element_str_composite_coefficient():
    g = GroupData([Scalar(1)], Scalar(Fraction(1, 2)), field_d=2)
    a = LoopAlgebra(g)
    x = a.monomial(a.key("L", 0, 0), Scalar(1, 1, 2))
    assert str(x) == "(1+sqrt2)*L(0,0)"
    assert str(a.monomial(a.key("L", 0, 0), Scalar(0, 1, 2))) == "sqrt2*L(0,0)"


# -- the bracket against the paper's table, written out from the group indices --

BRACKET_GROUPS = {
    "Q": ({"gamma_generators": ["1"], "s": "1/2"}, Window(2, 2)),
    "Q(sqrt2)": ({"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "sqrt2"], "s": "1/2"}, Window(1, 1)),
    "Z+10sqrt2Z": ({"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "10*sqrt2"], "s": "1/2"}, Window(1, 1)),
}


def reference_bracket(k1, k2):
    """[k1, k2] as (kind, coefficient), from the paper's six nonzero rows."""
    a, b = k1.gamma, k2.gamma
    pair = k1.kind + k2.kind
    if pair == "LL":
        return "L", b - a
    if pair == "LM":
        return "M", b
    if pair == "ML":
        return "M", -a
    if pair == "LY":
        return "Y", b - a / 2
    if pair == "YL":
        return "Y", b / 2 - a
    if pair == "YY":
        return "M", b - a
    return None, ZERO


@pytest.mark.parametrize("name", sorted(BRACKET_GROUPS))
def test_structure_matches_bracket_table(name):
    config, window = BRACKET_GROUPS[name]
    alg = LoopAlgebra(GroupData.from_config(config))
    table = alg._sweep_table(window)
    columns = table.keys[: table.width]
    for k1 in table.keys[: table.n]:
        for k2 in columns:
            kind, coeff = reference_bracket(k1, k2)
            got = alg._structure(k1, k2)
            if not coeff:
                assert got is None, (k1, k2)
                continue
            assert got is not None, (k1, k2)
            assert got[0] is alg.key(kind, k1.gamma + k2.gamma, k1.loop + k2.loop), (k1, k2)
            assert got[1] == coeff, (k1, k2)


class CountingAlgebra(LoopAlgebra):
    """Records every ``_structure`` call."""

    def __init__(self, group):
        super().__init__(group)
        self.calls = []

    def _structure(self, k1, k2):
        self.calls.append((k1, k2))
        return super()._structure(k1, k2)


@pytest.mark.parametrize("name", sorted(BRACKET_GROUPS))
def test_table_calls_structure_once_per_pair(name):
    config, window = BRACKET_GROUPS[name]
    alg = CountingAlgebra(GroupData.from_config(config))
    alg.window_keys(window)
    assert alg.calls == []
    table = alg._sweep_table(window)
    pairs = {(k1, k2) for k1 in table.keys[: table.n] for k2 in table.keys[: table.width]}
    assert len(alg.calls) == table.n * table.width
    assert set(alg.calls) == pairs


@pytest.mark.parametrize(
    "config, window", [(BRACKET_GROUPS["Q"][0], Window(4, 4)), BRACKET_GROUPS["Q(sqrt2)"]]
)
def test_table_keys_hash_apart(config, window):
    """-1 and -2 hash alike in CPython; no two keys of a table, and no two of the algebra's key tags, may."""
    alg = LoopAlgebra(GroupData.from_config(config))
    keys = alg._sweep_table(window).keys
    assert len({hash(key) for key in keys}) == len(keys)
    assert len({hash(tag) for tag in alg._keys}) == len(alg._keys) >= len(keys)


def test_keys_of_equal_groups_are_equal_with_equal_hashes():
    first, second = LoopAlgebra(GroupData.default()), LoopAlgebra(GroupData.default())
    for key in first.window_keys(Window(2, 1)):
        other = second.key(key.kind, key.gamma, key.loop)
        assert other is not key
        assert other == key and hash(other) == hash(key)


# -- the window sweeps against reference loops over alg.structure, under injected faults --


def reference_antisymmetry(alg, window, limit):
    keys = alg.window_keys(window)
    bad = []
    for i, k1 in enumerate(keys):
        for k2 in keys[i:]:
            fwd, rev = alg.structure(k1, k2), alg.structure(k2, k1)
            if fwd is None and rev is None:
                continue
            if fwd is None or rev is None or fwd[0] != rev[0] or fwd[1] + rev[1]:
                bad.append((k1, k2))
                if len(bad) >= limit:
                    return bad
    return bad


def reference_jacobi(alg, window, limit):
    keys = alg.window_keys(window)
    n = len(keys)
    bad, count = [], 0
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                ki, kj, kk = keys[i], keys[j], keys[k]
                count += 1
                acc = {}
                for a, (b, c) in ((ki, (kj, kk)), (kj, (kk, ki)), (kk, (ki, kj))):
                    inner = alg.structure(b, c)
                    outer = inner and alg.structure(a, inner[0])
                    if outer:
                        acc[outer[0]] = acc.get(outer[0], 0) + inner[1] * outer[1]
                if any(acc.values()):
                    bad.append((ki, kj, kk))
                    if len(bad) >= limit:
                        return bad, count
    return bad, count


def reference_cocycle(alg, phi, window, limit):
    def paired(a, b, c):
        t = alg.structure(b, c)
        return t[1] * phi.value(a, t[0]) if t else 0

    keys = alg.window_keys(window)
    n = len(keys)
    bad, count = [], 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ki, kj, kk = keys[i], keys[j], keys[k]
                count += 1
                if paired(ki, kj, kk) + paired(kj, kk, ki) + paired(kk, ki, kj):
                    bad.append((ki, kj, kk))
                    if len(bad) >= limit:
                        return bad, count
    return bad, count


def non_cocycle(alg, field):
    """A table form that fails the cocycle identity on the field's fault window."""
    if field == "Q":
        # M(2,0) lies past the window (1,1); only [L(1,0), M(1,0)] reaches its column
        return TableCocycle(alg, {(alg.key("L", -1, 0), alg.key("M", 2, 0)): 1})
    # (1+sqrt2) phi_0 on every L pair the window's brackets reach, plus one sqrt2 entry
    # whose one defect is sqrt2: a sweep that dropped the sqrt2 parts would miss it
    phi0 = make_phi_k(alg, 0)
    gammas, _ = alg.group.window_gammas(Window(2, 0))
    entries = {}
    for gamma in gammas:
        pair = alg.key("L", gamma, 0), alg.key("L", -gamma, 0)
        entries[pair] = Scalar(1, 1, 2) * phi0.value(*pair)
    entries[(alg.key("L", Scalar(-1, -2, 2), 0), alg.key("L", Scalar(1, -4, 2), 0))] = SQRT2
    return TableCocycle(alg, entries)


@pytest.mark.parametrize("limit", [10**6, 3, 2, 1])
@pytest.mark.parametrize("field", sorted(FAULT_WINDOWS))
@pytest.mark.parametrize("faulty", [WrongLY, LoopDependentLL, LoopAlgebra])
def test_sweeps_match_reference_under_faults(faulty, field, limit):
    make_group, window = FAULT_WINDOWS[field]
    alg = faulty(make_group())
    keys = alg.window_keys(window)
    coboundary = make_coboundary(
        alg, LinearFunctional({key: Scalar(m % 3 + 1) for m, key in enumerate(keys)})
    )

    assert antisymmetry_witnesses(alg, window, limit) == reference_antisymmetry(alg, window, limit)
    jacobi = jacobi_witnesses(alg, window, limit)
    assert jacobi == reference_jacobi(alg, window, limit)
    form = non_cocycle(alg, field)
    for phi in (make_phi_k(alg, 0), coboundary, form):
        assert cocycle_witnesses(alg, phi, window, limit) == reference_cocycle(alg, phi, window, limit)
    if field == "Q":
        # both faults break the Jacobi identity on this window; the paper's bracket keeps it
        assert len(jacobi[0]) == min(limit, {WrongLY: 144, LoopDependentLL: 232, LoopAlgebra: 0}[faulty])
    if faulty is LoopAlgebra:
        bad, _ = cocycle_witnesses(alg, form, window, limit)
        assert bad
        if field == "Q(sqrt2)":
            (triple,) = bad
            assert cocycle_defect(form, *map(alg.monomial, triple)) == SQRT2


def test_sweeps_multiply_square_root_parts_exactly():
    make_group, window = FAULT_WINDOWS["Q(sqrt2)"]
    alg = RescaledBasis(make_group())
    keys = alg.window_keys(window)
    n = len(keys)
    coboundary = make_coboundary(
        alg, LinearFunctional({key: Scalar(m % 3, 1, 2) for m, key in enumerate(keys)})
    )
    assert antisymmetry_witnesses(alg, window) == []
    assert jacobi_witnesses(alg, window) == ([], n * (n + 1) * (n + 2) // 6)
    assert cocycle_witnesses(alg, coboundary, window) == ([], n * (n - 1) * (n - 2) // 6)


# the windows small enough for the reference loops: Q(sqrt2) at (1,1) already has 120 keys
RANDOM_WINDOWS = [("Q", Window(h, b)) for h in (1, 2) for b in (0, 1)] + [("Q(sqrt2)", Window(1, 0))]
FAULTY = [LoopAlgebra, WrongLY, LoopDependentLL, DividedLL, RescaledBasis]


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(RANDOM_WINDOWS),
    st.sampled_from(FAULTY),
    st.integers(1, 50),
    st.integers(-3, 3),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4),
)
def test_cyclic_sweeps_match_reference_on_random_windows(field_window, faulty, limit, k, values):
    field, window = field_window
    if faulty is RescaledBasis and field == "Q":
        faulty = LoopAlgebra  # its sqrt2 scaling lies outside Q, so no table builds
    alg = faulty(FAULT_WINDOWS[field][0]())
    d = alg.group.field_d

    def value(m):
        a, b = values[m % len(values)]
        return Scalar(a, b, d) if d else Scalar(a)

    coboundary = make_coboundary(
        alg, LinearFunctional({key: value(m) for m, key in enumerate(alg.window_keys(window))})
    )
    assert jacobi_witnesses(alg, window, limit) == reference_jacobi(alg, window, limit)
    for phi in (make_phi_k(alg, k), coboundary, non_cocycle(alg, field)):
        assert cocycle_witnesses(alg, phi, window, limit) == reference_cocycle(alg, phi, window, limit)


def test_block_witnesses_come_in_increasing_k():
    """In the block (L(-1,0), L(0,0)), M(0,1) is a witness by its [k,[i,j]] term alone and
    Y(1/2,0), after it, has an [i,[j,k]] term.  That walk runs first, yet M(0,1) is listed first."""
    alg = LoopAlgebra(GroupData.default())
    window = Window(1, 1)
    i, j, first, second = alg.key("L", -1, 0), alg.key("L", 0, 0), alg.key("M", 0, 1), alg.key("Y", HALF, 0)
    phi = TableCocycle(alg, {(first, i): 1, (i, second): 1})
    assert alg.structure(j, first) is None and alg.structure(first, i) is None
    assert phi.value(i, alg.structure(j, second)[0])
    for limit, block in ((10**6, [first, second]), (6, [first, second]), (5, [first])):
        bad, count = cocycle_witnesses(alg, phi, window, limit)
        assert (bad, count) == reference_cocycle(alg, phi, window, limit)
        assert [t[2] for t in bad if t[:2] == (i, j)] == block


SWEEPS = {
    "antisymmetry": lambda alg, window, limit: antisymmetry_witnesses(alg, window, limit),
    "jacobi": lambda alg, window, limit: jacobi_witnesses(alg, window, limit),
    "cocycle": lambda alg, window, limit: cocycle_witnesses(alg, make_phi_k(alg, 0), window, limit),
    "derivation": lambda alg, window, limit: derivation_witnesses(
        alg, make_ad(alg, alg.monomial(alg.key("L", 1, 0))), window, limit
    ),
    "automorphism": lambda alg, window, limit: automorphism_witnesses(
        alg, Word(alg, [LoopShift((1,))]), window, limit
    ),
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_limit_below_one_is_refused(sweep):
    alg = WrongLY(GroupData.default())
    window = Window(1, 1)
    for limit in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            SWEEPS[sweep](alg, window, limit)
    SWEEPS[sweep](alg, window, 1)
