"""Exact linear algebra over the scalar field, and two solution spaces.

``nullspace`` eliminates sparse rows into a reduced echelon form.  The two
entry points compute, on a finite window, the space of functions g with

    (beta - alpha) g(alpha + beta) = beta g(beta) - alpha g(alpha)

once over the group index alone (the loop-diagonal system at loop bound 0),
and once per loop diagonal with the loop index carried along; their rows
come from ``derivations._shear_terms``.  Both spaces are expected to
collapse to the affine family u*index + v; the tests pin that down rather
than assume it.
"""

from __future__ import annotations

from .algebra import Window
from .derivations import _shear_terms
from .groups import GroupData
from .scalars import ZERO, ONE

__all__ = [
    "nullspace",
    "g_constraint_space",
    "shear_constraint_space",
]


def nullspace(rows: list, ncols: int) -> list:
    """Basis of the right nullspace of the given rows (lists of ``ncols`` scalars).

    Rows join a reduced echelon form one at a time, as dicts of their nonzeros.
    """
    echelon: dict = {}  # pivot column -> its row: pivot 1, zero at every other pivot
    for dense in rows:
        if len(dense) != ncols:
            raise ValueError(f"row of length {len(dense)} in a system of {ncols} columns")
        row = {c: v for c, v in enumerate(dense) if v}
        for col in [c for c in row if c in echelon]:
            _add_multiple(row, -row[col], echelon[col])
        if not row:
            continue
        pivot = min(row)
        inv = ONE / row[pivot]
        row = {c: v * inv for c, v in row.items()}
        for other in echelon.values():
            if pivot in other:
                _add_multiple(other, -other[pivot], row)
        echelon[pivot] = row
    basis = []
    for free in (c for c in range(ncols) if c not in echelon):
        vec = [ZERO] * ncols
        vec[free] = ONE
        for col, row in echelon.items():
            vec[col] = -row.get(free, ZERO)
        basis.append(vec)
    return basis


def _add_multiple(row: dict, factor, other: dict) -> None:
    """row += factor * other, in place, dropping entries that cancel."""
    for c, v in other.items():
        row[c] = row.get(c, ZERO) + factor * v
        if not row[c]:
            del row[c]


def g_constraint_space(group: GroupData, window: Window) -> tuple:
    """(basis, gammas): each basis vector is a dict gamma -> scalar.

    This is the sheared system at loop bound 0, with each (gamma, 0) read as gamma.
    """
    basis, keys = shear_constraint_space(group, Window(window.gamma_height, 0))
    return [{g: v for (g, _), v in vec.items()} for vec in basis], [g for g, _ in keys]


def shear_constraint_space(group: GroupData, window: Window) -> tuple:
    """(basis, indices): solutions x[(gamma, i)] of the sheared constraint.

    Each row is the shear constraint at (a, b, i, j) on the diagonal k = i + j,
    with e(gamma, l, l) read as x[(gamma, l)].  At a = b the sum term has
    coefficient 0, so those rows force loop independence even at the window
    boundary; a row that names an unknown outside the window is dropped
    instead of being truncated.
    """
    gammas, _ = group.window_gammas(window)
    loops = list(window.loops())
    keys = [(g, i) for g in gammas for i in loops]
    idx = {key: n for n, key in enumerate(keys)}
    gamma_set = set(gammas)
    rows = []
    for a in gammas:
        for b in gammas:
            if a != b and a + b not in gamma_set:
                continue
            for i in loops:
                for j in loops:
                    row = [ZERO] * len(keys)
                    for c, (gamma, loop, _) in _shear_terms(a, b, i, j, i + j):
                        if c:
                            col = idx.get((gamma, loop))
                            if col is None:
                                break
                            row[col] += c
                    else:
                        rows.append(row)
    basis = nullspace(rows, len(keys))
    return [{key: v for key, v in zip(keys, vec) if v} for vec in basis], keys
