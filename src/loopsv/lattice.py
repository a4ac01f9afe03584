"""Small exact integer-lattice helpers.

Everything here works on rank <= 2 lattices given by rational coordinate
vectors, which keeps brute-force Hermite reduction entirely adequate.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _row_sub(row, other, q):
    for i in range(len(row)):
        row[i] -= q * other[i]


def hermite_form(rows):
    """Row Hermite form of an integer matrix.

    Pivots are positive, entries above a pivot are reduced modulo it, and zero
    rows sink to the bottom.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    h = [list(r) for r in rows]
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            live = [i for i in range(r, m) if h[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(h[i][c]))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
            done = True
            for i in range(r + 1, m):
                if h[i][c]:
                    _row_sub(h[i], h[r], h[i][c] // h[r][c])
                    if h[i][c]:
                        done = False
            if done:
                break
        if h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-v for v in h[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    _row_sub(h[i], h[r], q)
            r += 1
    return h


def lattice_basis(rows, dens=None):
    """Canonical basis (Hermite rows over a common denominator) of the span.

    Row ``i`` stands for ``rows[i] / dens[i]`` when ``dens`` is given.
    """
    if not rows:
        return []
    dens = dens or [1] * len(rows)
    den = math.lcm(*(d * v.denominator for row, d in zip(rows, dens) for v in row))
    int_rows = [[int(v * (den // d)) for v in row] for row, d in zip(rows, dens)]
    return [[Fraction(v, den) for v in row] for row in hermite_form(int_rows) if any(row)]


def coordinates(basis_rows, x, den=1):
    """Integer coordinates of the vector ``x / den`` over echelon ``basis_rows``, or None.

    Each row's pivot sits right of the one above it, as ``lattice_basis``
    returns them, so back-substitution row by row finds the only candidate;
    the vector lies in the lattice exactly when every step is integral and
    nothing is left over.
    """
    rem = list(x)
    out = []
    for row in basis_rows:
        p = next(j for j, v in enumerate(row) if v)
        q = rem[p] / (row[p] * den)
        if q.denominator != 1:
            return None
        out.append(int(q))
        if q:
            for j, v in enumerate(row):
                rem[j] -= q * v * den
    return None if any(rem) else tuple(out)
