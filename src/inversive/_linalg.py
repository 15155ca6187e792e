"""Dense linear algebra over the scalar backends (internal); the only module
that picks an elimination. `rank`, `nullspace` and `echelon` send a rational
matrix (int and Fraction entries), each row's denominators cleared, to
`bareiss`: fraction-free elimination whose every entry stays an integer
minor of the input. Quartic2 and float matrices go through `rref` over the
field; the float path uses partial pivoting and treats entries within
EPSILON as zero, the exact paths take the first nonzero pivot. `cut` adds a
row to a nullspace basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .exactnum import EPSILON, Quartic2, is_zero, promote

_ONE = Quartic2(1)


def _copy(rows: Sequence[Sequence]) -> List[List]:
    return [list(r) for r in rows]


def _is_float_matrix(rows) -> bool:
    for r in rows:
        for x in r:
            return isinstance(x, float)
    return False


def _integer_rows(rows: Sequence[Sequence]) -> Optional[Sequence[Sequence[int]]]:
    """A rational matrix with each row scaled to ints by its least common
    denominator (an all-int one as it is, after one pass), else None."""
    if all(type(x) is int for r in rows for x in r):
        return rows
    if all(type(x) is int or type(x) is Fraction for r in rows for x in r):
        return [scaled_to_integers(r)[1] for r in rows]
    return None


def scaled_to_integers(xs: Sequence) -> Tuple[int, List[int]]:
    """(D, [x * D for x in xs]) for rationals xs with least common denominator D."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def _pick_pivot(rows, col: int, start: int, use_float: bool) -> int:
    best = -1
    if use_float:
        mag = EPSILON
        for i in range(start, len(rows)):
            if abs(rows[i][col]) > mag:
                mag = abs(rows[i][col])
                best = i
    else:
        for i in range(start, len(rows)):
            if not is_zero(rows[i][col]):
                best = i
                break
    return best


def rref(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = _copy(rows)
    use_float = _is_float_matrix(m)
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        if r >= len(m):
            break
        i = _pick_pivot(m, col, r, use_float)
        if i < 0:
            continue
        m[r], m[i] = m[i], m[r]
        inv = m[r][col]
        if type(inv) is int and not use_float:
            # an int pivot beside Quartic2 entries must not turn ints into floats
            inv = Fraction(inv)
        m[r] = [x / inv for x in m[r]]
        for j in range(len(m)):
            if j != r and not is_zero(m[j][col]):
                factor = m[j][col]
                m[j] = [a - factor * b for a, b in zip(m[j], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def bareiss(rows: Sequence[Sequence[int]], ncols: int,
            reduced: bool = True) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss
    1968) and its pivot columns; with reduced=False only the rows below each
    pivot are eliminated, which is all the rank needs.

    The reduced result is the reduced row echelon form scaled by d, the last
    pivot: every pivot row carries d at its pivot column and zeros at the
    others. Every entry is a minor of the row-permuted input, so each division
    is exact. With full row rank and one free column f, the nullspace vector
    (d at f, -row[f] at each pivot) is, up to one common sign, the vector of
    signed maximal minors.
    """
    m = _copy(rows)
    pivots: List[int] = []
    prev = 1
    r = 0
    for col in range(ncols):
        if r >= len(m):
            break
        i = next((i for i in range(r, len(m)) if m[i][col]), -1)
        if i < 0:
            continue
        m[r], m[i] = m[i], m[r]
        top = m[r]
        p = top[col]
        for j in range(0 if reduced else r + 1, len(m)):
            if j != r:
                row = m[j]
                f = row[col]
                m[j] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(col)
        r += 1
    return m, pivots


def cut(basis: Sequence[Sequence], row: Sequence) -> Optional[List[List]]:
    """A basis of the vectors of span(basis) that annihilate `row`, None when
    all do: w_j = (r.b_i) b_j - (r.b_j) b_i, j != i, for the first b_i with
    r.b_i != 0, each kept `canonical`."""
    dots = [sum(map(mul, row, b)) for b in basis]
    i = next((i for i, f in enumerate(dots) if f), -1)
    if i < 0:
        return None
    p, top = dots[i], basis[i]
    return [canonical([p * x - f * y for x, y in zip(b, top)]) if f else b
            for j, (b, f) in enumerate(zip(basis, dots)) if j != i]


def canonical(v: Sequence) -> List:
    """The normal form of a nonzero exact row up to a nonzero factor, whatever
    backend computed it: a row that is rational after division by its lead as
    primitive ints with a positive lead, any other Q(2^(1/4)) row with lead 1."""
    try:
        g = gcd(*v)
    except TypeError:  # Fraction or Q(2^(1/4)) entries
        if any(isinstance(x, Quartic2) for x in v):
            inv = _ONE / next(x for x in v if x)
            v = [x * inv for x in v]
            if not all(x.is_rational for x in v):
                return v
            v = [x.to_fraction() for x in v]
        v = scaled_to_integers(v)[1]
        g = gcd(*v)
    g = g if next(x for x in v if x) > 0 else -g
    return [x // g for x in v]


def lead_one(v: Sequence, kind: str) -> List:
    """A canonical row divided by its lead, as scalars of `kind`."""
    if all(type(x) is int for x in v):
        lead = next(x for x in v if x)
        v = [Fraction(x, lead) for x in v]
    return [promote(x, kind) for x in v] if kind == "quartic" else list(v)


def rank(rows: Sequence[Sequence], ncols: int) -> int:
    ints = _integer_rows(rows)
    return len((rref(rows, ncols) if ints is None else bareiss(ints, ncols, False))[1])


def echelon(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List], List[int]]:
    """The nonzero rows of the reduced row echelon form of an exact matrix,
    each `canonical`, and the pivot columns; a rational matrix's come from
    the reduced Bareiss rows."""
    ints = _integer_rows(rows)
    m, pivots = rref(rows, ncols) if ints is None else bareiss(ints, ncols)
    return [canonical(r) for r in m[: len(pivots)]], pivots


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List]:
    """Basis of the right nullspace, one vector per free column; integer
    vectors for a rational matrix."""
    ints = _integer_rows(rows)
    m, pivots = rref(rows, ncols) if ints is None else bareiss(ints, ncols)
    # the first pivot is the matrix's own one (d for bareiss), so a float
    # matrix gets float entries at the free columns
    scale = m[0][pivots[0]] if pivots else 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [scale - scale] * ncols
        vec[free] = scale
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -m[row_idx][free]
        basis.append(vec)
    return basis
