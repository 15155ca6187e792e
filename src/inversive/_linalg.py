"""Dense linear algebra over the scalar backends (internal); the only module
that picks an elimination. There are two exact routines. `_minors` expands
the signed minors of an exact matrix's rows as given (geom's lifted rows are
ints or Z[t] int 4-tuples already) row by row, skipping a row that leaves
them all zero and resuming after the rows its last call shared, and divides
nothing: `rank` counts the rows it keeps, and `null_vector` reads the
nullspace vector of n+1 rows in n+2 columns off their signed maximal minors.
`cut` adds a row to a nullspace basis, `zt_cut` to a Z[t] one, and is the
one exact subspace routine: `nullspace` is the identity cut by each of the
`_exact_rows` in turn (each row scaled by a positive integer into Z, or into
Z[t], t**4 = 2, when it has a Quartic2 entry, each entry then the int
4-tuple of its coefficients), and `echelon` reads the reduced rows off the
nullspace of the nullspace. `rref` is Gauss-Jordan for float matrices:
partial pivoting, entries within EPSILON are zero. `zt_row`, `zt_lift` and
`zt_twisted` give the Z[t] rows of one exact dot product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .exactnum import EPSILON, is_zero, promote, zt_cofactor, zt_element, zt_mul, zt_pair

_ZT0 = (0, 0, 0, 0)


def _is_float_matrix(rows) -> bool:
    for r in rows:
        for x in r:
            return isinstance(x, float)
    return False


def _exact_rows(rows: Sequence[Sequence]) -> Optional[Sequence[Sequence]]:
    """The rows the exact elimination takes, None for a float matrix: an int or
    Z[t] one as it is, else each row scaled by a positive integer into Z for a
    rational one (its least common denominator), into Z[t] (`zt_row`) for another."""
    kinds = set(map(type, chain.from_iterable(rows)))
    if kinds <= {int, tuple}:
        return rows
    if kinds <= {int, Fraction}:
        return [scaled_to_integers(r)[1] for r in rows]
    return None if float in kinds else list(map(zt_row, rows))


def scaled_to_integers(xs: Sequence) -> Tuple[int, List[int]]:
    """(D, [x * D for x in xs]) for rationals xs with least common denominator D."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def rref(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form and pivot column indices, by Gauss-Jordan with
    partial pivoting; on floats an entry within EPSILON of zero is zero."""
    m = [list(r) for r in rows]
    tol = EPSILON if _is_float_matrix(m) else 0
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        if r >= len(m):
            break
        i = max(range(r, len(m)), key=lambda i: abs(m[i][col]))
        if not abs(m[i][col]) > tol:
            continue
        m[r], m[i] = m[i], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for j in range(len(m)):
            if j != r and not is_zero(m[j][col]):
                factor = m[j][col]
                m[j] = [a - factor * b for a, b in zip(m[j], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


# The last expansion: for each row it expanded, the row as a tuple and the
# (minors, r) after it. That state depends only on the rows up to it (each
# ncols wide), so a call whose first rows equal the chain's resumes after them
# and no answer changes. The package is single-threaded, so one chain serves
# every caller; callers must not mutate the minors it shares.
_memo: list = []


def _minors(rows: Sequence[Sequence], ncols: int, stop: bool = False) -> Tuple[dict, int]:
    """(minors, r) for exact rows (Z[t] int 4-tuples, or scalars that add,
    subtract and multiply exactly, such as ints): r the rank and minors the
    nonzero r x r minors of r independent rows, keyed by their column subset
    as a bitmask (the empty minor, 1, for r = 0). The minors of the rows kept
    so far expand along the next row (`_laplace`), shared across column
    subsets, skipping zero terms; a row that leaves every minor zero depends
    on the kept ones and is skipped, so the rows kept count the rank. With
    `stop`, the first skipped row ends the expansion, for a caller that needs
    every row. The rows the last call shared with this one are read off
    `_memo`, and this call's chain replaces the rest of it."""
    zt = bool(rows and rows[0]) and type(rows[0][0]) is tuple
    zero = _ZT0 if zt else 0
    memo = _memo
    level, found, k = {0: (1, 0, 0, 0) if zt else 1}, 0, 0
    for row in rows:
        if found == ncols:
            break
        row = tuple(row)
        if k < len(memo):
            if memo[k][0] == row:
                _, minors, r = memo[k]
                k += 1
                if r > found:
                    level, found = minors, r
                elif stop:
                    break
                continue
            del memo[k:]
        if not found:
            minors = {1 << c: x for c, x in enumerate(row) if x != zero}
        else:
            minors = {}
            for cols, terms in _laplace(ncols, found + 1):
                v = zero
                for c, rest, negate in terms:
                    x, m = row[c], level.get(rest)
                    if m is None or x == zero:
                        continue
                    if not zt:
                        v = v - x * m if negate else v + x * m
                        continue
                    (y0, y1, y2, y3), (v0, v1, v2, v3) = zt_mul(x, m), v
                    v = ((v0 - y0, v1 - y1, v2 - y2, v3 - y3) if negate
                         else (v0 + y0, v1 + y1, v2 + y2, v3 + y3))
                if v != zero:
                    minors[cols] = v
        if minors:
            level, found = minors, found + 1
        memo.append((row, level, found))
        k += 1
        if not minors and stop:
            break
    return level, found


def null_vector(rows: Sequence[Sequence], ncols: int) -> Optional[List]:
    """The vector spanning the nullspace of ncols - 1 rows, None when the
    nullspace is larger: from `rref` for float rows, else the signed maximal
    minors ((-1)**j times the minor without column j, from `_minors`) of the
    exact rows as given, which divide nothing: [1] for no rows in one column."""
    if _is_float_matrix(rows):
        ns = nullspace(rows, ncols)
        return ns[0] if len(ns) == 1 else None
    level, found = _minors(rows, ncols, stop=True)
    if found < len(rows):
        return None
    zt = bool(rows) and type(rows[0][0]) is tuple
    zero = _ZT0 if zt else 0
    vec = [level.get((1 << ncols) - 1 - (1 << j), zero) for j in range(ncols)]
    return [(tuple(-c for c in x) if zt else -x) if j & 1 else x for j, x in enumerate(vec)]


@cache
def _laplace(ncols: int, k: int) -> tuple:
    """Each k-subset of ncols columns, 2 <= k <= ncols, as a bitmask with the
    terms of its minor's expansion along the k-th row: (c, the subset without
    c, whether the term is negated) for each column c in it. Cached per level,
    so r rows build only the levels up to r."""
    return tuple((sum(1 << c for c in cols),
                  tuple((c, sum(1 << d for d in cols if d != c), (k - 1 - i) & 1)
                        for i, c in enumerate(cols)))
                 for cols in combinations(range(ncols), k))


def zt_row(row: Sequence) -> List[Tuple[int, int, int, int]]:
    """An exact row scaled by a positive integer, its entries' least common
    denominator, into Z[t]: each entry as the int 4-tuple of its coefficients."""
    parts = [zt_pair(x) for x in row]
    d = lcm(*[q for _, q in parts])
    return [n if q == d else tuple(c * (d // q) for c in n) for n, q in parts]


def zt_lift(xs: Sequence) -> List[int]:
    """The lifted row (<x,x>, x, 1) of a finite exact point x times D**2, D its
    coordinates' least common denominator, into Z[t], flattened: equal points, equal rows."""
    d, xs = lcm(*[zt_pair(x)[1] for x in xs]), zt_row(xs)
    return [*map(sum, zip(*[zt_mul(x, x) for x in xs])), *[c * d for x in xs for c in x],
            d * d, 0, 0, 0]


def zt_twisted(row: Sequence[Sequence[int]]) -> Tuple[List[int], ...]:
    """The four flat int rows w_0..w_3 with <row, v> = sum_k (w_k . v) t**k for
    every Z[t] row v flattened to four ints per entry: w_k holds at 4i + j
    the coefficient of t**k in row[i] * t**j, folded through t**4 = 2."""
    w0, w1, w2, w3 = [], [], [], []
    for a, b, c, d in row:
        w0 += (a, 2 * d, 2 * c, 2 * b)
        w1 += (b, a, 2 * d, 2 * c)
        w2 += (c, b, a, 2 * d)
        w3 += (d, c, b, a)
    return w0, w1, w2, w3


def zt_dot(twisted: Sequence[Sequence[int]], v: Sequence[int]) -> Tuple[int, int, int, int]:
    """The coefficients of <row, v> in Z[t] for twisted = zt_twisted(row) and
    v another Z[t] row flattened: four int dot products."""
    return tuple(sum(map(mul, w, v)) for w in twisted)


def zt_vanishes(twisted: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Whether `zt_dot(twisted, v)` is zero, stopping at its first nonzero
    coefficient."""
    w0, w1, w2, w3 = twisted
    return not (sum(map(mul, w0, v)) or sum(map(mul, w1, v))
                or sum(map(mul, w2, v)) or sum(map(mul, w3, v)))


def _zt_step(p: Sequence[int], a: Sequence[int], f: Sequence[int],
             b: Sequence[int]) -> Tuple[int, int, int, int]:
    """p * a - f * b in Z[t], skipping a product with a zero factor."""
    x0, x1, x2, x3 = _ZT0 if a == _ZT0 else zt_mul(p, a)
    if f != _ZT0 and b != _ZT0:
        y0, y1, y2, y3 = zt_mul(f, b)
        x0, x1, x2, x3 = x0 - y0, x1 - y1, x2 - y2, x3 - y3
    return x0, x1, x2, x3


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


def zt_cut(basis: Sequence[Sequence], twisted: Sequence[Sequence[int]]) -> Optional[List[List]]:
    """`cut` of a basis of Z[t] rows by the row whose `zt_twisted` rows are
    given, each new w_j in its `zt_normal` form."""
    dots = [zt_dot(twisted, [c for x in b for c in x]) for b in basis]
    i = next((i for i, f in enumerate(dots) if f != _ZT0), -1)
    if i < 0:
        return None
    p, top = dots[i], basis[i]
    return [zt_normal([_zt_step(p, x, f, y) for x, y in zip(b, top)])[0]
            if f != _ZT0 else b for j, (b, f) in enumerate(zip(basis, dots)) if j != i]


def zt_normal(v: Sequence[Sequence[int]]) -> Tuple[List[Tuple[int, int, int, int]], int]:
    """(w, q) for a nonzero Z[t] row v: w a multiple of v with coprime ints
    and an int lead q > 0 (a lead times its cofactor is its int norm)."""
    i = next(i for i, x in enumerate(v) if x != _ZT0)
    if v[i][1] or v[i][2] or v[i][3]:
        c = zt_cofactor(v[i])[0]
        v = [x if x == _ZT0 else zt_mul(x, c) for x in v]
    g = gcd(*[c for x in v for c in x])
    g = g if v[i][0] > 0 else -g
    return [(a // g, b // g, c // g, d // g) for a, b, c, d in v], v[i][0] // g


def canonical(v: Sequence) -> List:
    """The normal form of a nonzero exact row up to a nonzero factor, whatever
    backend computed it: a row that is rational after division by its lead as
    primitive ints with a positive lead, any other Q(2^(1/4)) row with lead 1."""
    try:
        g = gcd(*v)
    except TypeError:  # Fraction, Q(2^(1/4)) or Z[t] entries: their Z[t] normal form
        w, q = zt_normal(v if type(v[0]) is tuple else zt_row(v))
        if any(x[1] or x[2] or x[3] for x in w):
            return [zt_element(x, q) for x in w]
        return [x[0] for x in w]
    g = g if next(x for x in v if x) > 0 else -g
    return [x // g for x in v]


def lead_one(v: Sequence, kind: str) -> List:
    """A canonical row divided by its lead, as scalars of `kind`."""
    if all(type(x) is int for x in v):
        lead = next(x for x in v if x)
        v = [Fraction(x, lead) for x in v]
    return [promote(x, kind) for x in v] if kind == "quartic" else list(v)


def rank(rows: Sequence[Sequence], ncols: int) -> int:
    """The rank of a matrix: its `rref` pivot count over floats, else the
    number of rows `_minors` keeps of the exact rows as given (Fraction and
    Quartic2 ones too), the size of its largest nonzero minor. A matrix with
    fewer rows than columns is ranked as its transpose, whose minors span the
    r-subsets of r columns rather than of ncols (a concyclic test in R^n has
    4 rows and n+2 columns)."""
    if _is_float_matrix(rows):
        return len(rref(rows, ncols)[1])
    if len(rows) < ncols:
        rows, ncols = list(zip(*rows)), len(rows)
    return _minors(rows, ncols)[1]


def identity(ncols: int, zt: bool = False) -> List[List]:
    """The unit basis of ncols columns, in Z[t] int 4-tuples when zt."""
    one, zero = ((1, 0, 0, 0), _ZT0) if zt else (1, 0)
    return [[one if j == i else zero for j in range(ncols)] for i in range(ncols)]


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List]:
    """Basis of the right nullspace, one vector per free column f, zero at the
    other free columns. An exact matrix's is the identity cut by each of its
    `_exact_rows` in turn (`cut`, or `zt_cut` over Z[t]): each vector ends at
    its f and is `canonical` (`zt_normal` over Z[t]), so the basis depends only
    on the row space. Integer vectors for a rational matrix, Z[t] ones (int
    4-tuples) for a Z[t] matrix, Quartic2 ones for another exact matrix, and
    float ones, 1.0 at f, from `rref` for a float matrix."""
    exact = _exact_rows(rows)
    if exact is None:
        m, pivots = rref(rows, ncols)
        basis = []
        for free in (c for c in range(ncols) if c not in pivots):
            vec = [0.0] * ncols
            vec[free] = 1.0
            for r, pcol in zip(m, pivots):
                vec[pcol] = -r[free]
            basis.append(vec)
        return basis
    zt = bool(exact and exact[0]) and type(exact[0][0]) is tuple
    basis = identity(ncols, zt)
    for row in exact:
        narrowed = zt_cut(basis, zt_twisted(row)) if zt else cut(basis, row)
        if narrowed is not None:
            basis = narrowed
    if zt and type(rows[0][0]) is not tuple:
        return [[zt_element(x) for x in v] for v in basis]
    return basis


def echelon(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List], List[int]]:
    """The nonzero rows of the reduced row echelon form of an exact matrix,
    each `canonical`, and the pivot columns. With the columns reversed, the
    nullspace of the nullspace is the row space's basis whose vectors each end
    at a pivot, zero at the other pivots: reversed back, the reduced rows."""
    flipped = [r[::-1] for r in _exact_rows(rows)]
    red = [canonical(v[::-1]) for v in reversed(nullspace(nullspace(flipped, ncols), ncols))]
    return red, [next(j for j, x in enumerate(v) if x) for v in red]
