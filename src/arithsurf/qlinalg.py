"""Dense exact linear algebra over Q.

Vectors are tuples of rationals (Fractions or ints), matrices tuples of row
tuples; every result is made of Fractions, except that det of a matrix of
ints is an int.  All elimination runs on one fraction-free kernel over
integer rows.  On entry each row is scaled to integers by the lcm of its
denominators, which changes no span and scales a determinant by the product
of those lcms; rows of unequal length are refused there.  det takes a matrix
of ints as it is, without rescaling.  Elimination is then Bareiss's: each
step multiplies by the new pivot and divides exactly by the previous one, so
every entry stays an integer minor of the input and no entry is ever a
fraction (Bareiss, Math. Comp. 22 (1968); Cohen, GTM 138, Alg. 2.2.6).  det
is that elimination; rref is its Gauss-Jordan form, which divides each row by
its pivot once, at the end.  The kernel uses only *, - and exact //, so it
runs unchanged over any integral domain with exact division.
"""

import math
from fractions import Fraction
from operator import mul

from .errors import NotExact


def frac_vec(xs):
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def _scaled(row):
    """row times the lcm d of its denominators, as a list of ints, and d."""
    try:
        d = math.lcm(*[x.denominator for x in row])
    except AttributeError:  # an entry that is not int or Fraction
        row = frac_vec(row)
        d = math.lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // x.denominator) for x in row], d


def _integer_rows(rows):
    """Each row scaled to integers (_scaled), and the scales; NotExact on rows
    of unequal length."""
    out, scales = [], []
    for row in rows:
        ints, d = _scaled(row)
        if out and len(ints) != len(out[0]):
            raise NotExact(f"rows of unequal lengths {len(out[0])} and {len(ints)}")
        out.append(ints)
        scales.append(d)
    return out, scales


def _columns(rows):
    """The columns of a matrix whose rows all have one length."""
    rows = tuple(rows)
    if any(len(row) != len(rows[0]) for row in rows):
        raise NotExact("rows of unequal lengths")
    return tuple(zip(*rows))


def dot(u, v):
    (a, b), (da, db) = _integer_rows((u, v))
    return Fraction(sum(map(mul, a, b)), da * db)


def is_zero_vec(v):
    return all(a == 0 for a in v)


def matvec(m, v):
    rows, scales = _integer_rows(m)
    v, e = _scaled(v)
    if rows and len(rows[0]) != len(v):
        raise NotExact(f"product of a {len(rows[0])}-column matrix and a vector of length {len(v)}")
    return tuple(Fraction(sum(map(mul, r, v)), d * e) for r, d in zip(rows, scales))


def matmul(a, b):
    """a b, with a's rows and b's columns scaled to integers."""
    rows, row_scales = _integer_rows(a)
    if rows and len(rows[0]) != len(b):
        raise NotExact(f"product of {len(rows[0])}-column and {len(b)}-row matrices")
    cols, col_scales = _integer_rows(_columns(b))
    return tuple(tuple(Fraction(sum(map(mul, r, c)), d * e) for c, e in zip(cols, col_scales))
                 for r, d in zip(rows, row_scales))


_ZERO = Fraction(0)
_ONE = Fraction(1)


def unit_rows(indices, n):
    """The standard basis vectors e_i of Q^n for i in indices, as rows."""
    return tuple((_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - i - 1) for i in indices)


def identity_matrix(n):
    return unit_rows(range(n), n)


# -- the kernel ------------------------------------------------------------------


def _bareiss(rows):
    """Determinant of a square integer matrix (a list of int lists, consumed).
    After step k each remaining entry (i, j) is the minor on rows 0..k, i and
    columns 0..k, j (after the row swaps), so the division by the previous
    pivot is exact and the last pivot is the determinant."""
    sign, prev = 1, 1
    while rows:
        sel = next((i for i, row in enumerate(rows) if row[0]), None)
        if sel is None:
            return 0
        if sel:
            rows[0], rows[sel] = rows[sel], rows[0]
            sign = -sign
        p, tail = rows[0][0], rows[0][1:]
        rows = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
                for row in rows[1:]]
        prev = p
    return sign * prev


def _gauss_jordan(m):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.
    Returns (pivots, d): with r = len(pivots), m[:r] are the pivot rows, each
    with d at its own pivot and 0 at the others, so m[:r] / d is the rref;
    m[r:] are zero.
    Every row other than the pivot row is updated at every step, also one
    with a 0 in the pivot column, so that every entry stays a minor and each
    division by the previous pivot is exact."""
    nrows = len(m)
    pivots = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
    return tuple(pivots), prev


# -- elimination over Q ----------------------------------------------------------


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns) with zero
    rows dropped and each pivot normalized to 1 and cleared above/below."""
    m = _integer_rows(rows)[0]
    pivots, d = _gauss_jordan(m)
    return (tuple(tuple(Fraction(x, d) if x else _ZERO for x in row) for row in m[:len(pivots)]),
            pivots)


def rank(rows):
    return len(_gauss_jordan(_integer_rows(rows)[0])[0])


def det(m):
    """Determinant of a square rational matrix (Bareiss on its integer rows):
    an int for rows of ints, taken without rescaling, and a Fraction
    otherwise."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise NotExact(f"determinant of a non-square matrix with {n} rows")
    if m and all(type(x) is int for r in m for x in r):
        return _bareiss(list(m))
    rows, scales = _integer_rows(m)
    return Fraction(_bareiss(rows), math.prod(scales))


def solve_coords(basis, targets):
    """Coefficient matrix C with C . basis = targets.

    basis: independent rows; targets: rows inside their span.  Raises
    NotExact when a target falls outside the span (the exact analogue of
    a failed least-squares fit).  One rref of the columns (basis | targets):
    the basis columns are the pivots and the target columns read off the
    coordinates."""
    basis = tuple(basis)
    targets = tuple(targets)
    k = len(basis)
    red, pivots = rref(_columns(basis + targets))
    if any(c >= k for c in pivots):
        raise NotExact("target vector outside span of basis")
    if len(pivots) != k:
        raise NotExact("dependent basis passed to solve_coords")
    return tuple(tuple(red[j][k + i] for j in range(k)) for i in range(len(targets)))


def intersection(a_rows, b_rows):
    """Basis (rref) of span(a) intersect span(b), by the Zassenhaus trick.
    A row of either of a length other than a's first makes the block ragged,
    which rref refuses."""
    if not a_rows or not b_rows:
        return ()
    n = len(a_rows[0])
    block = [tuple(r) + tuple(r) for r in a_rows]
    block += [tuple(r) + (0,) * n for r in b_rows]
    red, _ = rref(block)
    out = []
    for row in red:
        if all(x == 0 for x in row[:n]):
            right = row[n:]
            if not is_zero_vec(right):
                out.append(right)
    return rref(out)[0]


def sum_space(a_rows, b_rows):
    return rref(tuple(a_rows) + tuple(b_rows))[0]


def gram_det(rows, inner=None):
    """det of the Gram matrix of rows under inner, by default the standard
    inner product.  That one is taken on the integer rows D R: Gram(D R) =
    D Gram(R) D for the diagonal D of row scales, so det Gram(R) =
    det Gram(D R) / det(D)^2."""
    if inner is not None:
        return det(tuple(tuple(inner(u, v) for v in rows) for u in rows))
    ints, scales = _integer_rows(rows)
    gram = [[sum(map(mul, u, v)) for v in ints] for u in ints]
    return Fraction(_bareiss(gram), math.prod(scales) ** 2)


def matrix_inverse(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotExact(f"inverse of a non-square matrix with {n} rows")
    aug = [tuple(row) + e for row, e in zip(m, identity_matrix(n))]
    red, piv = rref(aug)
    if len(red) < n or piv != tuple(range(n)):
        raise NotExact("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)
