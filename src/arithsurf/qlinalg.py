"""Dense exact linear algebra over Q (Fraction entries).

Vectors are tuples of Fractions, matrices tuples of row tuples.  Sizes
here are tiny (windows of a few dozen coordinates, quotients of dimension
a handful), so plain Gaussian elimination with exact rationals is the
right tool; no pivot-size cleverness is needed.
"""

from fractions import Fraction

from .errors import NotExact


def frac_vec(xs):
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero_vec(v):
    return all(a == 0 for a in v)


def matvec(m, v):
    return tuple(dot(row, v) for row in m)


def matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def unit_rows(indices, n):
    """The standard basis vectors e_i of Q^n for i in indices, as rows."""
    return tuple((_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - i - 1) for i in indices)


def identity_matrix(n):
    return unit_rows(range(n), n)


def coordinate_support(rows):
    """The index i of each row, in row order, when every row is c * e_i
    with c != 0 and the indices i are distinct (a rescaled subset of the
    standard basis, so the rows are independent and span a coordinate
    subspace); None for any other row set."""
    out = []
    seen = set()
    for row in rows:
        nonzero = [i for i, x in enumerate(row) if x]
        if len(nonzero) != 1 or nonzero[0] in seen:
            return None
        seen.add(nonzero[0])
        out.append(nonzero[0])
    return tuple(out)


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns) with zero
    rows dropped and each pivot normalized to 1 and cleared above/below."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def rank(rows):
    return len(rref(rows)[0])


def det(m):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in m):
        raise NotExact(f"determinant of a non-square matrix with {n} rows")
    a = [list(map(Fraction, r)) for r in m]
    out = Fraction(1)
    for c in range(n):
        sel = next((i for i in range(c, n) if a[i][c] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            a[c], a[sel] = a[sel], a[c]
            out = -out
        out *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


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
    red, pivots = rref(tuple(zip(*(basis + targets))))
    if any(c >= k for c in pivots):
        raise NotExact("target vector outside span of basis")
    if len(pivots) != k:
        raise NotExact("dependent basis passed to solve_coords")
    return tuple(tuple(red[j][k + i] for j in range(k)) for i in range(len(targets)))


def intersection(a_rows, b_rows):
    """Basis (rref) of span(a) intersect span(b), by the Zassenhaus trick."""
    if not a_rows or not b_rows:
        return ()
    n = len(a_rows[0])
    block = [tuple(r) + tuple(r) for r in a_rows]
    block += [tuple(r) + (Fraction(0),) * n for r in b_rows]
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


def gram_matrix(rows, inner=None):
    ip = inner or dot
    return tuple(tuple(ip(u, v) for v in rows) for u in rows)


def gram_det(rows, inner=None):
    return det(gram_matrix(rows, inner=inner))


def matrix_inverse(m):
    n = len(m)
    aug = [list(map(Fraction, row)) + list(identity_matrix(n)[i]) for i, row in enumerate(m)]
    red, piv = rref(aug)
    if len(red) < n or piv != tuple(range(n)):
        raise NotExact("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)
