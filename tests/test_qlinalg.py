import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from arithsurf.errors import NotExact
from arithsurf.qlinalg import (
    coordinate_support,
    det,
    frac_vec,
    gram_det,
    intersection,
    matmul,
    matrix_inverse,
    matvec,
    rank,
    rref,
    solve_coords,
    sum_space,
    unit_rows,
)

Q = Fraction

small_frac = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def mat_strategy(n):
    return st.lists(
        st.lists(small_frac, min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_rref_pivots_and_idempotence():
    rows = [frac_vec([2, 4, 0]), frac_vec([1, 2, 1])]
    red, piv = rref(rows)
    assert tuple(piv) == (0, 2)
    assert red[0] == (Q(1), Q(2), Q(0))
    red2, piv2 = rref(red)
    assert red2 == red and piv2 == piv


@settings(max_examples=60, deadline=None)
@given(mat_strategy(3), mat_strategy(3))
def test_det_multiplicative(a, b):
    a = [tuple(r) for r in a]
    b = [tuple(r) for r in b]
    assert det(matmul(a, b)) == det(a) * det(b)


@settings(max_examples=60, deadline=None)
@given(mat_strategy(3))
def test_inverse_roundtrip(m):
    m = [tuple(r) for r in m]
    if det(m) == 0:
        return
    inv = matrix_inverse(m)
    prod = matmul(m, inv)
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (1 if i == j else 0)


def test_solve_coords_exact():
    basis = [frac_vec([1, 0, 2]), frac_vec([0, 1, -1])]
    target = frac_vec([3, 4, 2])
    coords = solve_coords(basis, [target])[0]
    recon = [sum(c * v[k] for c, v in zip(coords, basis)) for k in range(3)]
    assert tuple(recon) == target


def test_solve_coords_rejects_outside_span():
    basis = [frac_vec([1, 0, 0])]
    try:
        solve_coords(basis, [frac_vec([0, 1, 0])])
        assert False, "expected failure for vector outside span"
    except NotExact:
        pass


@settings(max_examples=40, deadline=None)
@given(mat_strategy(4), mat_strategy(4))
def test_intersection_sum_dimension_formula(a, b):
    a = [tuple(r) for r in a]
    b = [tuple(r) for r in b]
    ra, rb = rank(a), rank(b)
    ri = len(intersection(a, b))
    rs = rank(sum_space(a, b))
    assert ra + rb == ri + rs


@settings(max_examples=40, deadline=None)
@given(mat_strategy(4), mat_strategy(4))
def test_intersection_contained_in_both(a, b):
    a = [tuple(r) for r in a]
    b = [tuple(r) for r in b]
    for v in intersection(a, b):
        assert rank(a + [v]) == rank(a) and rank(b + [v]) == rank(b)


def test_gram_det_scales_by_square():
    rows = [frac_vec([1, 2, 0]), frac_vec([0, 1, 1])]
    g1 = gram_det(rows)
    scaled = [tuple(3 * x for x in rows[0]), rows[1]]
    assert gram_det(scaled) == 9 * g1


def test_gram_det_off_a_subspace_is_the_projected_volume():
    """Gram(I + X) = Gram(I) * Gram(X projected orthogonally off span I),
    the identity centext's canonical norm reads its volumes from."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def project_off(v, rows):
        # Gram-Schmidt on rows, then v less its component along each
        ortho = []
        for r in (*rows, v):
            for o in ortho:
                c = dot(r, o) / dot(o, o)
                r = tuple(a - c * b for a, b in zip(r, o))
            ortho.append(r)
        return ortho[-1]

    rng = random.Random(4)
    for k, m in ((0, 2), (1, 1), (2, 2), (3, 1)):
        rows = ()
        while rank(rows) < k + m:  # independent rows, so no volume is 0
            rows = [frac_vec([rng.randint(-3, 3) for _ in range(5)]) for _ in range(k + m)]
        I, X = rows[:k], rows[k:]
        W = [project_off(x, I) for x in X]
        assert all(dot(w, r) == 0 for w in W for r in I)
        assert gram_det(I + X) == gram_det(I) * gram_det(W) != 0


def test_matvec_matches_manual():
    m = [frac_vec([1, 2]), frac_vec([3, 4])]
    assert matvec(m, frac_vec([5, 6])) == (Q(17), Q(39))


def test_coordinate_support():
    rows = frac_vec((0, 2, 0)), frac_vec((Q(-1, 2), 0, 0))
    assert coordinate_support(rows) == (1, 0)
    assert coordinate_support(()) == ()
    assert coordinate_support(unit_rows((2, 0), 3)) == (2, 0)
    for bad in ([(0, 0, 0)], [(1, 1, 0)], [(0, 1, 0), (0, 3, 0)]):
        assert coordinate_support([frac_vec(r) for r in bad]) is None


def test_det_refuses_non_square_matrices():
    for m in (((1, 2),), ((1, 2), (3,))):
        with pytest.raises(NotExact):
            det(m)


@pytest.mark.parametrize("call", [
    lambda: rref(((1, 2), (3,))),  # was IndexError
    lambda: rref(((1,), (3, 4))),  # was rank 1
    lambda: solve_coords(((1, 0), (0, 1)), ((1, 2, 3),)),  # was ((1, 2),)
    lambda: intersection(((1, 0, 0),), ((1, 0),)),  # was ((1, 0),)
    lambda: gram_det(((1, 2), (3,))),  # was 36
    lambda: matrix_inverse(((1, 2, 3), (4, 5, 6))),  # was a 2 x 3 "inverse"
    lambda: matvec(((1, 2, 3),), (1, 2)),
    lambda: matmul(((1, 2),), ((1, 2),)),
])
def test_rows_of_the_wrong_length_are_refused(call):
    with pytest.raises(NotExact):
        call()


# -- the fraction-free kernel against Fraction Gaussian elimination --------------
#
# The reference below is the elimination the package ran on Fraction entries
# before its kernel moved to integer rows, kept here to compare against.


def _ref_rref(rows):
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(m[0])):
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


def _ref_det(m):
    n = len(m)
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


def _ref_dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def _ref_solve_coords(basis, targets):
    k = len(basis)
    red, pivots = _ref_rref(tuple(zip(*(tuple(basis) + tuple(targets)))))
    if any(c >= k for c in pivots) or len(pivots) != k:
        raise NotExact("outside the span, or a dependent basis")
    return tuple(tuple(red[j][k + i] for j in range(k)) for i in range(len(targets)))


def _ref_intersection(a_rows, b_rows):
    if not a_rows or not b_rows:
        return ()
    n = len(a_rows[0])
    block = [tuple(r) + tuple(r) for r in a_rows] + [tuple(r) + (0,) * n for r in b_rows]
    out = [row[n:] for row in _ref_rref(block)[0]
           if not any(row[:n]) and any(row[n:])]
    return _ref_rref(out)[0]


def _ref_inverse(m):
    n = len(m)
    aug = [tuple(row) + tuple(int(i == j) for j in range(n)) for i, row in enumerate(m)]
    red, piv = _ref_rref(aug)
    if piv != tuple(range(n)):
        raise NotExact("singular")
    return tuple(row[n:] for row in red)


def _random_matrix(rng, rows, cols, den):
    """Rationals with denominators up to den, either sign, then some rows
    zeroed, some replaced by combinations of earlier rows and some columns
    zeroed."""
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(cols)]
         for _ in range(rows)]
    for i in range(rows):
        roll = rng.random()
        if roll < 0.15:
            m[i] = [Fraction(0)] * cols
        elif roll < 0.35 and i >= 2:
            a, b = rng.sample(range(i), 2)
            s, t = Fraction(rng.randint(-5, 5), rng.randint(1, den)), rng.randint(-3, 3)
            m[i] = [s * x + t * y for x, y in zip(m[a], m[b])]
    for j in range(cols):
        if rng.random() < 0.15:
            for row in m:
                row[j] = Fraction(0)
    return tuple(map(tuple, m))


def _matrices(seed, count, square=False):
    """count seeded matrices of up to 5 rows and 6 columns (square ones of
    size 0..5), with denominators up to 1, 12 or 10^6, after the fixed
    edge cases: 0 x 0, 1 x 1 and negative pivots."""
    rng = random.Random(seed)
    edges = [(), ((Fraction(-3, 7),),), ((Fraction(0),),),
             ((-2, 1), (4, -3)), ((0, -5), (-7, 2)), ((0, 0), (0, -1))]
    if not square:
        edges += [((),), ((0, 0, 0),), ((-1, 2, 0), (2, -4, 0), (0, 0, -3))]
    out = [tuple(tuple(Fraction(x) for x in row) for row in m) for m in edges]
    while len(out) < count + len(edges):
        rows = rng.randint(1, 5)
        cols = rows if square else rng.randint(1, 6)
        out.append(_random_matrix(rng, rows, cols, rng.choice((1, 12, 10**6))))
    return out


def _sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def test_rref_matches_the_fraction_reference_and_sympy():
    for m in _matrices(31, 150):
        got = rref(m)
        assert got == _ref_rref(m)
        if m and m[0]:
            red, pivots = _sympy(m).rref()
            assert got[1] == tuple(pivots)
            assert [tuple(Fraction(int(x.p), int(x.q)) for x in red.row(i))
                    for i in range(len(pivots))] == list(got[0])
        assert rank(m) == len(got[0])


def test_det_matches_the_fraction_reference_and_sympy():
    for m in _matrices(32, 150, square=True):
        got = det(m)
        assert type(got) is Fraction and got == _ref_det(m)
        if m:
            want = _sympy(m).det()
            assert got == Fraction(int(want.p), int(want.q))


def test_matrix_inverse_matches_the_fraction_reference():
    for m in _matrices(33, 100, square=True):
        try:
            want = _ref_inverse(m)
        except NotExact:
            with pytest.raises(NotExact):
                matrix_inverse(m)
            continue
        assert matrix_inverse(m) == want


def test_products_and_gram_det_match_the_fraction_reference():
    rng = random.Random(34)
    for m in _matrices(34, 120):
        cols = len(m[0]) if m else 0
        v = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 7, 10**6))) for _ in range(cols))
        assert matvec(m, v) == tuple(_ref_dot(row, v) for row in m)
        b = _random_matrix(rng, cols, rng.randint(0, 4), rng.choice((1, 12, 10**6)))
        assert matmul(m, b) == tuple(tuple(_ref_dot(row, col) for col in zip(*b)) for row in m)
        want = _ref_det([[_ref_dot(u, w) for w in m] for u in m])
        assert gram_det(m) == want == gram_det(m, inner=_ref_dot)


def test_solve_coords_and_intersection_match_the_fraction_reference():
    rng = random.Random(35)
    mats = _matrices(35, 120)
    for a, b in zip(mats, mats[1:]):
        if a and b and len(a[0]) == len(b[0]):
            assert intersection(a, b) == _ref_intersection(a, b)
        basis = _ref_rref(a)[0]
        if not basis:
            continue
        # a shuffled basis, rescaled, and targets inside and outside its span
        basis = [tuple(Fraction(rng.randint(1, 9), rng.choice((1, 10**6))) * x for x in row)
                 for row in rng.sample(basis, len(basis))]
        coeffs = [[rng.randint(-4, 4) for _ in basis] for _ in range(rng.randint(0, 3))]
        targets = [tuple(sum(c * row[j] for c, row in zip(cs, basis)) for j in range(len(basis[0])))
                   for cs in coeffs]
        assert solve_coords(basis, targets) == _ref_solve_coords(basis, targets)
        outside = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 10**6))
                         for _ in range(len(basis[0])))]
        try:
            want = _ref_solve_coords(basis, outside)
        except NotExact:
            with pytest.raises(NotExact):
                solve_coords(basis, outside)
        else:
            assert solve_coords(basis, outside) == want
