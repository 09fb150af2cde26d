import random
from fractions import Fraction

import pytest
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
