import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from arithsurf import centext, qlinalg
from arithsurf.centext import (
    ArGLElement,
    DenseOperator,
    ExactSequenceData,
    Lattice,
    LaurentMultOperator,
    LineElement,
    MetrizedSpace,
    QSqrt,
    apply_lattice,
    argl_identity,
    argl_inverse,
    argl_lift,
    argl_scalar,
    auto_window,
    beta_map,
    commutator_pairing,
    contract,
    gamma_discrepancy,
    gamma_sequence,
    group_mul,
    lattice_intersection,
    lattice_sum,
    line_element,
    mult_operator,
    nu_arch_closed,
    nu_arch_oracle,
    prop_b_check,
    pushforward,
    quotient_det,
    standard_lattice,
    zero_lattice,
)
from arithsurf.errors import (
    ArithsurfError,
    DegeneratePosition,
    NonCommuting,
    NotExact,
    ParseError,
    WindowTooSmall,
)
from arithsurf.laurent import LaurentPoly, parse_laurent
from arithsurf.qlinalg import det, matmul, unit_rows
from arithsurf.selftest import random_prop_b_instance

Q = Fraction


def e(k, n):
    return tuple(Q(1) if j == k else Q(0) for j in range(n))


def rand_invertible(rng, n, bound=3):
    while True:
        m = tuple(tuple(Q(rng.randint(-bound, bound)) for _ in range(n)) for _ in range(n))
        if det(m) != 0:
            return m


def rand_lattice(rng, n):
    d = rng.randint(1, n)
    while True:
        rows = [tuple(Q(rng.randint(-3, 3)) for _ in range(n)) for _ in range(d)]
        try:
            return Lattice(n, rows)
        except NotExact:
            continue


# -- QSqrt ---------------------------------------------------------------------


def _rational(x):
    """The value q of a QSqrt that is rational (r = 1 or q = 0)."""
    assert x.is_rational, x
    return x.q


def test_qsqrt_arithmetic():
    r2 = QSqrt.sqrt(Q(2))
    assert _rational(r2 * r2) == 2
    assert _rational(r2 / r2) == 1
    assert _rational(abs(QSqrt(Q(-3, 2)))) == Q(3, 2)
    assert _rational(QSqrt(Q(2), 3) ** 2) == 12
    assert QSqrt.sqrt(Q(8)) == QSqrt(Q(2), 2)  # radical reduction
    assert QSqrt(Q(1), 2) + QSqrt(Q(3), 2) == QSqrt(Q(4), 2)
    with pytest.raises(NotExact):
        QSqrt(Q(1), 2) + QSqrt(Q(1), 3)


def test_qsqrt_log_abs():
    v = QSqrt(Q(1, 2))
    with mp.workprec(128):
        assert abs(v.log_abs(128) + mp.log(2)) < mp.mpf(2) ** -100


# -- relative determinant lines --------------------------------------------------


def test_line_norm_fixtures():
    A = Lattice(2, [e(0, 2)])
    assert LineElement(A, A, 1).norm() == QSqrt(Q(1))
    # spans are Q-subspaces: the length-2 generator enters through reps,
    # not through the span itself
    B = Lattice(2, [e(1, 2)])
    x = line_element(A, B, 1, repsB=[(Q(0), Q(2))])
    assert x.norm() == QSqrt(Q(2))
    C = Lattice(2, [(Q(1), Q(1))])
    assert LineElement(A, C, 1).norm() == QSqrt.sqrt(Q(2))


def test_line_elements_compare_by_value():
    """Line elements, and group elements holding them, are equal when their
    lattices and coordinates are, whatever the coordinate's type; like the
    group elements they are mutable, so neither is hashable."""
    A, B = Lattice(2, [e(0, 2)]), zero_lattice(2)
    assert LineElement(A, B, 3) == LineElement(Lattice(2, [e(0, 2)]), B, QSqrt(Q(3)))
    assert LineElement(A, B, 3) != LineElement(A, B, 2)
    assert LineElement(A, B, 3) != LineElement(B, A, 3)
    op = DenseOperator(((1, 0), (0, 1)))
    assert argl_lift(op, A, Q(2)) == argl_lift(op, A, 2)
    assert argl_lift(op, A, Q(2)) != argl_lift(op, A, 3)
    for x in (LineElement(A, B, 3), argl_lift(op, A, 2)):
        with pytest.raises(TypeError):
            hash(x)


def test_line_element_custom_reps():
    # coordinate conversion: wedge(2 e1) = 2 wedge(e1)
    A = zero_lattice(2)
    B = Lattice(2, [e(0, 2)])
    x = line_element(A, B, coord=1, repsB=[(Q(2), Q(0))])
    assert _rational(x.coord) == 2


def test_contract_scalar_and_nested():
    A = Lattice(2, [e(0, 2), e(1, 2)])
    x = LineElement(A, A, Q(2))
    y = LineElement(A, A, Q(3))
    assert _rational(contract(x, y).coord) == 6
    A3 = Lattice(3, [e(0, 3), e(1, 3), e(2, 3)])
    B3 = Lattice(3, [e(1, 3), e(2, 3)])
    C3 = Lattice(3, [e(2, 3)])
    z = contract(LineElement(A3, B3, Q(5)), LineElement(B3, C3, Q(-2)))
    assert _rational(z.coord) == -10
    assert gamma_discrepancy(A3, B3, C3) == QSqrt(Q(1))


def test_gamma_is_one_on_coordinate_triples(monkeypatch):
    """On three tails the unit norms are 1 and k = 1, so gamma = 1, and
    metrized contract builds no gamma."""
    rng = random.Random(26)
    triples = []
    for _ in range(60):
        n = rng.randint(1, 7)
        A, B, C = (Lattice.tail(n, rng.randint(0, n)) for _ in range(3))
        assert gamma_discrepancy(A, B, C) == 1
        assert centext._contraction_scalar(A, B, C)[1] == 1
        x, y = LineElement(A, B, Q(rng.randint(1, 9), 4)), LineElement(B, C, Q(-3, 5))
        triples.append((x, y, contract(x, y).coord))

    def unused(*args):
        raise AssertionError("metrized contract built gamma on three tails")

    monkeypatch.setattr(centext, "_gamma", unused)
    monkeypatch.setattr(centext, "_canonical_norm", unused)
    for x, y, algebraic in triples:
        assert contract(x, y, metrized=True).coord == algebraic


def test_contract_middle_mismatch():
    A = Lattice(2, [e(0, 2)])
    B = Lattice(2, [e(1, 2)])
    with pytest.raises(NotExact):
        contract(LineElement(A, B, 1), LineElement(A, B, 1))


def test_metrized_contract_is_isometric():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        A, B, C = (rand_lattice(rng, n) for _ in range(3))
        x = LineElement(A, B, 1)
        y = LineElement(B, C, 1)
        try:
            z = contract(x, y, metrized=True)
        except DegeneratePosition:
            continue
        assert z.norm() == x.norm() * y.norm()


def test_metrized_equals_algebraic_times_gamma():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(2, 4)
        A, B, C = (rand_lattice(rng, n) for _ in range(3))
        x = LineElement(A, B, Q(3, 2))
        y = LineElement(B, C, Q(-5))
        try:
            alg = contract(x, y)
            met = contract(x, y, metrized=True)
            g = gamma_discrepancy(A, B, C)
        except DegeneratePosition:
            continue
        assert met.coord == alg.coord * g


def test_metrized_contract_associative():
    rng = random.Random(13)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 4)
        A, B, C, D = (rand_lattice(rng, n) for _ in range(4))
        x = LineElement(A, B, 1)
        y = LineElement(B, C, 1)
        z = LineElement(C, D, 1)
        try:
            lhs = contract(contract(x, y, metrized=True), z, metrized=True)
            rhs = contract(x, contract(y, z, metrized=True), metrized=True)
        except DegeneratePosition:
            continue
        with mp.workprec(128):
            assert abs(lhs.coord.to_mpf(128) - rhs.coord.to_mpf(128)) <= mp.mpf("1e-12")
        checked += 1


# -- the beta comparison map -----------------------------------------------------


def test_beta_squaring():
    A = Lattice(3, [e(0, 3)])
    B = Lattice(3, [e(0, 3), e(1, 3)])
    x = LineElement(A, B, Q(3))
    t = beta_map(x, x, metrized=False)
    assert _rational(t.first.coord) == 1
    assert _rational(t.second.coord) == 9
    assert t.second.A.same_span(A) and t.second.B.same_span(B)


def test_beta_disjoint_multiplies():
    Zero = zero_lattice(4)
    x = LineElement(Zero, Lattice(4, [e(0, 4)]), 2)
    y = LineElement(Zero, Lattice(4, [e(1, 4)]), 7)
    t = beta_map(x, y, metrized=False)
    assert _rational(t.first.coord) == 1
    assert _rational(t.second.coord) == 14
    assert t.second.B.dim == 2


def test_beta_is_isometry():
    rng = random.Random(14)
    done = 0
    while done < 20:
        n = rng.randint(2, 4)
        x = LineElement(rand_lattice(rng, n), rand_lattice(rng, n), Q(rng.randint(1, 5)))
        y = LineElement(rand_lattice(rng, n), rand_lattice(rng, n), Q(rng.randint(1, 5)))
        try:
            t = beta_map(x, y, metrized=True)
        except DegeneratePosition:
            continue
        assert t.norm() == x.norm() * y.norm()
        done += 1


# -- exact sequences -------------------------------------------------------------


def split_seq(g1=None, g2=None):
    return ExactSequenceData(
        MetrizedSpace(1, gram=g1),
        MetrizedSpace(2, gram=g2),
        MetrizedSpace(1),
        inj=((Q(1),), (Q(0),)),
        surj=((Q(0), Q(1)),),
    )


def test_gamma_sequence_fixtures():
    assert gamma_sequence(split_seq()) == QSqrt(Q(1))
    # V1's basis vector has length 2 in V1 but image of length 1
    assert gamma_sequence(split_seq(g1=((Q(4),),))) == QSqrt(Q(1, 2))
    # rescaling the ambient metric by c^2 scales gamma by c^dim... per factor
    assert gamma_sequence(split_seq(g2=((Q(9), Q(0)), (Q(0), Q(9))))) == QSqrt(Q(9))


def test_gamma_sequence_choice_independent():
    rng = random.Random(15)
    g = rand_invertible(rng, 3)
    gram = matmul(tuple(zip(*g)), g)
    seq = ExactSequenceData(
        MetrizedSpace(1),
        MetrizedSpace(3, gram=gram),
        MetrizedSpace(2),
        inj=((Q(1),), (Q(0),), (Q(0),)),
        surj=((Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))),
    )
    base = gamma_sequence(seq)
    for _ in range(20):
        b1 = [(Q(rng.randint(1, 5)),)]
        b3 = rand_invertible(rng, 2)
        lifts = [(Q(rng.randint(-3, 3)), b3[i][0], b3[i][1]) for i in range(2)]
        assert gamma_sequence(seq, basis1=b1, basis3=b3, lifts=lifts) == base


@pytest.mark.parametrize("choice", [
    {"lifts": ((0, 1, 7),)},  # a lift in Q^3, not V2 = Q^2
    {"basis1": ((1, 9),)},  # a basis vector in Q^2, not V1 = Q
    {"basis3": ((1, 9),)},
    {"lifts": ()},  # no lift for the basis vector of V3
])
def test_gamma_sequence_refuses_vectors_of_the_wrong_length(choice):
    """zip used to truncate them: the first three gave 5*sqrt(2),
    1/82*sqrt(82) and 1/82*sqrt(82) on this sequence, whose gamma is 1, and
    the last gave 1 from the Gram volume of inj(e_0) alone."""
    with pytest.raises(NotExact):
        gamma_sequence(split_seq(), **choice)


def test_exact_sequence_validation():
    bad = ExactSequenceData(
        MetrizedSpace(1),
        MetrizedSpace(2),
        MetrizedSpace(1),
        inj=((Q(1),), (Q(0),)),
        surj=((Q(1), Q(0)),),  # surj o inj != 0
    )
    with pytest.raises(NotExact):
        bad.validate()


# -- operators and pushforward ---------------------------------------------------


def test_pushforward_functorial():
    rng = random.Random(16)
    n = 3
    for _ in range(10):
        op1 = DenseOperator(rand_invertible(rng, n))
        op2 = DenseOperator(rand_invertible(rng, n))
        A = rand_lattice(rng, n)
        B = rand_lattice(rng, n)
        x = LineElement(A, B, Q(3, 2))
        lhs = pushforward(op1.compose(op2), x)
        rhs = pushforward(op1, pushforward(op2, x))
        assert lhs.coord == rhs.coord
        assert lhs.A.same_span(rhs.A) and lhs.B.same_span(rhs.B)


def window_lattice(f, window):
    """(f * span{t^k : k >= 0}) cut to the window, with its natural basis
    f t^k listed by ascending degree, and the reference lattice
    A = span(t^0 .. t^M), both built by scanning rows."""
    m, M = window
    nu, top = f.nu, f.top
    if nu < m or top > M:
        raise WindowTooSmall(
            f"support of f = [{nu}, {top}] outside window [{m}, {M}]",
            minimal_window=(min(nu, m), max(top, M)),
        )
    n = M - m + 1

    def to_vec(poly):
        return tuple(poly[m + i] for i in range(n))

    basis = [to_vec(f * LaurentPoly.monomial(1, k)) for k in range(0, M - top + 1)]
    ref = Lattice(n, [to_vec(LaurentPoly.monomial(1, k)) for k in range(0, M + 1)])
    return Lattice(n, basis), ref


def test_window_lattice_dimension():
    f = parse_laurent("2 + t")
    L, ref = window_lattice(f, (-4, 4))
    assert L.dim == 4 and ref.dim == 5
    with pytest.raises(WindowTooSmall) as exc:
        window_lattice(parse_laurent("t^-5"), (-4, 4))
    assert exc.value.minimal_window == (-5, 4)


def test_apply_lattice_shifts_tails():
    w = (0, 6)
    A = standard_lattice(w)
    op = mult_operator(parse_laurent("t^2"), w)
    assert apply_lattice(op, A).dim == A.dim - 2
    down = mult_operator(parse_laurent("t^-1"), w)
    with pytest.raises(WindowTooSmall) as exc:
        apply_lattice(down, A)
    assert exc.value.minimal_window == (-1, 6)


def test_operator_images_are_products_and_columns():
    """LaurentMultOperator.apply is the product of Laurent polynomials, with
    the product's support and minimal window in its refusal, and column(i)
    is its denominator times apply(e_i) without the zero entries, as
    integers."""
    rng = random.Random(23)
    for _ in range(300):
        n, m = rng.randint(1, 7), -rng.randint(0, 4)
        op = mult_operator(rand_laurent(rng), (m, m + n - 1))
        v = tuple(Q(rng.choice([0, 0, 1, -2, 3])) for _ in range(n))
        product = op.f * LaurentPoly({m + i: x for i, x in enumerate(v)})
        if product.is_zero or (product.nu >= m and product.top <= m + n - 1):
            assert op.apply(v) == tuple(product[m + i] for i in range(n))
        else:
            with pytest.raises(WindowTooSmall) as exc:
                op.apply(v)
            assert f"[{product.nu}, {product.top}]" in str(exc.value)
            assert exc.value.minimal_window == (min(product.nu, m), max(product.top, m + n - 1))
        i = rng.randrange(n)
        column = outcome(lambda: op.column(i))
        assert column == outcome(
            lambda: {j: x * op.denominator for j, x in enumerate(op.apply(e(i, n))) if x})
        if isinstance(column, dict):
            assert all(type(x) is int for x in column.values())


# -- commutator pairing ----------------------------------------------------------


def mult_pair(fs, gs, window=None):
    f, g = parse_laurent(fs), parse_laurent(gs)
    if window is None:
        window = auto_window(f, g)
    return mult_operator(f, window), mult_operator(g, window), standard_lattice(window)


def test_pairing_pinned_example():
    g, h, A = mult_pair("t", "2")
    assert _rational(commutator_pairing(g, h, A)) == Q(1, 2)


def test_pairing_equal_arguments():
    g, h, A = mult_pair("t*(3+t)", "t*(3+t)")
    assert _rational(commutator_pairing(g, h, A)) == 1


def test_pairing_antisymmetric():
    g, h, A = mult_pair("t*(3+t)", "5*t^2")
    v = commutator_pairing(g, h, A) * commutator_pairing(h, g, A)
    assert _rational(v) == 1


def test_pairing_lift_independent():
    g, h, A = mult_pair("2*t", "3 + t")
    base = commutator_pairing(g, h, A)
    assert commutator_pairing(g, h, A, a_coord=Q(7, 3), b_coord=Q(-5)) == base


def test_pairing_window_stable():
    f, g = parse_laurent("t*(3+t)"), parse_laurent("5*t^2")
    lo, hi = auto_window(f, g)
    vals = []
    for k in (0, 4, 8):
        w = (lo - k, hi + k)
        vals.append(commutator_pairing(mult_operator(f, w), mult_operator(g, w), standard_lattice(w)))
    assert vals[0] == vals[1] == vals[2]


def oracle_support_shapes():
    """Every (nu, top) of the oracle's random Laurent law: nu in -2..3 and
    at most three more terms, up to t^5."""
    return [(nu, top) for nu in range(-2, 4) for top in range(nu, min(nu + 3, 5) + 1)]


def test_exact_window_is_minimal():
    """On every pair of support shapes the pairing on the exact window is the
    closed form, and a window one shorter at either end is refused."""
    rng = random.Random(25)

    def laurent(nu, top):
        coeffs = {k: Q(rng.randint(1, 9) * rng.choice([-1, 1]), rng.randint(1, 3))
                  for k in range(nu, top + 1) if k in (nu, top) or rng.random() < 0.5}
        return LaurentPoly(coeffs)

    def pairing(f, g, w):
        return commutator_pairing(mult_operator(f, w), mult_operator(g, w), standard_lattice(w))

    shapes = oracle_support_shapes()
    assert len(shapes) == 23
    with mp.workprec(128):
        for (nf, tf), (ng, tg) in ((a, b) for a in shapes for b in shapes):
            f, g = laurent(nf, tf), laurent(ng, tg)
            lo, hi = auto_window(f, g)
            want = nu_arch_closed(f, g)
            assert abs(pairing(f, g, (lo, hi)).log_abs() - want) < mp.mpf("1e-30")
            for w in ((lo + 1, hi), (lo, hi - 1)):
                with pytest.raises(WindowTooSmall):
                    pairing(f, g, w)


def test_oracle_refuses_a_window_below_its_top():
    """A tail shifted past t^(M+1) used to be cut to the empty lattice, and
    the oracle then returned a wrong value: -3 log 3 for f = 2t^4 + t^5,
    g = 3 on (-2, 2), where the closed form is -4 log 3."""
    f, g = parse_laurent("2*t^4+t^5"), parse_laurent("3")
    assert auto_window(f, g) == (0, 3)
    with pytest.raises(WindowTooSmall) as exc:
        nu_arch_oracle(f, g, window=2)
    assert exc.value.minimal_window == (0, 3)
    with pytest.raises(WindowTooSmall, match="above window top 2") as exc:
        apply_lattice(mult_operator(f, (-2, 2)), standard_lattice((-2, 2)))
    assert exc.value.minimal_window == (-2, 3)
    with mp.workprec(128):
        assert abs(nu_arch_oracle(f, g, window=3) + 4 * mp.log(3)) < mp.mpf("1e-30")


def test_oracle_refuses_a_negative_half_width():
    with pytest.raises(ParseError, match="-3"):
        nu_arch_oracle(parse_laurent("t"), parse_laurent("2"), window=-3)


def test_pairing_requires_commuting():
    a = DenseOperator(((Q(1), Q(1)), (Q(0), Q(1))))
    b = DenseOperator(((Q(1), Q(0)), (Q(1), Q(1))))
    A = Lattice(2, [e(0, 2)])
    with pytest.raises(NonCommuting):
        commutator_pairing(a, b, A)


def test_arch_oracle_fixtures():
    with mp.workprec(128):
        tol = mp.mpf("1e-30")
        assert abs(nu_arch_oracle(parse_laurent("2"), parse_laurent("t")) - mp.log(2)) < tol
        assert abs(nu_arch_oracle(parse_laurent("t"), parse_laurent("t"))) < tol
        want = 2 * mp.log(3) - mp.log(5)
        got = nu_arch_oracle(parse_laurent("t*(3+t)"), parse_laurent("5*t^2"))
        assert abs(got - want) < tol


def test_arch_oracle_matches_closed_form():
    rng = random.Random(17)
    with mp.workprec(128):
        for _ in range(25):
            nu_f, nu_g = rng.randint(-2, 3), rng.randint(-2, 3)
            f = LaurentPoly.monomial(Q(rng.randint(1, 9)), nu_f) + LaurentPoly.monomial(
                Q(rng.randint(-9, 9)), nu_f + rng.randint(1, 3)
            )
            g = LaurentPoly.monomial(Q(rng.randint(1, 9)), nu_g) + LaurentPoly.monomial(
                Q(rng.randint(-9, 9)), nu_g + rng.randint(1, 3)
            )
            assert abs(nu_arch_oracle(f, g) - nu_arch_closed(f, g)) < mp.mpf("1e-30")


def rational_laurent(rng):
    """A Laurent polynomial of valuation -3..3 with one to four terms whose
    coefficients have denominators up to 7."""
    nu = rng.randint(-3, 3)
    return LaurentPoly({nu + k: Q(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 7))
                        for k in [0] + rng.sample(range(1, 4), rng.randint(0, 3))})


def test_oracle_pairing_is_the_closed_form_exactly():
    """|<mult-f, mult-g>_A| = |f0(0)|^nu(g) / |g0(0)|^nu(f) as rationals, on
    the exact window and on a wider one.  The coefficients have denominators,
    so every tail minor carries a power of its operator's denominator D, and
    each pushforward scales by D^(kA - kB) with kA - kB = +-nu."""
    rng = random.Random(27)
    scaled = 0
    for _ in range(200):
        f, g = rational_laurent(rng), rational_laurent(rng)
        want = abs(f.bottom_coeff) ** g.nu / abs(g.bottom_coeff) ** f.nu
        lo, hi = auto_window(f, g)
        for window in ((lo, hi), (lo - rng.randint(1, 3), hi + rng.randint(1, 3))):
            ops = mult_operator(f, window), mult_operator(g, window)
            got = commutator_pairing(*ops, standard_lattice(window))
            assert abs(_rational(got)) == want
        scaled += any(op.denominator > 1 and op.f.nu for op in ops)
    assert scaled > 100


# -- the central extension group -------------------------------------------------


def argl_rand(rng, n, A):
    return argl_lift(DenseOperator(rand_invertible(rng, n)), A, coord=Q(rng.randint(1, 4)))


def test_group_laws_exact():
    rng = random.Random(18)
    n = 3
    A = Lattice(n, [e(0, n), e(1, n), e(2, n)])
    for _ in range(5):
        u, v, w = (argl_rand(rng, n, A) for _ in range(3))
        lhs = group_mul(group_mul(u, v), w)
        rhs = group_mul(u, group_mul(v, w))
        assert lhs.op == rhs.op and lhs.elem.coord == rhs.elem.coord
        ident = argl_identity(u.op, A)
        ue = group_mul(u, ident)
        assert ue.op == u.op and ue.elem.coord == u.elem.coord
        prod = group_mul(u, argl_inverse(u))
        assert prod.op == u.op.identity_like() and prod.elem.coord == QSqrt(Q(1))


def test_scalars_are_central():
    rng = random.Random(19)
    n = 3
    A = Lattice(n, [e(0, n), e(1, n), e(2, n)])
    c = argl_scalar(DenseOperator(rand_invertible(rng, n)), A, Q(5, 3))
    u = argl_rand(rng, n, A)
    lhs = group_mul(c, u)
    rhs = group_mul(u, c)
    assert lhs.op == rhs.op and lhs.elem.coord == rhs.elem.coord


def test_prop_b_trivial_and_mult():
    w = (0, 8)
    g = mult_operator(parse_laurent("t"), w)
    h = mult_operator(parse_laurent("2"), w)
    A = standard_lattice(w)
    lhs, rhs, ok = prop_b_check(g, h, A, A)
    assert ok and lhs == rhs


def test_prop_b_nested_tails():
    w = (0, 8)
    g = mult_operator(parse_laurent("t"), w)
    h = mult_operator(parse_laurent("3"), w)
    n = 9
    A = Lattice(n, [e(k, n) for k in range(1, n)])  # t^1..t^8
    B = Lattice(n, [e(k, n) for k in range(3, n)])  # t^3..t^8
    assert lattice_intersection(A, B).same_span(B)
    assert lattice_sum(A, B).same_span(A)
    lhs, rhs, ok = prop_b_check(g, h, A, B)
    assert ok


def test_prop_b_gate_is_exact(monkeypatch):
    # lhs and rhs 1e-12 apart in float would have passed the old 1e-9 fallback
    w = (0, 8)
    g = mult_operator(parse_laurent("t"), w)
    h = mult_operator(parse_laurent("2"), w)
    A = standard_lattice(w)
    pairings = iter([QSqrt(Q(1)), QSqrt(Q(1)), QSqrt(Q(1)), QSqrt(1 + Q(1, 10**12))])
    monkeypatch.setattr(centext, "commutator_pairing", lambda *args: next(pairings))
    lhs, rhs, ok = prop_b_check(g, h, A, A)
    assert not ok and abs(lhs - rhs) < 1e-9


# -- tails against the general path ---------------------------------------------


def rand_laurent(rng, nu_range=(-2, 2)):
    nu = rng.randint(*nu_range)
    coeffs = {nu: Q(rng.choice([1, 2, 3, -2, 5]), rng.randint(1, 3))}
    for _ in range(rng.randint(0, 2)):
        coeffs[nu + rng.randint(1, 3)] = Q(rng.randint(-9, 9), rng.randint(1, 3))
    return LaurentPoly(coeffs)


def force_general_path(monkeypatch):
    """Switch off the one test every index-set shortcut goes through."""
    monkeypatch.setattr(centext, "_indexed", lambda *coords: False)


def count_rref(monkeypatch):
    """A list that gets one entry per rref call, under either name."""
    calls = []
    original = qlinalg.rref

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(qlinalg, "rref", counted)
    monkeypatch.setattr(centext, "rref", counted)
    return calls


def test_coordinate_path_matches_general_path(monkeypatch):
    rng = random.Random(20)
    cases = []
    for i in range(20):
        f, g = rand_laurent(rng), rand_laurent(rng)
        lo, hi = auto_window(f, g)
        window = (lo, hi) if i % 2 else (lo - 1, hi + 2)
        a = Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        b = Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        cases.append((f, g, window, a, b))

    def pairings():
        out = []
        for f, g, window, a, b in cases:
            p = commutator_pairing(mult_operator(f, window), mult_operator(g, window),
                                   standard_lattice(window), a_coord=a, b_coord=b)
            out.append((p.q, p.r))
        return out

    triples = [(n, [rng.randint(0, n) for _ in range(3)], rand_operator(rng, n),
                Q(rng.randint(1, 9), rng.randint(1, 4)))
               for n in (rng.randint(3, 8) for _ in range(150))]

    def index_path_results():
        out = []
        for n, starts, op, a in triples:
            A, B, C = (Lattice.tail(n, start) for start in starts)
            x, y = LineElement(A, B, a), LineElement(B, C, Q(-2, 3))
            out.append((
                outcome(lambda: centext._contraction_scalar(A, B, C)[1]),
                outcome(lambda: qsqrt_key(pushforward(op, x).coord)),
                outcome(lambda: qsqrt_key(contract(x, y, metrized=True).coord)),
            ))
        return out

    rref_calls = count_rref(monkeypatch)
    fast = pairings()
    assert not rref_calls
    fast_triples = index_path_results()
    # every stage that can refuse a pushforward of a tail pair is reached (a
    # shift keeps the quotient dimensions, so their check is not one of them:
    # see test_pushforward_refuses_quotients_that_change_dimension)
    refusals = {r[1] for r in fast_triples if isinstance(r[1][0], str)}
    for kind, fragment in (("WindowTooSmall", "shifted tail"),
                           ("WindowTooSmall", "product support"),
                           ("NotExact", "target vector outside span")):
        assert any(k == kind and fragment in msg for k, msg, _ in refusals), fragment
    assert sum(not isinstance(r[1][0], str) for r in fast_triples) > 50
    # some pushforwards take a tail pair to an image pair of other lattices
    assert any(pushes_off_tails(op, *(Lattice.tail(n, start) for start in starts[:2]))
               for n, starts, op, _ in triples)
    force_general_path(monkeypatch)
    assert pairings() == fast
    assert rref_calls
    assert index_path_results() == fast_triples


def test_pushforward_refuses_quotients_that_change_dimension(monkeypatch):
    """span{e_1} from rows lies in the tail span{e_1, e_2} of Q^3 with a
    1-dimensional quotient; mult-(t^-1 + 1) maps it to span{e_0 + e_1} and
    shifts the tail to all of Q^3, a 2-dimensional quotient."""
    A, B = Lattice(3, [e(1, 3)]), Lattice.tail(3, 1)
    op = mult_operator(parse_laurent("t^-1 + 1"), (0, 2))
    for general in (False, True):
        if general:
            force_general_path(monkeypatch)
        with pytest.raises(WindowTooSmall, match="quotient dimensions changed"):
            pushforward(op, LineElement(A, B, 1))


def pushes_off_tails(op, A, B):
    """Is (A, B) a tail pair whose image under op is not?"""
    try:
        images = apply_lattice(op, A), apply_lattice(op, B)
    except WindowTooSmall:
        return False
    return centext.pair_data(A, B).tails and not centext.pair_data(*images).tails


def outcome(compute):
    """The value, or the raised error as (type, message, minimal_window)."""
    try:
        return compute()
    except (ArithsurfError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "minimal_window", None)


def qsqrt_key(v):
    return v.q, v.r


class RotatedImages(LaurentMultOperator):
    """Multiplication by f after moving e_i to e_(i-1 mod n): a test double
    whose images of a tail's bottom vectors fall below the shifted tail that
    apply_lattice reads off f alone, i.e. outside the image span."""

    def apply(self, v):
        return super().apply(tuple(v[1:]) + tuple(v[:1]))

    def column(self, i):
        return super().column((i - 1) % self.n)


def rand_operator(rng, n):
    """A dense matrix, a scaled permutation matrix, or a multiplication (by
    a random Laurent polynomial, by a monomial, or with rotated images) on a
    window of dimension n."""
    kind = rng.randrange(5)
    if kind == 0:
        return DenseOperator(rand_invertible(rng, n))
    if kind == 1:
        return scaled_permutation(rng, n)
    m = -rng.randint(0, 3)
    window = (m, m + n - 1)
    if kind == 2:
        return mult_operator(rand_laurent(rng, (-2, 2)), window)
    if kind == 3:
        return mult_operator(LaurentPoly.monomial(Q(rng.choice([-2, 1, 3]), 2),
                                                  rng.randint(-2, 2)), window)
    return RotatedImages(rand_laurent(rng, (-1, 1)), window)


def scaled_permutation(rng, n):
    """A scaled permutation matrix: it maps coordinate lattices to
    coordinate lattices."""
    perm = rng.sample(range(n), n)
    return DenseOperator(tuple(tuple(Q(rng.choice([-2, -1, 1, 3])) if j == perm[i] else Q(0)
                                     for j in range(n)) for i in range(n)))


def scaled_unit_rows(rng, indices, n):
    scales = (Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(5, 3))
    return tuple(tuple(rng.choice(scales) if j == i else Q(0) for j in range(n))
                 for i in indices)


def rand_combination(rng, rows, n):
    out = [Q(0)] * n
    for row in rows:
        c = Q(rng.randint(-4, 4))
        out = [x + c * y for x, y in zip(out, row)]
    return tuple(out)


def test_quotient_helpers_on_scaled_unit_rows(monkeypatch):
    """Two tails A and B built as tails, I = A cap B, and scaled unit rows
    c_j * e_j on the indices of A and of B outside I: a vector's coordinate
    on one is its j-th entry over c_j, a vector off A is refused, the bottom
    representatives of A over I are A's unit rows below I, in basis order,
    and a line element of (A|B) with the scaled rows as representatives has
    norm prod |c| on B's side over prod |c| on A's.  The line element is
    built on the tail path, and again under force_general_path, whose pair
    data is not a tail pair."""
    rng = random.Random(21)
    cases = []
    for _ in range(60):
        n = rng.randint(2, 7)
        a, b = rng.randint(0, n - 1), rng.randint(0, n)
        top = max(a, b)
        I_rows = unit_rows(range(top, n), n)
        bA, bB = scaled_unit_rows(rng, range(a, top), n), scaled_unit_rows(rng, range(b, top), n)
        reps_from = tuple(rand_combination(rng, I_rows + bA, n) for _ in bA)
        cases.append((Lattice.tail(n, a), Lattice.tail(n, b), I_rows, bA, bB, reps_from))

    def scale(row):
        return next(x for x in row if x)

    def results(tails):
        for A, B, I_rows, bA, bB, reps_from in cases:
            assert quotient_det(I_rows, reps_from, bA) == det(
                tuple(tuple(v[A.start + i] / scale(row) for i, row in enumerate(bA))
                      for v in reps_from))
            if bA and A.start:
                outside = reps_from[:-1] + (tuple(Q(1) for _ in range(A.n)),)
                with pytest.raises(NotExact, match="target vector outside span"):
                    quotient_det(I_rows, outside, bA)
            assert centext._bottom_reps(A, I_rows) == unit_rows(range(A.start, A.start + len(bA)), A.n)
            assert centext.pair_data(A, B).tails is tails
            x = line_element(A, B, 1, repsA=bA, repsB=bB)
            volume = math.prod(abs(scale(row)) for row in bB) / math.prod(
                abs(scale(row)) for row in bA)
            assert x.norm() == QSqrt(volume)

    results(True)
    force_general_path(monkeypatch)
    results(False)


def oracle_pairs():
    """The two golden pairs and three seeded ones, as (f, g, window)."""
    rng = random.Random(22)
    pairs = [(parse_laurent("t*(3+t)"), parse_laurent("5*t^2"), None),
             (parse_laurent("2*t^-1 + 3 + t"), parse_laurent("1/3 + 2*t"), 10)]
    return pairs + [(rand_laurent(rng, (-3, 3)), rand_laurent(rng, (-3, 3)), None)
                    for _ in range(3)]


def test_oracle_takes_the_coordinate_path(monkeypatch):
    def general_path(*args, **kwargs):
        raise AssertionError("the window oracle left the coordinate path")

    for name in ("gram_det", "solve_coords"):
        monkeypatch.setattr(centext, name, general_path)
    with mp.workprec(128):
        for f, g, window in oracle_pairs():
            assert abs(nu_arch_oracle(f, g, window=window) - nu_arch_closed(f, g)) < 1e-9


def test_oracle_builds_no_rows(monkeypatch):
    """Every determinant of the oracle comes off index tuples: no unit row
    is built, and det only sees the minors of pushforward's images, whose
    size is a quotient dimension |nu(f)| or |nu(g)|, and never an empty
    one (_column_det answers that as 1)."""
    rows_built, det_sizes, all_sizes = [], [], []
    original_unit_rows, original_det = qlinalg.unit_rows, qlinalg.det

    def unit_rows(indices, n):
        rows_built.append((tuple(indices), n))
        return original_unit_rows(indices, n)

    def det(m):
        det_sizes.append(len(m))
        return original_det(m)

    for module in (centext, qlinalg):
        monkeypatch.setattr(module, "unit_rows", unit_rows)
        monkeypatch.setattr(module, "det", det)
    for f, g, window in oracle_pairs():
        det_sizes.clear()
        nu_arch_oracle(f, g, window=window)
        assert max(det_sizes, default=0) <= abs(f.nu) + abs(g.nu)
        all_sizes += det_sizes
    assert rows_built == []
    assert 0 not in all_sizes
    assert max(det_sizes) > 0  # the last pair has a quotient to take minors on


def record_pair_data(monkeypatch):
    """A list that gets (pair key, PairData) for every pair_data call, the
    key by the starts of a tail pair and by rref bases otherwise."""
    calls = []
    original = centext.pair_data

    def recorded(A, B):
        pd = original(A, B)
        key = (A.start, B.start) if pd.tails else (A.rref_basis, B.rref_basis)
        calls.append(((A.n,) + key, pd))
        return pd

    monkeypatch.setattr(centext, "pair_data", recorded)
    return calls


def shares_per_pair(calls):
    """Does every call on one pair return the same PairData, with at least
    one pair asked for more than once?"""
    first = {}
    for key, pd in calls:
        if first.setdefault(key, pd) is not pd:
            return False
    return len(first) < len(calls)


def builds_per_call(calls):
    """Does every call return a PairData of its own?"""
    return len({id(pd) for _, pd in calls}) == len(calls)


def test_pair_data_is_shared_within_one_pairing_only(monkeypatch):
    """The memo holds general pairs only: inside one pairing or group_mul
    every call on one general pair returns the same PairData, a tail pair
    is built on each call, and outside such a call nothing is shared."""
    calls = record_pair_data(monkeypatch)
    window = (-4, 4)
    op, A = mult_operator(parse_laurent("2*t - 3*t^2"), window), standard_lattice(window)
    for general in (False, True):
        if general:
            force_general_path(monkeypatch)
        repeats = False
        for f, g, w in oracle_pairs():
            calls.clear()
            nu_arch_oracle(f, g, window=w)
            assert calls and all(pd.tails != general for _, pd in calls)
            assert shares_per_pair(calls) if general else builds_per_call(calls)
            repeats |= len({key for key, _ in calls}) < len(calls)
        assert repeats  # some pair is asked for twice within one pairing
        # group_mul is a scope of its own
        calls.clear()
        group_mul(argl_lift(op, A, Q(2)), argl_lift(op, A, Q(-3)))
        assert calls and all(pd.tails != general for _, pd in calls)
        assert shares_per_pair(calls) if general else builds_per_call(calls)
    # outside a pairing nothing is shared
    A, B = Lattice(3, [e(0, 3)]), Lattice(3, [e(1, 3)])
    assert centext.pair_data(A, B) is not centext.pair_data(A, B)
    x, y = LineElement(A, B, 1), LineElement(B, A, 1)
    calls.clear()
    contract(x, y, metrized=True)
    contract(x, y, metrized=True)
    keys = [key for key, _ in calls]
    assert builds_per_call(calls) and len(calls) > len(set(keys))


def test_oracle_rescans_no_rows_of_known_shape(monkeypatch):
    """The reference lattice and the shifted tails are built as tails and
    pair_data carries them on, so the oracle reduces no row: the one
    elimination of a lattice, in Lattice.__init__, is for bases given as
    rows."""
    rref_calls = count_rref(monkeypatch)
    for f, g, window in oracle_pairs():
        nu_arch_oracle(f, g, window=window)
    assert rref_calls == []


def prop_slice():
    """Exact values behind a seeded slice of the Prop A and Prop B suites
    and of gamma_sequence, with refusals as outcome() tuples.  Prop A runs
    on coordinate and on general lattices, under scaled permutations and
    dense matrices."""
    rng = random.Random(24)
    out = []
    for i in range(6):
        n = rng.randint(3, 5)
        A = (Lattice(n, scaled_unit_rows(rng, rng.sample(range(n), rng.randint(1, n)), n))
             if i % 2 else rand_lattice(rng, n))
        u, v, w = (argl_lift(scaled_permutation(rng, n) if rng.random() < 0.5
                             else DenseOperator(rand_invertible(rng, n)), A,
                             Q(rng.randint(1, 9), rng.randint(1, 4))) for _ in range(3))
        c = argl_scalar(u.op, A, Q(rng.randint(1, 9), 7))
        out += [outcome(lambda: qsqrt_key(compute().elem.coord)) for compute in (
            lambda: group_mul(group_mul(u, v), w),
            lambda: group_mul(u, group_mul(v, w)),
            lambda: group_mul(u, argl_inverse(u)),
            lambda: group_mul(argl_identity(u.op, A), v),
            lambda: group_mul(c, v),
        )]
    for _ in range(8):
        g, h, A, B = random_prop_b_instance(rng, max_dim=6)
        for L in (A, B, lattice_intersection(A, B), lattice_sum(A, B)):
            out.append(outcome(lambda: qsqrt_key(commutator_pairing(g, h, L))))
    for _ in range(5):
        d1, d3 = rng.randint(1, 2), rng.randint(1, 2)
        n = d1 + d3
        m = rand_invertible(rng, n)
        seq = ExactSequenceData(
            MetrizedSpace(d1), MetrizedSpace(n, gram=matmul(tuple(zip(*m)), m)),
            MetrizedSpace(d3), inj=tuple(zip(*unit_rows(range(d1), n))),
            surj=unit_rows(range(d1, n), n))
        out.append(qsqrt_key(gamma_sequence(seq, basis1=rand_invertible(rng, d1),
                                            basis3=rand_invertible(rng, d3))))
    return out


def test_prop_slice_matches_general_path(monkeypatch):
    """Prop A, Prop B and gamma_sequence give the same exact values on the
    general path."""
    fast = prop_slice()
    force_general_path(monkeypatch)
    assert prop_slice() == fast


def test_tails_match_lattices_built_from_rows():
    """A tail has the basis, rref basis and pivots of the lattice built from
    its unit rows; only the one built as a tail is a tail, also when the
    rows are scaled unit rows in another order."""
    rng = random.Random(28)
    for n, start in ((5, 5), (5, 0), (7, 2), (1, 1)):
        built = Lattice.tail(n, start)
        from_rows = Lattice(n, [e(i, n) for i in range(start, n)])
        for attr in ("basis", "rref_basis", "pivots"):
            assert getattr(built, attr) == getattr(from_rows, attr)
        assert built.pivots == tuple(range(start, n)) and built.start == start
        rows = list(scaled_unit_rows(rng, range(start, n), n))
        rng.shuffle(rows)
        assert Lattice(n, rows).start is None and from_rows.start is None
        assert built == from_rows == Lattice(n, rows)
    A = standard_lattice((-3, 4))
    assert A.pivots == tuple(range(3, 8)) and A.same_span(window_lattice(parse_laurent("1"), (-3, 4))[1])
    for window, minimal in (((2, 6), (0, 6)), ((-5, -1), (-5, 0))):
        with pytest.raises(WindowTooSmall, match=r"does not contain t\^0") as exc:
            standard_lattice(window)
        assert exc.value.minimal_window == minimal


# -- typed errors in place of asserts --------------------------------------------


def test_lattice_rejects_malformed_bases():
    with pytest.raises(NotExact):
        Lattice(3, [(1, 2)])
    for dependent in ([e(0, 3), (Q(2), Q(0), Q(0))], [e(0, 3), (Q(0),) * 3]):
        with pytest.raises(NotExact):
            Lattice(3, dependent)


def other_ambients():
    """Pairs of lattices in Q^3 and Q^4: built from rows, and built as tails."""
    return ((Lattice(3, [e(0, 3)]), Lattice(4, [e(0, 4)])),
            (Lattice.tail(3, 2), Lattice.tail(4, 3)),
            (Lattice.tail(3, 0), Lattice.tail(4, 0)))


@pytest.mark.parametrize("general", [False, True])
def test_pair_data_refuses_lattices_of_other_ambients(monkeypatch, general):
    if general:
        force_general_path(monkeypatch)
    for A, B in other_ambients():
        with pytest.raises(NotExact, match=r"Q\^3 and Q\^4"):
            centext.pair_data(A, B)


@pytest.mark.parametrize("general", [False, True])
def test_sum_and_intersection_refuse_lattices_of_other_ambients(monkeypatch, general):
    if general:
        force_general_path(monkeypatch)
    for A, B in other_ambients():
        for combine in (lattice_sum, lattice_intersection):
            with pytest.raises(NotExact, match=r"Q\^3 and Q\^4"):
                combine(A, B)


@pytest.mark.parametrize("general", [False, True])
def test_operators_on_another_ambient_are_refused(monkeypatch, general):
    """mult-t on the window (0, 3) acts on Q^4, and the reference lattice of
    (0, 4) lies in Q^5."""
    if general:
        force_general_path(monkeypatch)
    g, h = (mult_operator(parse_laurent(text), (0, 3)) for text in ("t", "2"))
    A = standard_lattice((0, 4))
    with pytest.raises(NotExact, match=r"operator on Q\^4 applied to a lattice in Q\^5"):
        apply_lattice(g, A)
    with pytest.raises(NotExact, match=r"operator on Q\^4"):
        commutator_pairing(g, h, A)
    assert commutator_pairing(g, h, standard_lattice((0, 3))) == QSqrt(Q(1, 2))


def test_quotient_det_rejects_count_mismatch():
    with pytest.raises(NotExact):
        quotient_det((), [e(0, 2)], [])


def test_bottom_reps_rejects_rows_outside_lattice():
    with pytest.raises(NotExact):
        centext._bottom_reps(Lattice(3, [e(0, 3)]), (e(1, 3),))
    with pytest.raises(NotExact):
        centext._bottom_reps(Lattice(3, [(Q(1), Q(1), Q(0))]), (e(2, 3),))


def test_group_checks_reference_lattices():
    n = 3
    op = DenseOperator(tuple(e(i, n) for i in range(n)))
    A = Lattice(n, [e(0, n)])
    B = Lattice(n, [e(1, n)])
    with pytest.raises(NotExact):
        ArGLElement(op, A, LineElement(B, B, 1))
    with pytest.raises(NotExact):
        group_mul(argl_lift(op, A), argl_lift(op, B))


def test_laurent_compose_needs_same_window():
    f = parse_laurent("t")
    with pytest.raises(NotExact):
        mult_operator(f, (0, 6)).compose(mult_operator(f, (0, 7)))


def test_pairing_of_multiplications_needs_same_window():
    # two multiplications commute, so only their windows are compared
    f, g = parse_laurent("t"), parse_laurent("2+t")
    with pytest.raises(NotExact, match="only multiplications on the same window compose"):
        commutator_pairing(mult_operator(f, (0, 6)), mult_operator(g, (0, 7)),
                           standard_lattice((0, 6)))
