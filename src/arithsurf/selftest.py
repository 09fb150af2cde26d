"""Seeded randomized verification suites.

Each suite draws its population from an explicit random.Random(seed) so a
(seed, cases) pair pins the byte-level output; the CLI selftest command and
the acceptance tests share these generators.
"""

import functools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .centext import (
    DenseOperator,
    Lattice,
    QSqrt,
    argl_identity,
    argl_inverse,
    argl_lift,
    argl_scalar,
    group_mul,
    nu_arch_closed,
    nu_arch_oracle,
    prop_b_check,
)
from .config import default_config
from .errors import DegeneratePosition, NotExact, ParseError, WindowTooSmall
from .intpoly import parse_intpoly
from .laurent import LaurentPoly
from .laws import verify_horizontal_law, verify_point_law, verify_vertical_law
from .modp import random_monic_irreducible
from .qlinalg import det, matmul, matrix_inverse
from .surface import ClosedPoint, make_function, parse_curve

POINT_LAW_BASES = tuple(
    parse_intpoly(s) for s in ("t", "t-1", "t-5", "t+2", "t^2+1", "t^2+2", "2*t-1")
)
VERTICAL_PRIMES = (2, 3, 5, 7, 101)
HORIZONTAL_CURVES = ("H:t", "H:t-2", "H:t^2+1", "H:t^2-2", "H:t^3-2")
POINT_PRIMES = (2, 3, 5, 7, 11, 13)
# exponents of a random function's bases lie in [-FUNCTION_MAX_EXP,
# FUNCTION_MAX_EXP] \ {0}; its unit is a/b with 0 < |a|, b <= UNIT_BOUND
FUNCTION_MAX_EXP = 3
UNIT_BOUND = 50
# entries of the rows of a random lattice lie in [-LATTICE_BOUND, LATTICE_BOUND]
LATTICE_BOUND = 3


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    inconclusive: int = 0
    elapsed: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def total(self):
        return self.passed + self.failed + self.inconclusive

    @property
    def ok(self):
        return self.failed == 0

    def record(self, verdict, detail=None):
        if verdict == "pass":
            self.passed += 1
        elif verdict == "inconclusive":
            self.inconclusive += 1
        else:
            self.failed += 1
            if detail and len(self.failures) < 10:
                self.failures.append(detail)

    def summary_line(self):
        line = f"{self.name} {self.passed}/{self.total}"
        if self.inconclusive:
            line += f" ({self.inconclusive} inconclusive)"
        if self.failed:
            line += f" [{self.failed} FAILED]"
        return line + f" in {self.elapsed:.3f} s"


def _timed(suite):
    """Record each run's wall time (time.perf_counter) in its result's
    elapsed."""

    @functools.wraps(suite)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        res = suite(*args, **kwargs)
        res.elapsed = time.perf_counter() - t0
        return res

    return timed


def random_function(rng):
    ks = rng.sample(range(len(POINT_LAW_BASES)), rng.randint(1, 3))
    exps = [e for e in range(-FUNCTION_MAX_EXP, FUNCTION_MAX_EXP + 1) if e]
    factors = tuple((POINT_LAW_BASES[k], rng.choice(exps)) for k in sorted(ks))
    unit = Fraction(
        rng.choice([x for x in range(-UNIT_BOUND, UNIT_BOUND + 1) if x]),
        rng.randint(1, UNIT_BOUND),
    )
    return make_function(unit, factors)


def random_pair(rng):
    return random_function(rng), random_function(rng)


def random_point(rng):
    p = rng.choice(POINT_PRIMES)
    if rng.random() < 0.1:
        return ClosedPoint(p, None)  # fiber infinity
    d = rng.choice((1, 1, 1, 2))
    return ClosedPoint(p, random_monic_irreducible(p, d, rng))


@_timed
def suite_point_law(cases, seed, config=None, n_points=50):
    cfg = config or default_config()
    rng = random.Random(seed)
    res = SuiteResult("point-law")
    points = [random_point(rng) for _ in range(min(n_points, max(cases, 1)))]
    for i in range(cases):
        f, g = random_pair(rng)
        rep = verify_point_law(points[i % len(points)], f, g, config=cfg)
        res.record(rep.verdict, f"{rep.subject} f={rep.f} g={rep.g}")
    return res


@_timed
def suite_vertical_law(cases, seed, config=None):
    cfg = config or default_config()
    rng = random.Random(seed)
    res = SuiteResult("vertical-law")
    for i in range(cases):
        f, g = random_pair(rng)
        p = VERTICAL_PRIMES[i % len(VERTICAL_PRIMES)]
        rep = verify_vertical_law(p, f, g, config=cfg)
        res.record(rep.verdict, f"{rep.subject} f={rep.f} g={rep.g}")
    return res


@_timed
def suite_horizontal_law(cases, seed, config=None):
    cfg = config or default_config()
    rng = random.Random(seed)
    res = SuiteResult("horizontal-law")
    parsed = [parse_curve(s) for s in HORIZONTAL_CURVES]
    for i in range(cases):
        f, g = random_pair(rng)
        rep = verify_horizontal_law(parsed[i % len(parsed)], f, g, config=cfg)
        res.record(
            rep.verdict, f"{rep.subject} f={rep.f} g={rep.g} sum={rep.numeric_sum}"
        )
    return res


def random_laurent(rng, lo_exp=-2, hi_exp=5, coeff_bound=10):
    """Random Laurent polynomial, integer coefficients in [-bound, bound],
    support in [lo_exp, hi_exp], nonzero bottom coefficient."""
    nu = rng.randint(lo_exp, 3)
    coeffs = {nu: Fraction(rng.choice([x for x in range(-coeff_bound, coeff_bound + 1) if x]))}
    for k in range(nu + 1, min(nu + 4, hi_exp + 1)):
        if rng.random() < 0.6:
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                coeffs[k] = Fraction(c)
    return LaurentPoly(coeffs)


@_timed
def suite_oracle(cases, seed, tol=1e-9, prec=128):
    rng = random.Random(seed)
    res = SuiteResult("arch-oracle")
    for _ in range(cases):
        f, g = random_laurent(rng), random_laurent(rng)
        try:
            o = nu_arch_oracle(f, g, prec=prec)
        except WindowTooSmall:
            res.record("inconclusive")
            continue
        c = nu_arch_closed(f, g, prec=prec)
        err = abs(o - c)
        res.record(
            "pass" if err <= tol else "fail", f"f={f} g={g} err={float(err):.3e}"
        )
    return res


def _random_invertible(rng, n, bound=4):
    while True:
        M = tuple(
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
            for _ in range(n)
        )
        if det([list(r) for r in M]) != 0:
            return M


def _random_lattice(rng, n, d):
    while True:
        rows = [
            tuple(Fraction(rng.randint(-LATTICE_BOUND, LATTICE_BOUND)) for _ in range(n))
            for _ in range(d)
        ]
        try:
            return Lattice(n, rows)
        except NotExact:  # dependent rows
            continue


def _random_coord(rng):
    q = Fraction(rng.choice([x for x in range(-7, 8) if x]), rng.randint(1, 7))
    root = rng.choice((1, 1, 2, 3, 5))
    return QSqrt(q) * QSqrt.sqrt(Fraction(root))


@_timed
def suite_prop_a(cases, seed):
    """Group laws of the metrized central extension on random dense triples:
    associativity, two-sided identity, inverses, centrality of scalars."""
    rng = random.Random(seed)
    res = SuiteResult("prop-a")
    for _ in range(cases):
        n = rng.randint(3, 5)
        A = _random_lattice(rng, n, n)
        u = argl_lift(DenseOperator(_random_invertible(rng, n)), A, _random_coord(rng))
        v = argl_lift(DenseOperator(_random_invertible(rng, n)), A, _random_coord(rng))
        w = argl_lift(DenseOperator(_random_invertible(rng, n)), A, _random_coord(rng))
        lhs = group_mul(group_mul(u, v), w)
        rhs = group_mul(u, group_mul(v, w))
        checks = [
            lhs.op == rhs.op
            and lhs.elem.coord == rhs.elem.coord
            and lhs.elem.B.same_span(rhs.elem.B)
        ]
        e = argl_identity(u.op, A)
        checks.append(
            group_mul(e, u).elem.coord == u.elem.coord
            and group_mul(u, e).elem.coord == u.elem.coord
        )
        uinv = argl_inverse(u)
        checks.append(
            group_mul(u, uinv).elem.coord == QSqrt(1)
            and group_mul(uinv, u).elem.coord == QSqrt(1)
        )
        c = argl_scalar(u.op, A, _random_coord(rng))
        checks.append(group_mul(c, v).elem.coord == group_mul(v, c).elem.coord)
        res.record("pass" if all(checks) else "fail", f"n={n} checks={checks}")
    return res


def _diag(vals):
    n = len(vals)
    return [
        [vals[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)
    ]


def random_prop_b_instance(rng, max_dim=8):
    """Commuting pair via a shared eigenbasis: g = R D1 R^-1, h = R D2 R^-1,
    subspaces spanned by eigenvector subsets (R = identity half the time,
    so plain coordinate subspaces are well represented)."""
    n = rng.randint(3, max_dim)
    if rng.random() < 0.5:
        R = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        Rinv = R
    else:
        R = [list(r) for r in _random_invertible(rng, n, bound=3)]
        Rinv = matrix_inverse(R)
    nz = [Fraction(x) for x in range(-5, 6) if x]
    d1 = [rng.choice(nz) for _ in range(n)]
    d2 = [rng.choice(nz) for _ in range(n)]
    g = DenseOperator(tuple(map(tuple, matmul(matmul(R, _diag(d1)), Rinv))))
    h = DenseOperator(tuple(map(tuple, matmul(matmul(R, _diag(d2)), Rinv))))
    col = lambda j: tuple(R[i][j] for i in range(n))
    ka, kb = rng.randint(1, n - 1), rng.randint(1, n - 1)
    A = Lattice(n, [col(j) for j in sorted(rng.sample(range(n), ka))])
    B = Lattice(n, [col(j) for j in sorted(rng.sample(range(n), kb))])
    return g, h, A, B


@_timed
def suite_prop_b(cases, seed, max_dim=8):
    rng = random.Random(seed)
    res = SuiteResult("prop-b")
    for _ in range(cases):
        g, h, A, B = random_prop_b_instance(rng, max_dim=max_dim)
        try:
            lhs, rhs, passed = prop_b_check(g, h, A, B)
        except DegeneratePosition:
            res.record("inconclusive")
            continue
        res.record("pass" if passed else "fail", f"lhs={lhs} rhs={rhs}")
    return res


def run_all(cases, seed, config=None):
    if cases < 0:
        raise ParseError(f"a case count must be nonnegative, not {cases}")
    cfg = config or default_config()
    return [
        suite_point_law(cases, seed, config=cfg),
        suite_vertical_law(cases, seed + 1, config=cfg),
        suite_horizontal_law(min(cases, 50) if cases else 0, seed + 2, config=cfg),
        suite_oracle(cases, seed + 3),
        suite_prop_a(cases, seed + 4),
        suite_prop_b(cases, seed + 5),
    ]
