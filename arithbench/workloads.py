"""Input generators, case runners and correctness gates of the three workloads.

Every generator draws from the two streams of a ``Draws`` and builds its cases
through the public names of the ``arithsurf`` package passed in as ``ars``.
Nothing here calls ``arithsurf.selftest`` or the program's own random
generators, so an edit to those cannot shift a workload.

A pool is a list of ``Case`` objects.  Its order is fixed by stratum (see
``interleave``): every prefix of a pool holds each stratum in proportion to its
share, so a run that stops after any number of cases still sees the same mix.
Within a stratum, the sizes that set the cost of a case (degrees, supports,
subspace dimensions) come from a stream that is the same for every seed, and
the entries (coefficients, matrices, units) from a stream seeded by the
benchmark seed: runs on different seeds then differ in their inputs but not
in how much work those inputs take.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

PREC_BITS = 128
ORACLE_TOL = 1e-9

VERIFIED = "verified"
INCONCLUSIVE = "inconclusive"


class WrongAnswer(Exception):
    """A case returned an answer its correctness gate proves wrong."""


class Draws:
    """The two random streams of a pool: ``shape`` for sizes, the same for
    every seed, and ``value`` for entries, seeded by the benchmark seed.
    ``tick`` is called before each case is made, for the reference clock."""

    def __init__(self, workload, seed, tick=None):
        self.shape = random.Random(f"arithbench:{workload}:shape")
        self.value = random.Random(f"arithbench:{workload}:{seed}")
        self.tick = tick or (lambda: None)


@dataclass
class Case:
    kind: str
    text: str  # text form of the generated input, for the input fingerprint
    data: tuple


def interleave(counts):
    """Stratum indices in an order where every prefix holds stratum s in
    proportion to counts[s], up to one case."""
    keys = []
    for s, c in enumerate(counts):
        keys.extend(((j + 0.5) / c, s) for j in range(c))
    keys.sort()
    return [s for _, s in keys]


def _build_pool(draws, strata, size):
    """strata: [(weight, make_case)]; counts by largest remainder of
    size * weight / total weight."""
    total = sum(w for w, _ in strata)
    exact = [size * w / total for w, _ in strata]
    counts = [math.floor(x) for x in exact]
    by_remainder = sorted(range(len(strata)), key=lambda s: counts[s] - exact[s])
    for s in by_remainder[: size - sum(counts)]:
        counts[s] += 1
    nonempty = [s for s in range(len(strata)) if counts[s]]
    pool = []
    for s in interleave([counts[s] for s in nonempty]):
        draws.tick()
        pool.append(strata[nonempty[s]][1](draws))
    return pool


def _nonzero(bound):
    return [x for x in range(-bound, bound + 1) if x]


# -- laws: irreducible integer polynomials ---------------------------------------

LEADING = (1, 2, 3, -2)
SMALL_COEFF = 6
TALL_COEFF = 10**5
POINT_PRIMES = (2, 3, 5, 7, 11, 13)
VERTICAL_PRIMES = (2, 3, 5, 7, 11, 13, 101)
EXPONENTS = _nonzero(3)
UNITS = _nonzero(50)


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _has_rational_root(cs):
    if cs[0] == 0:
        return True
    d = len(cs) - 1
    for num in _divisors(cs[0]):
        for den in _divisors(cs[-1]):
            for s in (num, -num):
                if sum(c * s**i * den ** (d - i) for i, c in enumerate(cs)) == 0:
                    return True
    return False


def _has_quadratic_factor(cs):
    """Degree-4 primitive cs: does it split into two integer quadratics
    (a t^2 + b t + c)(d t^2 + e t + f)?"""
    h0, h1, h2, h3, h4 = cs
    bound = 4 * sum(abs(x) for x in cs)
    for a in _divisors(h4):
        d = h4 // a
        for c0 in _divisors(h0):
            for c in (c0, -c0):
                f = h0 // c
                # a e + d b = h3,  f b + c e = h1,  a f + b e + c d = h2
                det = d * c - a * f
                if det:
                    bn, en = h3 * c - a * h1, d * h1 - f * h3
                    if bn % det == 0 and en % det == 0:
                        if a * f + (bn // det) * (en // det) + c * d == h2:
                            return True
                    continue
                for b in range(-bound, bound + 1):
                    if (h3 - d * b) % a == 0:
                        e = (h3 - d * b) // a
                        if f * b + c * e == h1 and a * f + b * e + c * d == h2:
                            return True
    return False


def is_irreducible(cs):
    """Exact irreducibility over Q of an integer polynomial of degree 1..4,
    coefficients listed from the constant term up."""
    g = 0
    for c in cs:
        g = math.gcd(g, c)
    cs = [c // g for c in cs]
    if len(cs) == 2:
        return True
    if _has_rational_root(cs):
        return False
    return len(cs) < 5 or not _has_quadratic_factor(cs)


def random_base(r, tall=False):
    """Random irreducible integer polynomial: leading coefficient in LEADING;
    degree 1-4 with |coeff| <= 6, or degree 1-3 with |coeff| <= 10^5 (tall)."""
    bound = TALL_COEFF if tall else SMALL_COEFF
    d = r.shape.randint(1, 3 if tall else 4)
    lc = r.shape.choice(LEADING)
    while True:
        cs = [r.value.randint(-bound, bound) for _ in range(d)] + [lc]
        if is_irreducible(cs):
            return tuple(cs)


def random_function_data(r, tall=False):
    bases = [(random_base(r, tall), r.value.choice(EXPONENTS))
             for _ in range(r.shape.randint(1, 3))]
    return (r.value.choice(UNITS), r.value.randint(1, 50)), bases


def _monic_irreducible_mod_p(rng, p, d):
    """Monic irreducible of degree 1 or 2 over F_p, constant term first."""
    while True:
        cs = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        if d == 1 or all((x * x + cs[1] * x + cs[0]) % p for x in range(p)):
            return cs


def _point_data(r):
    p = r.shape.choice(POINT_PRIMES)
    if r.shape.random() < 0.1:
        return p, None
    return p, _monic_irreducible_mod_p(r.value, p, r.shape.choice((1, 1, 1, 2)))


def _make_function(ars, data):
    (num, den), bases = data
    return ars.make_function(Fraction(num, den), [(ars.IntPoly(cs), e) for cs, e in bases])


def _law_case(ars, kind, tall):
    def make(r):
        if kind == "point":
            subject = _point_data(r)
        elif kind == "vertical":
            subject = r.shape.choice(VERTICAL_PRIMES)
        else:
            subject = random_base(r)
        fd, gd = random_function_data(r, tall), random_function_data(r, tall)
        if kind == "horizontal" and r.shape.random() < 1 / 3:
            # the curve is a base of f, so f has nonzero order along it
            fd = (fd[0], fd[1] + [(subject, r.value.choice(EXPONENTS))])
        text = f"{kind} {subject} {fd} {gd}"
        f, g = _make_function(ars, fd), _make_function(ars, gd)
        if kind == "point":
            p, residue = subject
            obj = ars.ClosedPoint(p, None if residue is None else ars.ModPPoly(p, residue))
        elif kind == "vertical":
            obj = subject
        else:
            obj = ars.Curve.horizontal(ars.IntPoly(subject))
        return Case(kind, text, (obj, f, g))

    return make


def law_pool(ars, draws, size):
    """Point, vertical and horizontal laws in equal shares.  One horizontal
    case in eight takes its functions from tall bases, whose resultants with
    the curve are large integers to factor."""
    strata = [(8, _law_case(ars, "point", tall=False)),
              (8, _law_case(ars, "vertical", tall=False)),
              (7, _law_case(ars, "horizontal", tall=False)),
              (1, _law_case(ars, "horizontal", tall=True))]
    return _build_pool(draws, strata, size)


def _error_name(ars, reason):
    """The first typed error named in an inconclusive report's reason."""
    reason = reason or ""
    hits = [(reason.find(f"{n}: "), n) for n, v in vars(ars).items()
            if isinstance(v, type) and issubclass(v, ars.ArithsurfError) and f"{n}: " in reason]
    return min(hits)[1] if hits else "unknown"


def law_runner(ars):
    cfg = ars.RunConfig(prec_bits=PREC_BITS, start_precision=20, tolerance=1e-6, seed=0)

    def call(case):
        subject, f, g = case.data
        return getattr(ars, f"verify_{case.kind}_law")(subject, f, g, config=cfg)

    def judge(case, report):
        out = json.dumps(report.to_dict(), sort_keys=True, default=str)
        if report.verdict == "pass":
            return VERIFIED, out, None
        if report.verdict == "inconclusive":
            return INCONCLUSIVE, out, _error_name(ars, report.reason)
        raise WrongAnswer(f"{case.kind} law verdict {report.verdict!r}: {out}")

    return call, judge


# -- oracle: random Laurent pairs, stratified by window size -----------------------

LAURENT_NU = range(-2, 4)
LAURENT_HI_EXP = 5
LAURENT_COEFF = 10
_TERM = 0.6 * 20 / 21  # P(a coefficient above the bottom one is present)


def random_laurent_support(rng):
    """Exponents of a random Laurent polynomial: the bottom one uniform in
    -2..3, then up to three more, each present with probability 0.6 * 20/21
    (a coefficient drawn from [-10, 10] that is not 0)."""
    nu = rng.choice(LAURENT_NU)
    return [nu] + [k for k in range(nu + 1, min(nu + 4, LAURENT_HI_EXP + 1))
                   if rng.random() < _TERM]


def window_dim(nu_f, top_f, nu_g, top_g):
    """Dimension of the window the seed oracle picks for a pair with these
    supports; the cost of a case grows with it."""
    lo = min(0, nu_f, nu_g, nu_f + nu_g) - 2
    hi = max(0, top_f, top_g, top_f + top_g) + abs(nu_f) + abs(nu_g) + 6
    return hi - lo + 1


def _support_law():
    """Exact law of (nu, top) for one random_laurent_support draw."""
    law = {}
    for nu in LAURENT_NU:
        m = min(3, LAURENT_HI_EXP - nu)
        for j in range(m + 1):
            pj = (1 - _TERM) ** m if j == 0 else _TERM * (1 - _TERM) ** (m - j)
            law[(nu, nu + j)] = pj / len(LAURENT_NU)
    return law


def window_dim_law():
    law = _support_law()
    out = {}
    for (nf, tf), (ng, tg) in itertools.product(law, repeat=2):
        n = window_dim(nf, tf, ng, tg)
        out[n] = out.get(n, 0.0) + law[(nf, tf)] * law[(ng, tg)]
    return dict(sorted(out.items()))


def _laurent(ars, data):
    return ars.LaurentPoly({k: Fraction(c) for k, c in data.items()})


def _oracle_case(ars, n):
    def make(r):
        while True:
            fs, gs = random_laurent_support(r.shape), random_laurent_support(r.shape)
            if window_dim(fs[0], fs[-1], gs[0], gs[-1]) == n:
                break
        fd, gd = ({k: r.value.choice(_nonzero(LAURENT_COEFF)) for k in xs} for xs in (fs, gs))
        text = f"oracle {sorted(fd.items())} {sorted(gd.items())}"
        return Case("oracle", text, (_laurent(ars, fd), _laurent(ars, gd)))

    return make


def oracle_pool(ars, draws, size):
    """Pairs drawn from the random Laurent law, stratified by window
    dimension in proportion to its exact probability."""
    return _build_pool(draws, [(p, _oracle_case(ars, n)) for n, p in window_dim_law().items()], size)


def oracle_runner(ars):
    def call(case):
        f, g = case.data
        return ars.nu_arch_oracle(f, g, prec=PREC_BITS), ars.nu_arch_closed(f, g, prec=PREC_BITS)

    def judge(case, result):
        got, want = result
        out = mp.nstr(got, 30)
        if abs(got - want) > ORACLE_TOL:
            raise WrongAnswer(f"oracle {out} vs closed {mp.nstr(want, 30)} for {case.text}")
        return VERIFIED, out, None

    return call, judge


# -- dense: Prop A, Prop B, gamma of exact sequences -------------------------------


def _int_matrix(rng, rows, cols, bound):
    return tuple(tuple(Fraction(rng.randint(-bound, bound)) for _ in range(cols)) for _ in range(rows))


def _invertible(ars, rng, n, bound):
    while True:
        m = _int_matrix(rng, n, n, bound)
        if ars.qlinalg.det(m) != 0:
            return m


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _coord_data(rng):
    return Fraction(rng.choice(_nonzero(7)), rng.randint(1, 7)), rng.choice((1, 1, 2, 3, 5))


def _qsqrt(ars, data):
    q, root = data
    return ars.QSqrt(q) * ars.QSqrt.sqrt(Fraction(root))


def _prop_a_case(ars, n, whole):
    """Group laws for three lifts to a reference lattice that is all of Q^n
    (whole), or a random subspace, whose determinant lines have nontrivial
    quotients."""

    def make(r):
        k = n if whole else r.shape.randint(1, n - 1)
        while True:
            A = _int_matrix(r.value, k, n, 3)
            try:
                L = ars.Lattice(n, A)
                break
            except ars.NotExact:  # dependent rows
                continue
        ops = [_invertible(ars, r.value, n, 4) for _ in range(3)]
        coords = [_coord_data(r.value) for _ in range(4)]
        text = f"prop-a {A} {ops} {coords}"
        u, v, w = (ars.argl_lift(ars.DenseOperator(m), L, _qsqrt(ars, c)) for m, c in zip(ops, coords))
        return Case("prop-a", text, (L, u, v, w, _qsqrt(ars, coords[3])))

    return make


def _diag(vals):
    n = len(vals)
    return tuple(tuple(vals[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))


def _prop_b_case(ars, n, eigenbasis):
    """Commuting g = R D1 R^-1, h = R D2 R^-1 and subspaces spanned by
    eigenvector subsets; R is the identity unless eigenbasis is set."""

    def make(r):
        rng = r.value
        if eigenbasis:
            R = _invertible(ars, rng, n, 3)
            Rinv = ars.qlinalg.matrix_inverse(R)
        else:
            R = Rinv = _diag([Fraction(1)] * n)
        nz = [Fraction(x) for x in _nonzero(5)]
        d1 = [rng.choice(nz) for _ in range(n)]
        d2 = [rng.choice(nz) for _ in range(n)]
        ia = sorted(r.shape.sample(range(n), r.shape.randint(1, n - 1)))
        ib = sorted(r.shape.sample(range(n), r.shape.randint(1, n - 1)))
        text = f"prop-b {R} {d1} {d2} {ia} {ib}"
        g = ars.DenseOperator(_matmul(_matmul(R, _diag(d1)), Rinv))
        h = ars.DenseOperator(_matmul(_matmul(R, _diag(d2)), Rinv))
        cols = list(zip(*R))
        A = ars.Lattice(n, [cols[j] for j in ia])
        B = ars.Lattice(n, [cols[j] for j in ib])
        return Case("prop-b", text, (g, h, A, B))

    return make


GAMMA_CHOICES = 3  # re-randomized (basis1, basis3, lifts) per sequence


def _gamma_case(ars, d1, d3):
    """0 -> Q^d1 -> Q^(d1+d3) -> Q^d3 -> 0 with random metrics, the maps
    conjugated by a random change of basis P, and random bases and lifts."""

    def make(r):
        rng = r.value
        n = d1 + d3
        grams = [_matmul(tuple(zip(*m)), m)
                 for m in (_invertible(ars, rng, d, 3) for d in (d1, n, d3))]
        P = _invertible(ars, rng, n, 3)
        choices = []
        for _ in range(GAMMA_CHOICES):
            b1 = _invertible(ars, rng, d1, 4)
            b3 = _invertible(ars, rng, d3, 4)
            shifts = _int_matrix(rng, d3, d1, 3)
            # P (v, b) lies over b for any v
            lifts = tuple(_matmul(P, tuple((x,) for x in v + b))
                          for v, b in zip(shifts, b3))
            choices.append((b1, b3, tuple(tuple(row[0] for row in lift) for lift in lifts)))
        text = f"gamma {grams} {P} {choices}"
        Pinv = ars.qlinalg.matrix_inverse(P)
        seq = ars.ExactSequenceData(
            ars.MetrizedSpace(d1, gram=grams[0]),
            ars.MetrizedSpace(n, gram=grams[1]),
            ars.MetrizedSpace(d3, gram=grams[2]),
            inj=tuple(row[:d1] for row in P),
            surj=Pinv[d1:],
        )
        return Case("gamma", text, (seq, choices))

    return make


def dense_pool(ars, draws, size):
    """Prop A (n = 3..5, half on all of Q^n), Prop B (n = 3..8, half with a
    random eigenbasis) and gamma of exact sequences (both ends of dimension
    1..3), in equal shares, each spread evenly over its sizes."""
    strata = [(2, _prop_a_case(ars, n, w)) for n in (3, 4, 5) for w in (True, False)]
    strata += [(1, _prop_b_case(ars, n, e)) for n in range(3, 9) for e in (False, True)]
    strata += [(12 / 9, _gamma_case(ars, a, b)) for a in (1, 2, 3) for b in (1, 2, 3)]
    return _build_pool(draws, strata, size)


def dense_runner(ars):
    def prop_a(L, u, v, w, c):
        mul = ars.group_mul
        lhs, rhs = mul(mul(u, v), w), mul(u, mul(v, w))
        e = ars.argl_identity(u.op, L)
        uinv = ars.argl_inverse(u)
        scalar = ars.argl_scalar(u.op, L, c)
        one = ars.QSqrt(1)
        return [
            lhs.op == rhs.op and lhs.elem.coord == rhs.elem.coord and lhs.elem.B.same_span(rhs.elem.B),
            mul(e, u).elem.coord == u.elem.coord and mul(u, e).elem.coord == u.elem.coord,
            mul(u, uinv).elem.coord == one and mul(uinv, u).elem.coord == one,
            mul(scalar, v).elem.coord == mul(v, scalar).elem.coord,
        ]

    def call(case):
        if case.kind == "prop-a":
            return prop_a(*case.data)
        if case.kind == "prop-b":
            return ars.prop_b_check(*case.data)
        seq, choices = case.data
        return ars.gamma_sequence(seq), [
            ars.gamma_sequence(seq, basis1=b1, basis3=b3, lifts=lifts) for b1, b3, lifts in choices
        ]

    def judge(case, result):
        if case.kind == "prop-a":
            out, ok = str(result), all(result)
        elif case.kind == "prop-b":
            lhs, rhs, ok = result
            out = f"{mp.nstr(lhs, 30)} {mp.nstr(rhs, 30)} {ok}"
        else:
            ref, got = result
            out, ok = f"{ref!r} {got!r}", all(x == ref for x in got)
        if not ok:
            raise WrongAnswer(f"{case.kind} check failed: {out}")
        return VERIFIED, out, None

    return call, judge


WORKLOADS = {
    "laws": (law_pool, law_runner),
    "oracle": (oracle_pool, oracle_runner),
    "dense": (dense_pool, dense_runner),
}
