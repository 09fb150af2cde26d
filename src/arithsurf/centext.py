"""The arithmetic central extension calculus on finite windows.

Everything lives inside an ambient Q^n carrying the standard inner
product (in the Laurent-window model the coordinates are t^m .. t^M and
(t^i, t^j) = delta_ij).  Lattices are Q-subspaces with a chosen basis;
for commensurable pairs the relative determinant line is

    (A|B) := wedge-top(A/(A cap B))^* tensor wedge-top(B/(A cap B)),

whose elements we store as a single coordinate relative to canonical
(rref-derived) quotient bases.  Scalars are kept in the exact form
q * sqrt(r) (rational q, positive integer r), which is closed under the
multiplications, contractions and Gram-volume square roots that occur, so
norms, discrepancies and commutator pairings all come out exact.

The group of pairs (g, a) with a a nonzero element of (A|gA) multiplies
by (g, a)(g', a') = (gg', a o g(a')) via pushforward and metrized
contraction; the commutator pairing of commuting g, h is the scalar of
the four-term chain a o g(b) o h(a^-1) o b^-1 in (A|A) = R.

Tails are decided once, when a Lattice is built.  A tail is span{e_a ..
e_(n-1)} with the ascending unit rows as basis: in the window model the
lattice t^(m+a) R[[t]] cut at t^M.  Lattice.tail builds one from a, and only
the reference lattice span{t^0 .. t^M} of standard_lattice, the shifted tails
of apply_lattice and the sum or intersection of two tails are built so.
Lattice(n, rows) always runs the elimination and scans no row for shape.
Every tail shortcut reads that decision through one test, _indexed (or
pd.tails, which pair_data sets from it); a false one runs the general
elimination on the same input, and both give the same Fraction, so every
QSqrt downstream is the same.

Every value here is a determinant of a rational matrix, taken by the general
path with qlinalg's fraction-free elimination on integer rows.  Any two tails
are nested, and that makes every one between tails trivial.  The data of a
tail pair (a, b) is three index ranges: the intersection starts at max(a, b),
and the canonical quotient bases are e_a .. e_(max-1) and e_b .. e_(max-1),
one of them empty, so the unit of (A|B) has norm exactly 1.  On three tails
with smallest tail D, each of s, dA, dC in _contraction_scalar compares two
bases of one quotient (B/D, A/D or C/D), both the ascending unit rows down to
D, so s = dA = dC = 1 and k = 1; with the three unit norms 1, gamma = 1 too,
and contract on three tails just multiplies the coordinates.  pushforward on
a tail pair whose image pair is one takes the canonical quotient rows as
bottom representatives, so eA = eB = 1, and fA, fB are k x k minors (k the
quotient dimension) of the operator's sparse images of e_i (op.column).  A
multiplication keeps its coefficients as integers over one denominator D, so
its columns are D times the images, the minors are integer determinants that
det takes without rescaling, and the coordinate is scaled once by
D^(kA - kB).  The unit rows of a tail or a tail pair (rref_basis, I_rows,
canon_*) are built only when something reads them.  The window oracle only
ever builds tails, so it runs no elimination and builds no Fraction row; its
only det calls are those minors, of size at most |nu(f)| + |nu(g)|, and an
empty minor is 1 without a call (_column_det).

One commutator_pairing or group_mul call is one memo scope (memo.py): inside
it the pair data of a general pair is computed once per distinct pair, keyed
by the two lattices (a Lattice hashes its pivots and compares spans).  The
memo holds general pairs only: a tail pair's data is its three index
ranges, built on each call for less than a memo lookup costs.  Outside
such a call nothing is shared.

The oracle runs on the exact window of f and g (auto_window): the smallest
window holding every degree its chain touches.  A smaller window is refused
with WindowTooSmall, never truncated, and every value is exact and the same
on any window that contains the exact one.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import (
    DegeneratePosition,
    NonCommuting,
    NotExact,
    ParseError,
    WindowTooSmall,
    ZeroPolynomial,
)
from .laurent import LaurentPoly
from .memo import shared, verification
from .qlinalg import (
    det,
    dot,
    frac_vec,
    gram_det,
    identity_matrix,
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

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


# -- exact scalars q * sqrt(r) -------------------------------------------------


class QSqrt:
    """q * sqrt(r) with q rational and r a positive integer.

    r is kept square-reduced by small primes and perfect-square detection;
    equality compares q^2 r and signs, so stale square factors in r are
    harmless.  Addition is only defined within one square class.
    """

    __slots__ = ("q", "r")

    def __init__(self, q, r=1):
        q = q if type(q) is Fraction else Fraction(q)
        if r == 1:
            self.q, self.r = q, 1
            return
        if isinstance(r, Fraction):
            if r.denominator != 1:
                q /= r.denominator
                r = r.numerator * r.denominator
            else:
                r = r.numerator
        if r <= 0:
            raise NotExact("sqrt of a nonpositive number")
        if q == 0:
            r = 1
        else:
            s = math.isqrt(r)
            if s * s == r:
                q *= s
                r = 1
            else:
                for p in _SMALL_PRIMES:
                    p2 = p * p
                    while r % p2 == 0:
                        r //= p2
                        q *= p
                s = math.isqrt(r)
                if s * s == r:
                    q *= s
                    r = 1
        self.q = q
        self.r = r

    @classmethod
    def sqrt(cls, x):
        """sqrt of a positive rational, exactly."""
        x = Fraction(x)
        return cls(Fraction(1, x.denominator), x.numerator * x.denominator)

    @property
    def is_zero(self):
        return self.q == 0

    @property
    def is_rational(self):
        return self.r == 1 or self.q == 0

    def square(self):
        return self.q * self.q * self.r

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSqrt(self.q * other, self.r)
        return QSqrt(self.q * other.q, self.r * other.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSqrt(self.q / other, self.r)
        if other.q == 0:
            raise ZeroDivisionError("division by zero QSqrt")
        # 1/sqrt(r) = sqrt(r)/r
        return QSqrt(self.q / (other.q * other.r), self.r * other.r)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSqrt(other)
        if self.q == 0:
            return other
        if other.q == 0:
            return self
        prod = self.r * other.r
        s = math.isqrt(prod)
        if s * s != prod:
            raise NotExact("sum across square classes is not a QSqrt")
        # sqrt(r2) = (s / r1) sqrt(r1)
        return QSqrt(self.q + other.q * Fraction(s, self.r), self.r)

    def __neg__(self):
        return QSqrt(-self.q, self.r)

    def __sub__(self, other):
        return self + (-other)

    def __abs__(self):
        return QSqrt(abs(self.q), self.r)

    def __pow__(self, n):
        out = QSqrt(1)
        base = self if n >= 0 else QSqrt(1) / self
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSqrt(other)
        return (
            self.square() == other.square()
            and (self.q > 0) == (other.q > 0)
            and (self.q == 0) == (other.q == 0)
        )

    def __hash__(self):
        return hash((self.square(), self.q > 0))

    def to_mpf(self, prec=128):
        with mp.workprec(prec):
            out = mp.mpf(self.q.numerator) / self.q.denominator
            return out if self.r == 1 else out * mp.sqrt(mp.mpf(self.r))

    def log_abs(self, prec=128):
        if self.q == 0:
            raise ZeroPolynomial("log of zero")
        with mp.workprec(prec):
            if self.r == 1:
                return mp.log(mp.mpf(abs(self.q.numerator)) / self.q.denominator)
            return mp.log(abs(self.to_mpf(prec)))

    def __repr__(self):
        if self.r == 1:
            return str(self.q)
        return f"{self.q}*sqrt({self.r})"


ONE = QSqrt(1)


def _as_qsqrt(x):
    return x if isinstance(x, QSqrt) else QSqrt(x)


# -- lattices ------------------------------------------------------------------


_ZERO = Fraction(0)


def _indexed(*lattices):
    """Are all these lattices tails, as decided when each was built?  Every
    tail shortcut of this module is taken through this one test, so a false
    one runs the general elimination on the same input."""
    return all(L.start is not None for L in lattices)


def _check_ambient(A, B):
    if A.n != B.n:
        raise NotExact(f"lattices in Q^{A.n} and Q^{B.n}")


class Lattice:
    """Subspace of Q^n with a chosen (ordered, independent) basis.

    Lattice(n, basis) reduces its basis once (rref) for the pivots and the
    canonical basis.  Lattice.tail(n, a) is the tail span{e_a .. e_(n-1)}
    with basis the ascending unit rows: start is a, pivots are a .. n-1,
    and its rows are built only when read.  start is None on every lattice
    built from rows, whatever its span: the tail shortcuts are for lattices
    built as tails (_indexed).  Two lattices, or an operator and a lattice,
    of different ambient dimensions are refused with NotExact on both paths."""

    __slots__ = ("n", "start", "pivots", "_basis", "_rref_basis")

    def __init__(self, n, basis):
        self.n, self.start = n, None
        self._basis = tuple(frac_vec(v) for v in basis)
        if any(len(v) != n for v in self._basis):
            raise NotExact(f"lattice basis vector of length other than {n}")
        self._rref_basis, self.pivots = rref(self._basis)
        if len(self._rref_basis) != len(self._basis):
            raise NotExact("lattice basis is linearly dependent")

    @classmethod
    def tail(cls, n, start):
        """span{e_start .. e_(n-1)}, 0 <= start <= n."""
        L = cls.__new__(cls)
        L.n, L.start, L.pivots = n, start, tuple(range(start, n))
        L._basis = L._rref_basis = None
        return L

    @property
    def basis(self):
        return self.rref_basis if self._basis is None else self._basis

    @property
    def rref_basis(self):
        if self._rref_basis is None:
            self._rref_basis = unit_rows(self.pivots, self.n)
        return self._rref_basis

    @property
    def dim(self):
        return len(self.pivots)

    def same_span(self, other):
        if _indexed(self, other):
            return self.n == other.n and self.start == other.start
        return self.n == other.n and self.rref_basis == other.rref_basis

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.same_span(other)

    def __hash__(self):
        return hash((self.n, self.pivots))

    def __repr__(self):
        return f"Lattice(n={self.n}, dim={self.dim})"


def zero_lattice(n):
    return Lattice(n, ())


def lattice_sum(A, B):
    _check_ambient(A, B)
    if _indexed(A, B):
        return Lattice.tail(A.n, min(A.start, B.start))
    return Lattice(A.n, sum_space(A.rref_basis, B.rref_basis))


def lattice_intersection(A, B):
    _check_ambient(A, B)
    if _indexed(A, B):
        return Lattice.tail(A.n, max(A.start, B.start))
    return Lattice(A.n, pair_data(A, B).I_rows)


def _complement(rows, pivots, excluded_pivots):
    """The rows whose pivot is not excluded, and their pivots."""
    kept = [(row, piv) for row, piv in zip(rows, pivots) if piv not in excluded_pivots]
    return tuple(row for row, _ in kept), tuple(piv for _, piv in kept)


class PairData:
    """Intersection and canonical quotient bases for an ordered pair;
    canon_first spans first/(first cap second) etc., both made of rref rows
    with pivots first_pivots and second_pivots.  tails records that both
    lattices are tails (PairData.of_tails): the pair is then its three index
    ranges, and every row is the unit row at its pivot, built the first time
    a row is read."""

    __slots__ = ("n", "I_pivots", "first_pivots", "second_pivots", "tails", "_rows")

    def __init__(self, I_rows, I_pivots, canon_first, canon_second,
                 first_pivots=(), second_pivots=()):
        self.I_pivots, self.first_pivots, self.second_pivots = (
            I_pivots, first_pivots, second_pivots)
        self.tails = False
        self._rows = (tuple(I_rows), tuple(canon_first), tuple(canon_second))

    @classmethod
    def of_tails(cls, n, a, b):
        """The tails from a and from b are nested: their intersection is the
        tail from max(a, b), and the quotients run from a and b up to it."""
        top = max(a, b)
        pd = cls.__new__(cls)
        pd.n, pd.I_pivots, pd.first_pivots, pd.second_pivots = (
            n, range(top, n), range(a, top), range(b, top))
        pd.tails, pd._rows = True, None
        return pd

    def _rows_at(self, k):
        if self._rows is None:
            self._rows = tuple(unit_rows(p, self.n) for p in
                               (self.I_pivots, self.first_pivots, self.second_pivots))
        return self._rows[k]

    I_rows = property(lambda self: self._rows_at(0))
    canon_first = property(lambda self: self._rows_at(1))
    canon_second = property(lambda self: self._rows_at(2))


def pair_data(A, B):
    """The PairData of (A, B).  A tail pair is its three index ranges, built
    on each call; a general pair is computed once per pair inside one
    commutator_pairing or group_mul (memo.py)."""
    _check_ambient(A, B)
    if _indexed(A, B):
        return PairData.of_tails(A.n, A.start, B.start)
    return shared(("pair_data", A, B), lambda: _general_pair_data(A, B))


def _general_pair_data(A, B):
    I_rows = intersection(A.rref_basis, B.rref_basis)
    I_pivots = rref(I_rows)[1] if I_rows else ()
    ipiv = set(I_pivots)
    canon_first, first_pivots = _complement(A.rref_basis, A.pivots, ipiv)
    canon_second, second_pivots = _complement(B.rref_basis, B.pivots, ipiv)
    return PairData(I_rows, I_pivots, canon_first, canon_second, first_pivots, second_pivots)


def quotient_det(modulus_rows, reps_from, reps_to):
    """det of the matrix expressing reps_from in the basis reps_to of the
    quotient by span(modulus_rows); NotExact for a vector of reps_from
    outside span(modulus_rows + reps_to)."""
    reps_from = tuple(reps_from)
    reps_to = tuple(reps_to)
    if len(reps_from) != len(reps_to):
        raise NotExact("quotient_det needs as many representatives as basis vectors")
    if not reps_from:
        return Fraction(1)
    k = len(modulus_rows)
    basis = tuple(modulus_rows) + reps_to
    return det(tuple(row[k:] for row in solve_coords(basis, reps_from)))


def _column_det(columns, modulus, reps_to):
    """quotient_det of sparse columns {index: entry} in the unit rows at
    reps_to, modulo those at modulus, for the index ranges reps_to and
    modulus of a tail pair, which together span the tail from reps_to's
    start: the minor at reps_to, and 1 (the empty minor) when there are no
    columns.  Integer columns give an integer minor, which det takes
    without rescaling."""
    if not columns:
        return 1
    span = range(reps_to.start, modulus.stop)
    if any(j not in span for g in columns for j in g):
        raise NotExact("target vector outside span of basis")
    return det(tuple(tuple(g.get(j, 0) for j in reps_to) for g in columns))


def _bottom_reps(L, I_rows):
    """Representatives of L/(span I) chosen greedily from L's own basis in
    its given order (window lattices list generators by ascending degree,
    so these have low support and survive multiplication operators): the
    basis vectors whose columns are pivots of (I_rows + L.basis) as columns."""
    k = len(I_rows)
    vectors = tuple(I_rows) + L.basis
    _, pivots = rref(tuple(zip(*vectors)))
    reps = tuple(vectors[c] for c in pivots if c >= k)
    if k + len(reps) != L.dim:
        raise NotExact("the rows to quotient by do not lie in the lattice")
    return reps


# -- relative determinant lines ------------------------------------------------


def line_norm(A, B):
    """Norm of the canonical wedge-basis element of (A|B), the relative
    determinant line of a commensurable pair."""
    return _canonical_norm(pair_data(A, B))


def _canonical_norm(pd):
    """Norm of the unit of (A|B): the Gram volume of the canonical B-side
    quotient basis over that of the A-side one, both projected orthogonally
    off I = A cap B.  The volume squared of X projected off I is
    Gram(I + X) / Gram(I), so the ratio is Gram(I + B-side) / Gram(I +
    A-side).  For a tail pair those bases are unit rows on indices outside
    I, and for A = B they are empty, so it is exactly 1."""
    if pd.tails or not (pd.canon_first or pd.canon_second):
        return ONE
    volA2 = gram_det(pd.I_rows + pd.canon_first)
    volB2 = gram_det(pd.I_rows + pd.canon_second)
    if volA2 == 0 or volB2 == 0:
        raise DegeneratePosition("representatives do not span the quotients")
    return QSqrt.sqrt(volB2) / QSqrt.sqrt(volA2)


@dataclass(slots=True)
class LineElement:
    """Element of (A|B), coordinate relative to the canonical wedge basis."""

    A: Lattice
    B: Lattice
    coord: QSqrt

    def __post_init__(self):
        self.coord = _as_qsqrt(self.coord)

    def norm(self):
        return abs(self.coord) * line_norm(self.A, self.B)

    def inverse(self):
        """The element of (B|A) contracting with this one to 1 in (A|A)."""
        if self.coord.is_zero:
            raise ZeroDivisionError("zero line element has no inverse")
        return LineElement(self.B, self.A, ONE / self.coord)

    def scale(self, c):
        return LineElement(self.A, self.B, self.coord * _as_qsqrt(c))


def line_element(A, B, coord=1, repsA=None, repsB=None):
    """Build an element of (A|B).  When representative bases are passed the
    coordinate is relative to their wedge and gets converted to canonical."""
    coord = _as_qsqrt(coord)
    if repsA is None and repsB is None:
        return LineElement(A, B, coord)
    pd = pair_data(A, B)
    repsA = tuple(frac_vec(v) for v in repsA) if repsA is not None else pd.canon_first
    repsB = tuple(frac_vec(v) for v in repsB) if repsB is not None else pd.canon_second
    dA = quotient_det(pd.I_rows, repsA, pd.canon_first)
    dB = quotient_det(pd.I_rows, repsB, pd.canon_second)
    if dA == 0 or dB == 0:
        raise DegeneratePosition("representatives do not span the quotients")
    # wedge(repsA)^* = (1/dA) wedge(canonA)^*, wedge(repsB) = dB wedge(canonB)
    return LineElement(A, B, coord * Fraction(dB) / dA)


def contract(x, y, metrized=False):
    """The contraction (A|B) tensor (B|C) -> (A|C).

    Algebraic: canonical wedge bookkeeping through the common sublattice
    D = A cap B cap C.  metrized=True rescales by the volume discrepancy
    gamma = (|x| |y|) / |alpha(x tensor y)| so the result has norm
    |x| |y|; on three tails k = gamma = 1 (see _contraction_scalar), and the
    coordinates just multiply.
    """
    if not x.B.same_span(y.A):
        raise NotExact("middle lattices of the contraction disagree")
    if _indexed(x.A, x.B, y.B):
        _check_ambient(x.A, x.B)
        _check_ambient(x.B, y.B)
        return LineElement(x.A, y.B, x.coord * y.coord)
    pds, k = _contraction_scalar(x.A, x.B, y.B)
    coord = x.coord * y.coord
    if k != 1:
        coord = coord * k
    if metrized:
        coord = coord * _gamma(pds, k)
    return LineElement(x.A, y.B, coord)


def _contraction_scalar(A, B, C):
    """The pair data of (A, B), (B, C), (A, C) and the scalar k with
    alpha(unit of (A|B) tensor unit of (B|C)) = k * unit of (A|C).

    On three tails k = 1: they are nested, so with D the smallest of them
    each of s, dA, dC compares two bases of one quotient (B/D, A/D or C/D),
    and both are the ascending unit rows down to D."""
    pds = pair_data(A, B), pair_data(B, C), pair_data(A, C)
    if _indexed(A, B, C):
        return pds, 1
    pdAB, pdBC, pdAC = pds
    # pair x's B-side wedge against y's dual B-side wedge, all relative to D
    D_rows = intersection(pdAB.I_rows, C.rref_basis)
    D = set(rref(D_rows)[1] if D_rows else ())
    J_AB, J_BC, J_AC = (_complement(pd.I_rows, pd.I_pivots, D)[0]
                        for pd in (pdAB, pdBC, pdAC))
    s = quotient_det(D_rows, pdAB.canon_second + J_AB, pdBC.canon_first + J_BC)
    dA = quotient_det(D_rows, pdAB.canon_first + J_AB, pdAC.canon_first + J_AC)
    dC = quotient_det(D_rows, pdBC.canon_second + J_BC, pdAC.canon_second + J_AC)
    return pds, Fraction(s) * dC / dA


def _gamma(pds, k):
    """|unit of (A|B)| |unit of (B|C)| / (|k| |unit of (A|C)|)."""
    if k == 0:
        raise DegeneratePosition("algebraic contraction of unit elements vanished")
    norms = [_canonical_norm(pd) for pd in pds]
    return norms[0] * norms[1] / (abs(QSqrt(k)) * norms[2])


def gamma_discrepancy(A, B, C):
    """gamma(alpha_{A,B,C}) = (|x| |y|) / |alpha(x tensor y)| for any nonzero
    x in (A|B), y in (B|C); independent of the choice."""
    return _gamma(*_contraction_scalar(A, B, C))


# -- the beta comparison map ---------------------------------------------------


@dataclass
class TensorElement:
    """Element of (A|B) tensor (A'|B'), stored as the pair of factors with
    the full scalar carried by the second factor."""

    first: LineElement
    second: LineElement

    def norm(self):
        return self.first.norm() * self.second.norm()


def beta_map(x, y, metrized=True):
    """beta: (A|B) tensor (A'|B') -> (A cap A'|B cap B') tensor (A+A'|B+B').

    Canonical on wedge coordinates via the second-isomorphism-theorem
    identifications lambda(A/D) lambda(A'/D) = lambda((A cap A')/D)
    lambda((A+A')/D); metrized=True applies the correction making it an
    isometry."""
    if x.coord.is_zero or y.coord.is_zero:
        raise DegeneratePosition("beta_map needs nonzero inputs")
    A, B, Ap, Bp = x.A, x.B, y.A, y.B
    IA = lattice_intersection(A, Ap)
    IB = lattice_intersection(B, Bp)
    SA = lattice_sum(A, Ap)
    SB = lattice_sum(B, Bp)

    def side_det(X, Xp, IX, SX):
        """Express lambda(X/D) lambda(Xp/D) on the basis coming from
        K = basis(IX/D), extensions to X and Xp; returns the scalar relating
        the canonical (X,Xp)-wedges to the canonical (IX, SX)-wedges."""
        # D_X = IX = X cap Xp lies in X and in Xp, so its rref pivots are
        # among theirs, and its rref rows K with the rref rows of X (of Xp)
        # at the other pivots are a basis of X (of Xp).
        Dr = IX.rref_basis
        Dp = set(IX.pivots)
        uX, _ = _complement(X.rref_basis, X.pivots, Dp)
        uXp, _ = _complement(Xp.rref_basis, Xp.pivots, Dp)
        # wedge(rref X) = aX wedge(K ++ uX) with K = rref basis of IX
        aX = quotient_det((), X.rref_basis, Dr + uX)
        aXp = quotient_det((), Xp.rref_basis, Dr + uXp)
        if aX == 0 or aXp == 0:
            raise DegeneratePosition("representatives fail independence")
        # (K ++ uX)(K ++ uXp) maps to (K)(K ++ uX ++ uXp); express the
        # latter in the canonical bases of IX and SX
        combined = Dr + uX + uXp
        dS = quotient_det((), combined, SX.rref_basis)
        if dS == 0:
            raise DegeneratePosition("sum representatives fail independence")
        return aX * aXp * dS

    num = side_det(B, Bp, IB, SB)  # direct factors
    den = side_det(A, Ap, IA, SA)  # dual factors
    coord = x.coord * y.coord * (Fraction(num) / den)
    out = TensorElement(
        LineElement(IA, IB, ONE), LineElement(SA, SB, coord)
    )
    if metrized:
        target = x.norm() * y.norm()
        got = out.norm()
        if got.is_zero:
            raise DegeneratePosition("beta image has zero norm")
        out = TensorElement(out.first, out.second.scale(target / got))
    return out


# -- operators -----------------------------------------------------------------


class DenseOperator:
    """Invertible linear map on Q^n given by a matrix (acting on column
    coordinate vectors; rows are the images' coefficients)."""

    def __init__(self, matrix):
        self.matrix = tuple(tuple(map(Fraction, row)) for row in matrix)
        self.n = len(self.matrix)

    def apply(self, v):
        return matvec(self.matrix, v)

    def compose(self, other):
        return DenseOperator(matmul(self.matrix, other.matrix))

    def inverse(self):
        return DenseOperator(matrix_inverse(self.matrix))

    def identity_like(self):
        return DenseOperator(identity_matrix(self.n))

    def __eq__(self, other):
        return isinstance(other, DenseOperator) and self.matrix == other.matrix


class LaurentMultOperator:
    """Multiplication by a fixed Laurent polynomial on the window span
    of t^m .. t^M.  Composition is exact (multiply the polynomials);
    application raises WindowTooSmall when the product leaves the window.
    The coefficients of f are kept as integers over one denominator, the
    lcm of theirs, so its columns are integer vectors."""

    def __init__(self, f, window):
        if f.is_zero:
            raise ZeroPolynomial("multiplication by zero is not invertible")
        self.f = f
        self.window = tuple(window)
        m, M = self.window
        self.n = M - m + 1
        terms = sorted(f.coeffs.items())
        self.denominator = D = math.lcm(*(c.denominator for _, c in terms))
        self._terms = tuple((k, c.numerator * (D // c.denominator)) for k, c in terms)

    def _check_window(self, lo, hi):
        """Refuse f times a vector with support [lo, hi] leaving the window."""
        m, M = self.window
        nu, top = m + lo + self._terms[0][0], m + hi + self._terms[-1][0]
        if nu < m or top > M:
            raise WindowTooSmall(
                f"product support [{nu}, {top}] leaves window {self.window}",
                minimal_window=(min(nu, m), max(top, M)),
            )

    def apply(self, v):
        support = [i for i, x in enumerate(v) if x]
        out = [_ZERO] * self.n
        if support:
            self._check_window(support[0], support[-1])
            for i in support:
                for k, c in self._terms:
                    out[i + k] += c * v[i]
        D = self.denominator
        return tuple(out) if D == 1 else tuple(x / D for x in out)

    def column(self, i):
        """denominator times the image of e_i, as {index: nonzero integer}."""
        self._check_window(i, i)
        return {i + k: c for k, c in self._terms}

    def compose(self, other):
        if not isinstance(other, LaurentMultOperator) or other.window != self.window:
            raise NotExact("only multiplications on the same window compose")
        return LaurentMultOperator(self.f * other.f, self.window)

    def inverse(self):
        if len(self.f.coeffs) != 1:
            raise NotExact("only monomial multiplications invert within Laurent polynomials")
        k, c = next(iter(self.f.coeffs.items()))
        return LaurentMultOperator(LaurentPoly.monomial(1 / c, -k), self.window)

    def identity_like(self):
        return LaurentMultOperator(LaurentPoly.constant(1), self.window)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMultOperator)
            and self.window == other.window
            and self.f == other.f
        )


def apply_lattice(op, L):
    """Image lattice op(L) as a subspace.

    For a multiplication operator and a monomial tail lattice the honest
    image inside R((t)) is the shifted tail span{t^(a+nu(f)) .. t^M}: the
    unit part of f is an automorphism of the tail and only shows up in the
    induced maps on quotients, never in the subspace itself.  (Mapping the
    generators one by one and truncating would instead build a strictly
    smaller subspace whose phantom top quotient cancels the unit's
    contribution to every pairing.)  L spans such a tail exactly when its
    rref pivots are range(n - dim, n), and the image is then built as a
    tail (Lattice.tail).  Other lattices are mapped vector by vector, with
    WindowTooSmall raised on any overflow.  A tail may shift up to start at
    t^(M+1), where it is empty in the window; one starting higher has a
    quotient against the other lattices that reaches above t^M, so it is
    refused too.  An operator on a space of another dimension than L's is
    refused with NotExact."""
    n = L.n
    if op.n != n:
        raise NotExact(f"an operator on Q^{op.n} applied to a lattice in Q^{n}")
    start = n - L.dim
    if isinstance(op, LaurentMultOperator) and L.pivots == tuple(range(start, n)):
        m, M = op.window
        new_start = start + op.f.nu
        if new_start < 0:
            raise WindowTooSmall(
                f"shifted tail t^{m + new_start} below window bottom {m}",
                minimal_window=(m + new_start, M),
            )
        if new_start > n:
            raise WindowTooSmall(
                f"shifted tail t^{m + new_start} above window top {M}",
                minimal_window=(m, m + new_start - 1),
            )
        return Lattice.tail(n, new_start)
    return Lattice(n, [op.apply(v) for v in L.basis])


def pushforward(op, x):
    """Image of x in (op A|op B) under the map induced by op on the
    relative determinant line.

    The canonical-coordinate conversion runs through low-degree quotient
    representatives taken from the lattices' own bases in basis order, so
    window truncation at the top of the lattices never touches the
    determinants.  When (A, B) and (op A, op B) are both tail pairs, the
    bottom representatives of (A, B) are its canonical quotient rows, so eA
    = eB = 1, and fA, fB are minors of op's columns; op then shifts both
    tails alike, which keeps the quotient dimensions.  The columns are D =
    op.denominator times the images, so the kA x kA and kB x kB minors carry
    D^kA and D^kB, and the coordinate is scaled once by D^(kA - kB).
    """
    A, B = x.A, x.B
    pd = pair_data(A, B)
    A2 = apply_lattice(op, A)
    B2 = apply_lattice(op, B)
    pd2 = pair_data(A2, B2)
    if pd.tails and pd2.tails:
        gA = tuple(map(op.column, pd.first_pivots))
        gB = tuple(map(op.column, pd.second_pivots))
        fA = _column_det(gA, pd2.I_pivots, pd2.first_pivots)
        fB = _column_det(gB, pd2.I_pivots, pd2.second_pivots)
        shift = len(gA) - len(gB)
        if shift > 0:
            fB *= op.denominator ** shift
        elif shift < 0:
            fA *= op.denominator ** -shift
        return LineElement(A2, B2, x.coord * Fraction(fB, fA))
    botA = _bottom_reps(A, pd.I_rows)
    botB = _bottom_reps(B, pd.I_rows)
    eA = quotient_det(pd.I_rows, botA, pd.canon_first)
    eB = quotient_det(pd.I_rows, botB, pd.canon_second)
    gA = tuple(map(op.apply, botA))
    gB = tuple(map(op.apply, botB))
    if len(pd2.first_pivots) != len(gA) or len(pd2.second_pivots) != len(gB):
        raise WindowTooSmall("quotient dimensions changed under truncation; enlarge the window")
    fA = quotient_det(pd2.I_rows, gA, pd2.canon_first)
    fB = quotient_det(pd2.I_rows, gB, pd2.canon_second)
    # x = coord (canonA)^* (canonB) = c_bot (botA)^* (botB): c_bot = coord * eA / eB
    c_bot = x.coord * (Fraction(eA) / eB)
    return LineElement(A2, B2, c_bot * (Fraction(fB) / fA))


# -- the central extension -----------------------------------------------------


@dataclass
class ArGLElement:
    """(g, a) with a a nonzero element of (A|gA) for the fixed reference A."""

    op: object
    A: Lattice
    elem: LineElement  # element of (A | op A)

    def __post_init__(self):
        if not self.elem.A.same_span(self.A):
            raise NotExact("the line element does not start at the reference lattice")
        if self.elem.coord.is_zero:
            raise ZeroDivisionError("group elements need nonzero line coordinates")


def argl_lift(op, A, coord=1):
    gA = apply_lattice(op, A)
    return ArGLElement(op, A, LineElement(A, gA, _as_qsqrt(coord)))


def argl_identity(op_like, A):
    op = op_like.identity_like()
    return ArGLElement(op, A, LineElement(A, A, ONE))


def argl_scalar(op_like, A, c):
    op = op_like.identity_like()
    return ArGLElement(op, A, LineElement(A, A, _as_qsqrt(c)))


@verification
def group_mul(u, v):
    """(g, a)(g', a') = (gg', a o g(a')), metrized contraction."""
    if not u.A.same_span(v.A):
        raise NotExact("group elements over different reference lattices")
    op = u.op.compose(v.op)
    pushed = pushforward(u.op, v.elem)  # in (gA | gg'A)
    elem = contract(u.elem, pushed, metrized=True)
    return ArGLElement(op, u.A, elem)


def argl_inverse(u):
    opinv = u.op.inverse()
    elem = pushforward(opinv, u.elem.inverse())  # (gA|A) -> (A|g^-1 A)
    return ArGLElement(opinv, u.A, elem)


def _commutator_chain(g, h, A, a_coord, b_coord):
    """Central scalar of the chain a o g(b) o h(a^-1) o b^-1 through
    (A|gA), (gA|ghA), (ghA|hA), (hA|A), metrized contractions."""
    gA = apply_lattice(g, A)
    hA = apply_lattice(h, A)
    a = LineElement(A, gA, _as_qsqrt(a_coord))
    b = LineElement(A, hA, _as_qsqrt(b_coord))
    gb = pushforward(g, b)  # (gA | ghA)
    ha_inv = pushforward(h, a.inverse())  # (hgA | hA) = (ghA | hA)
    z = contract(contract(contract(a, gb, metrized=True), ha_inv, metrized=True),
                 b.inverse(), metrized=True)  # in (A|A): its ends are a.A and b.A
    return z.coord


@verification
def commutator_pairing(g, h, A, a_coord=1, b_coord=1):
    """<g,h>_A: the central scalar of the commutator of lifts of the
    commuting maps g and h.

    Normalized so that on the nonnegative tail <mult-t, mult-c> = 1/c and
    in general |<mult-f, mult-g>| = |f0(0)|^nu(g) / |g0(0)|^nu(f); the
    literal chain a o g(b) o h(a^-1) o b^-1 produces the reciprocal, so we
    run it with the roles of g and h exchanged.  Independent of the lift
    coordinates a_coord, b_coord (they cancel).
    """
    if isinstance(g, LaurentMultOperator) and isinstance(h, LaurentMultOperator):
        # multiplications always commute; only the windows must agree
        if g.window != h.window:
            raise NotExact("only multiplications on the same window compose")
    elif g.compose(h) != h.compose(g):
        raise NonCommuting("maps do not commute; the pairing needs gh = hg")
    return _commutator_chain(h, g, A, b_coord, a_coord)


# -- volume discrepancy of a short exact sequence --------------------------------


@dataclass
class MetrizedSpace:
    """Q^dim with inner product given by a Gram matrix (default standard)."""

    dim: int
    gram: tuple = None

    def inner(self, u, v):
        if self.gram is None:
            return dot(u, v)
        return dot(u, matvec(self.gram, v))


@dataclass
class ExactSequenceData:
    """0 -> V1 -> V2 -> V3 -> 0 with explicit injection and surjection."""

    V1: MetrizedSpace
    V2: MetrizedSpace
    V3: MetrizedSpace
    inj: tuple  # matrix V1 -> V2 (dim2 rows, dim1 columns)
    surj: tuple  # matrix V2 -> V3

    def validate(self):
        if self.V2.dim != self.V1.dim + self.V3.dim:
            raise NotExact("dimension count violates exactness")
        comp = matmul(self.surj, self.inj)
        if any(any(x != 0 for x in row) for row in comp):
            raise NotExact("surjection o injection is nonzero")
        inj_cols = tuple(zip(*self.inj)) if self.V1.dim else ()
        if rank(inj_cols) != self.V1.dim:
            raise NotExact("injection is not injective")
        surj_rows = self.surj
        if rank(tuple(zip(*surj_rows)) if self.V3.dim else ()) != self.V3.dim:
            raise NotExact("surjection is not surjective")


def _particular_preimage(surj, b):
    """Some x with surj x = b (free variables set to zero)."""
    rows = len(surj)
    cols = len(surj[0]) if rows else 0
    red, piv = rref([tuple(row) + (bi,) for row, bi in zip(surj, b)])
    x = [Fraction(0)] * cols
    for row, p in zip(red, piv):
        if p == cols:
            raise NotExact("target not in the image of the surjection")
        x[p] = row[-1]
    return tuple(x)


def _check_lengths(name, vectors, dim):
    if any(len(v) != dim for v in vectors):
        raise NotExact(f"a vector of {name} has length other than {dim}")


def gamma_sequence(seq, basis1=None, basis3=None, lifts=None):
    """Volume discrepancy of a short exact sequence of metrized spaces.

    gamma^2 = Gram_{V2}(inj(B1) ++ lifts(B3)) / (Gram_{V1}(B1) Gram_{V3}(B3))
    for any bases B1, B3 and any preimages; the choices cancel (tested).
    A vector of B1, B3 or the lifts whose length is not dim V1, dim V3 or
    dim V2, or lifts that are not one per vector of B3, are refused.
    """
    seq.validate()
    B1 = tuple(frac_vec(v) for v in basis1) if basis1 else identity_matrix(seq.V1.dim)
    B3 = tuple(frac_vec(v) for v in basis3) if basis3 else identity_matrix(seq.V3.dim)
    _check_lengths("basis1", B1, seq.V1.dim)
    _check_lengths("basis3", B3, seq.V3.dim)
    if rank(B1) != seq.V1.dim or rank(B3) != seq.V3.dim:
        raise NotExact("gamma_sequence needs full bases of V1 and V3")
    vecs = [matvec(seq.inj, b) for b in B1]
    if lifts is not None:
        lifts = tuple(frac_vec(v) for v in lifts)
        _check_lengths("lifts", lifts, seq.V2.dim)
        if len(lifts) != len(B3):
            raise NotExact(f"{len(lifts)} lifts for {len(B3)} vectors of basis3")
        for lv, b3 in zip(lifts, B3):
            if tuple(matvec(seq.surj, lv)) != tuple(b3):
                raise NotExact("supplied lift does not map to the basis vector")
        vecs.extend(lifts)
    else:
        vecs.extend(_particular_preimage(seq.surj, b) for b in B3)
    g2 = gram_det(vecs, inner=seq.V2.inner)
    g1 = gram_det(B1, inner=seq.V1.inner) if B1 else Fraction(1)
    g3 = gram_det(B3, inner=seq.V3.inner) if B3 else Fraction(1)
    if g1 == 0 or g3 == 0 or g2 == 0:
        raise NotExact("degenerate Gram determinant in gamma_sequence")
    return QSqrt.sqrt(Fraction(g2) / (Fraction(g1) * Fraction(g3)))


# -- Proposition B check ---------------------------------------------------------


def prop_b_check(g, h, A, B, prec=128):
    """<g,h>_A <g,h>_B = <g,h>_{A cap B} <g,h>_{A+B} for commuting g, h.

    Returns (lhs, rhs, passed): lhs and rhs as floats at prec bits for
    printing, passed the exact comparison of the QSqrt values.
    """
    pA = commutator_pairing(g, h, A)
    pB = commutator_pairing(g, h, B)
    pI = commutator_pairing(g, h, lattice_intersection(A, B))
    pS = commutator_pairing(g, h, lattice_sum(A, B))
    lhs = pA * pB
    rhs = pI * pS
    return lhs.to_mpf(prec), rhs.to_mpf(prec), lhs == rhs


# -- Laurent window model ---------------------------------------------------------


def standard_lattice(window):
    """The reference lattice A = span(t^0 .. t^M) of the window [m, M],
    built as a tail."""
    m, M = window
    if m > 0 or M < 0:
        raise WindowTooSmall(
            f"window [{m}, {M}] does not contain t^0",
            minimal_window=(min(0, m), max(0, M)),
        )
    n = M - m + 1
    return Lattice.tail(n, -m)


def mult_operator(f, window):
    return LaurentMultOperator(f, window)


def auto_window(f, g):
    """The exact window of the commutator chain of mult-f and mult-g: the
    smallest [lo, hi] holding every degree it touches.  The tails start at
    0, nu(f), nu(g) and nu(f)+nu(g), each at most one past the top; and
    pushforward by mult-g takes the bottom representatives t^i, i < max(0,
    nu(f)), of A against the tail of f to degree i + top(g), and the same
    with f and g exchanged."""
    nus = (0, f.nu, g.nu, f.nu + g.nu)
    hi = max(0, max(nus[1:]) - 1)
    if f.nu:
        hi = max(hi, max(0, f.nu) - 1 + g.top)
    if g.nu:
        hi = max(hi, max(0, g.nu) - 1 + f.top)
    return min(nus), hi


def nu_arch_oracle(f, g, window=None, prec=128):
    """log |<mult-f, mult-g>_{A}| on a finite window: the brute-force value
    of the reciprocity symbol of R((t)) computed with actual lattices.

    window is (m, M), a half-width w for (-w, w), or None for the exact
    window; one that does not contain the exact window is refused with
    WindowTooSmall, whose minimal_window is the exact one."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("symbols need nonzero functions")
    exact = auto_window(f, g)
    if window is None:
        window = exact
    elif isinstance(window, int):
        if window < 0:
            raise ParseError(f"a window half-width must be nonnegative, not {window}")
        window = (-window, window)
    try:
        A = standard_lattice(window)
        val = commutator_pairing(mult_operator(f, window), mult_operator(g, window), A)
    except WindowTooSmall as exc:
        raise WindowTooSmall(f"window {tuple(window)} is too small for the pairing of "
                             f"{f} and {g}", minimal_window=exact) from exc
    return val.log_abs(prec)


def nu_arch_closed(f, g, prec=128):
    """The closed formula nu(f,g) = nu_t(g) log|f0(0)| - nu_t(f) log|g0(0)|."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("symbols need nonzero functions")
    with mp.workprec(prec):
        bf = f.bottom_coeff
        bg = g.bottom_coeff
        out = mp.mpf(0)
        if g.nu:
            out += g.nu * mp.log(abs(mp.mpf(bf.numerator)) / bf.denominator)
        if f.nu:
            out -= f.nu * mp.log(abs(mp.mpf(bg.numerator)) / bg.denominator)
        return out
