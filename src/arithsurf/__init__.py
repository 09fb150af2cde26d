"""Exact two-dimensional reciprocity symbols on the projective line over Z,
plus the metrized determinant-line calculus behind them.

Three verifiable laws:
  * around a closed point (sum over curves through it),
  * along a vertical fiber (degree-weighted sum over its points),
  * along a horizontal curve (finite places against log p, archimedean
    places from the real embeddings of the defining polynomial).

The window-lattice model of R((t)) provides an independent brute-force
oracle for the archimedean symbol via commutators in a central extension
of metrized determinant lines.
"""

from .centext import (
    ArGLElement,
    DenseOperator,
    ExactSequenceData,
    LaurentMultOperator,
    Lattice,
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
    lattice_intersection,
    lattice_sum,
    group_mul,
    line_element,
    mult_operator,
    nu_arch_closed,
    nu_arch_oracle,
    prop_b_check,
    pushforward,
    standard_lattice,
    zero_lattice,
)
from .config import ENV_PREC_BITS, RunConfig, default_config
from .errors import (
    ArithsurfError,
    DegeneratePosition,
    EvaluationAtZero,
    FactorizationTimeout,
    NonCommuting,
    NonIrreducibleBase,
    NotExact,
    ParseError,
    RootFindingDivergence,
    UnsupportedFactorization,
    UnsupportedOrder,
    WindowTooSmall,
    ZeroPolynomial,
)
from .intpoly import IntPoly, parse_intpoly
from .laurent import LaurentPoly, parse_laurent
from .laws import (
    LawReport,
    verify_horizontal_law,
    verify_point_law,
    verify_vertical_law,
)
from .modp import ModPPoly, factor_mod_p
from .padic import PadicFactor, PadicFactorization, padic_factor
from .surface import (
    ClosedPoint,
    Curve,
    FactoredRationalFunction,
    SWAP,
    act,
    constant_function,
    curves_through_point,
    format_function,
    make_function,
    parse_curve,
    parse_function,
    parse_point,
    points_on_horizontal,
    points_on_vertical,
)
from .symbols import (
    archimedean_symbol,
    branch_decomposition,
    curve_point_symbol,
    rank2_vertical,
)

__version__ = "0.1.0"
