"""Integration built from positive linear functionals on function lattices.

The construction order mirrors the math: set rings and pre-measures
(:mod:`daniell.rings`), simple functions with lattice operations
(:mod:`daniell.lattice`), elementary integrals and the decomposition of
signed functionals (:mod:`daniell.functional`), the extension engine
with dyadic level-set integration (:mod:`daniell.extension`), and three
concrete targets: interval length on the line (:mod:`daniell.lebesgue`),
Brownian path-space measure (:mod:`daniell.wiener`), and harmonic
measure through boundary functionals (:mod:`daniell.dirichlet`).
"""

from .extreal import ExtReal, NEG_INF, POS_INF, ext_add
from .rings import (
    BooleanOp,
    PreMeasure,
    RingSet,
    Universe,
    boolean_combine,
    check_additivity,
    length_premeasure,
    weighted_counting_premeasure,
)
from .lattice import LatticeOp, SimpleFunction, canonicalize, lattice_op
from .functional import (
    DecomposedFunctional,
    ElementaryIntegral,
    SignedFunctional,
    jordan_decompose,
    positive_part,
    positive_part_bruteforce,
)
from .extension import (
    Direction,
    IntegralResult,
    MeasurableFunction,
    MonotoneSequence,
    approximate_in_t0,
    dyadic_levels,
    i1_limit,
    is_daniell_measurable,
    level_set_integral,
    measure_from_integral,
    null_test,
)

__version__ = "0.1.0"
