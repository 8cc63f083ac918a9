"""Computable calculus for entire monogenic functions.

Clifford arithmetic (exact rational or binary64), the symmetrised monogenic
polynomial basis with its exact derivative rule, truncated Taylor series
with the Cauchy-Kowalewski product, proximate-order growth scales with
coefficient-side order/type estimation, and formal differential operators
of unbounded order with the two-way operator/basis-table correspondence.
"""

from .clifford import (
    CliffordNumber,
    Paravector,
    blade_product,
    cl_mul,
)
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    SerializationError,
    UndefinedOrderError,
)
from .fueter import (
    FueterCache,
    dirac_residuals,
    fueter_derivative_rule,
    fueter_eval,
    fueter_sup_unit_ball,
    fueter_var,
)
from .growth import (
    GrowthReport,
    ProximateOrder,
    axis_log_norms,
    growth_report,
    k_q,
    k_qs,
    log_coeff_norms,
    order_from_coeffs,
    type_from_coeffs,
    type_from_kq,
    weighted_norm_ln,
)
from .multiindex import enumerate_degree, enumerate_up_to
from .operators import (
    ClassCertificate,
    HomTable,
    OperatorSymbol,
    hom_to_op,
    op_apply,
    op_class_check,
    op_to_hom,
    reconstruct_from_blackbox,
    tail_bound_profile,
)
from .series import (
    MonogenicSeries,
    ck_mul_left,
    dirac_residual,
    max_modulus,
    series_derivative,
    series_eval,
    taylor_coefficient,
)
from .verify import CheckReport, VerifyConfig, run_all

__version__ = "0.1.0"
