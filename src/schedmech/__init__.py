"""Exact mechanism-design toolkit for strategic makespan scheduling on
related machines: allocation rules, payment schemes, property checkers and
machine-checked impossibility certificates, all in rational arithmetic."""

from .allocations import (
    at_fractional,
    at_lower_bound,
    at_sample,
    lpt_star,
    opt_makespan,
    two_machine_opt,
    vcg_allocate,
)
from .certificates import (
    CertificateReport,
    FeasibilityResult,
    lemma6_g,
    payment_polytope_feasible,
    prop12_verify,
    theorem1_harness,
    theorem5_certificate,
    theorem7_certificate,
)
from .core import (
    Assignment,
    ExpectedAllocation,
    Instance,
    Outcome,
    ceil_log2,
    makespan,
    rat,
    rat_str,
    rounded_speed,
    utility,
)
from .payments import (
    HFunction,
    Mechanism,
    NotTruthfulEvidence,
    ef_chain_payments,
    extract_h,
    truthful_payment,
    vcg_mechanism,
    vcg_payments,
)
from .properties import (
    PropertyVerdict,
    approx_ratio,
    check_anonymous,
    check_envy_free,
    check_ir,
    check_local_efficiency,
    check_monotone,
    check_scalable,
    check_truthful,
)
from .workcurve import (
    WorkCurve,
    build_response_curve,
    build_workcurve,
    expected_workcurve,
    integrate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
