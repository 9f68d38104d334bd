"""Monte Carlo validation of the analytic noise/mitigation stack.

The shot loop is one numpy Pauli-frame kernel: because the noise is global
depolarizing, it commutes with the sampled Pauli twirls, so each shot's term
expectations are (1-P)^D times a sign times the ground-state <P_j>.  Any
Pauli channel, a local one included, keeps that identity: it changes only
each term's decay, which this kernel does not model.  Non-Pauli noise, or
gates between the layers, would break it.
"""

from .core import (
    DensityMatrix,
    QuasiProbDecomposition,
    ShotRecord,
    active_kernel,
    batch_means,
    build_qpd,
    lilliefors_critical,
    normality_check,
    prepare_ground_state,
    run_pec_estimate,
    run_raw_estimate,
    simulate_report,
)

__all__ = [
    "DensityMatrix",
    "QuasiProbDecomposition",
    "ShotRecord",
    "active_kernel",
    "batch_means",
    "build_qpd",
    "lilliefors_critical",
    "normality_check",
    "prepare_ground_state",
    "run_pec_estimate",
    "run_raw_estimate",
    "simulate_report",
]
