"""Kernel tier registry: ``pure`` (NumPy/SciPy) vs ``native`` (JIT C).

Public dispatch surface for the sparse hot-path kernels.  All call sites
go through this package — never through :mod:`repro.kernels.native`
directly (lint rule SPMD004) — so the pure fallback can never be
bypassed and the bitwise-parity contract stays enforceable in one place.

See :mod:`repro.kernels.tiers` for resolution semantics,
:mod:`repro.kernels.threads` for the library's thread budget, and
``docs/performance.md`` ("Kernel tiers") for the user-facing story.
"""

from .threads import THREADS_ENV, kernel_threads
from .tiers import (
    TIER_ENV,
    TIER_REQUESTS,
    TIERS,
    apply_threshold_mask,
    available_tiers,
    colamd_postorder,
    csc_to_csr,
    csr_to_csc,
    gather_columns,
    gram_csc,
    native_available,
    permuted_blocks,
    pivot_argmin_consume,
    qrcp_batch,
    record_tier,
    reset,
    resolve_tier,
    schur_update_csc,
    spgemm_csr,
    threshold_mask,
    validate_request,
    window_split,
)

__all__ = [
    "TIERS",
    "TIER_REQUESTS",
    "TIER_ENV",
    "THREADS_ENV",
    "available_tiers",
    "native_available",
    "resolve_tier",
    "validate_request",
    "record_tier",
    "reset",
    "kernel_threads",
    "spgemm_csr",
    "threshold_mask",
    "apply_threshold_mask",
    "permuted_blocks",
    "window_split",
    "pivot_argmin_consume",
    "csr_to_csc",
    "csc_to_csr",
    "gather_columns",
    "gram_csc",
    "schur_update_csc",
    "colamd_postorder",
    "qrcp_batch",
]
