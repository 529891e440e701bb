"""Sparse-matrix utilities shared by the deterministic factorizations.

- :mod:`repro.sparse.utils` — format coercion, nnz/density statistics.
- :mod:`repro.sparse.ops` — permutations, submatrix splits, factor assembly.
- :mod:`repro.sparse.thresholding` — entry dropping and perturbation tracking
  (the ``T~^(i)`` matrices of Section III).
- :mod:`repro.sparse.pattern` — symbolic structure tools (A^T A pattern,
  column counts).
- :mod:`repro.sparse.fillin` — fill-in tracking across Schur complements.
- :mod:`repro.sparse.spgemm` — reusable SpGEMM buffers and exact flop counts.
- :mod:`repro.sparse.window` — fused index-window permute/split over the
  running Schur complement (the solver hot path).
"""

from .utils import (ensure_csc, ensure_csr, drop_explicit_zeros, density,
                    nnz_of, raw_csc, raw_csr)
from .ops import (
    permute_rows,
    permute_cols,
    permute,
    split_2x2,
    hstack_factors,
    vstack_factors,
    extract_columns,
    csr_matmul_nosym,
)
from .thresholding import (drop_small, drop_sorted_budget, DropResult,
                           apply_threshold_mask, threshold_mask)
from .pattern import ata_pattern_degrees, column_counts
from .spgemm import SpGEMMWorkspace, spgemm_flops
from .fillin import FillInTracker
from .window import (csr_row_window, dense_rows_to_csr,
                     extract_leading_columns, gather_positions,
                     permuted_blocks)

__all__ = [
    "ensure_csc",
    "ensure_csr",
    "drop_explicit_zeros",
    "density",
    "nnz_of",
    "raw_csc",
    "raw_csr",
    "permute_rows",
    "permute_cols",
    "permute",
    "split_2x2",
    "hstack_factors",
    "vstack_factors",
    "extract_columns",
    "csr_matmul_nosym",
    "drop_small",
    "drop_sorted_budget",
    "DropResult",
    "apply_threshold_mask",
    "threshold_mask",
    "ata_pattern_degrees",
    "column_counts",
    "SpGEMMWorkspace",
    "spgemm_flops",
    "FillInTracker",
    "csr_row_window",
    "dense_rows_to_csr",
    "extract_leading_columns",
    "gather_positions",
    "permuted_blocks",
]
