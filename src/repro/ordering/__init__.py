"""Fill-reducing orderings used as LU_CRTP preprocessing (Section V).

The paper permutes the input with COLAMD followed by a postorder traversal of
the column elimination tree before running LU_CRTP.  We implement the same
pipeline from scratch:

- :mod:`repro.ordering.colamd` — column approximate-minimum-degree ordering
  on the quotient graph of ``A^T A`` (rows of ``A`` as initial elements).
- :mod:`repro.ordering.etree` — column elimination tree and postorder, and
  :func:`colamd_preprocess`, the whole pipeline on the kernel tier (the
  native tier runs it in one C call, same permutation).
- :mod:`repro.ordering.rcm` — reverse Cuthill-McKee (ablation comparator).
"""

from .colamd import colamd
from .etree import col_etree, postorder, colamd_preprocess
from .rcm import rcm
from .nested_dissection import nested_dissection

__all__ = ["colamd", "col_etree", "postorder", "colamd_preprocess", "rcm",
           "nested_dissection"]
