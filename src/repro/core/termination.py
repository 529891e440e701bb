"""Uniform termination criteria for the fixed-precision solvers.

The paper's central methodological point (Section II): a *fair* comparison of
RandQB_EI and LU_CRTP needs uniform termination — both stop when an
efficiently computable error indicator drops below ``tau * ||A||_F``.

- Randomized indicator, equation (4):
  ``E^(i) = sqrt(||A||_F^2 - sum_j ||B_k^(j)||_F^2)`` —
  exact for the Frobenius error of an orthonormal-Q QB factorization, but
  numerically unusable below ``2.1e-7`` in double precision (Theorem 3 of
  Yu/Gu/Li 2018): the subtraction cancels catastrophically.
- Deterministic indicator, equation (9): ``E^(i) = ||A^(i+1)||_F`` — the
  Frobenius norm of the running Schur complement, valid for any ``tau``.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..exceptions import ToleranceTooSmallError

#: Theorem 3 (Yu/Gu/Li 2018): the randomized indicator (4) fails in IEEE
#: double precision for tolerances below this value.
INDICATOR_DOUBLE_PRECISION_FLOOR = 2.1e-7


def check_tolerance(tau: float, *, randomized: bool,
                    allow_unsafe: bool = False) -> None:
    """Validate a requested tolerance.

    Raises :class:`ToleranceTooSmallError` for randomized solvers when
    ``tau`` is below the double-precision indicator floor, unless
    ``allow_unsafe`` (then a warning is emitted instead).  Called first
    thing in a solver's ``solve``, which the ``one_blas_thread`` decorator
    wraps: the warning skips that wrapper frame and names the line that
    called ``solve``.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tau}")
    if randomized and tau < INDICATOR_DOUBLE_PRECISION_FLOOR:
        msg = (f"tolerance {tau:g} is below the double-precision floor "
               f"{INDICATOR_DOUBLE_PRECISION_FLOOR:g} of the randomized error "
               "indicator (Theorem 3, Yu/Gu/Li 2018)")
        if allow_unsafe:
            warnings.warn(msg, RuntimeWarning, stacklevel=4)
        else:
            raise ToleranceTooSmallError(msg)


class RandErrorIndicator:
    """Running evaluation of the randomized indicator (4).

    Maintains ``E = ||A||_F^2 - sum ||B_k||_F^2`` and exposes the indicator
    value ``sqrt(max(E, 0))``.  Negative drift (possible once the true error
    approaches machine precision) is clamped and flagged.
    """

    def __init__(self, a_fro_sq: float):
        if a_fro_sq < 0:
            raise ValueError("||A||_F^2 must be nonnegative")
        self.a_fro_sq = float(a_fro_sq)
        self._e = float(a_fro_sq)
        self.underflowed = False

    def update(self, Bk: np.ndarray) -> float:
        """Subtract ``||B_k||_F^2`` for a freshly computed block and return
        the new indicator value."""
        self._e -= float(np.vdot(Bk, Bk).real)
        if self._e < 0:
            self.underflowed = True
        return self.value

    @property
    def value(self) -> float:
        return float(np.sqrt(max(self._e, 0.0)))

    def converged(self, tau: float) -> bool:
        return self.value < tau * np.sqrt(self.a_fro_sq)
