"""Random sketching operators for the randomized range finders.

RandQB_EI (Algorithm 1, line 4) draws a fresh Gaussian test matrix
``Omega_k = randn(n, k)`` each iteration.  Besides the Gaussian operator we
provide Rademacher and sparse-sign sketches; the latter make the sketching
product ``A @ Omega`` cheaper for very sparse ``A`` and are a common
engineering extension (Clarkson-Woodruff style input-sparsity sketching,
reference [3] of the paper).
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp


class SketchKind(str, enum.Enum):
    """Supported families of random test matrices."""

    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    SPARSE_SIGN = "sparse_sign"
    SRHT = "srht"


def gaussian(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian test matrix of shape ``(n, k)``."""
    return rng.standard_normal((n, k))


def gaussian_batch(n: int, k: int, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """``count`` Gaussian test matrices in one ``(count, n, k)`` draw.

    numpy's Generator fills arrays in C order from a single value stream,
    so ``gaussian_batch(n, k, b, rng)[j]`` is *bitwise identical* to the
    ``j``-th of ``b`` sequential :func:`gaussian` calls, and the generator
    is left in the identical state afterwards.  RandQB_EI uses this to
    amortize ``b`` ziggurat passes into one vectorized call without
    perturbing the reproducible draw sequence.
    """
    return rng.standard_normal((count, n, k))


def rademacher(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Dense +-1 test matrix of shape ``(n, k)`` (variance 1 entries)."""
    return rng.integers(0, 2, size=(n, k)).astype(np.float64) * 2.0 - 1.0


def sparse_sign(n: int, k: int, rng: np.random.Generator, *,
                density_rows: int = 8) -> sp.csc_matrix:
    """Sparse-sign sketching operator with ``min(density_rows, n)`` nonzeros
    per column, scaled so that ``E[Omega Omega^T] = I``.

    Parameters
    ----------
    n, k:
        Shape of the operator.
    rng:
        Source of randomness.
    density_rows:
        Nonzeros per column (``zeta`` in the sketching literature; 8 is the
        standard practical choice).
    """
    zeta = min(density_rows, n)
    rows = np.empty(zeta * k, dtype=np.int64)
    for j in range(k):
        rows[j * zeta:(j + 1) * zeta] = rng.choice(n, size=zeta, replace=False)
    cols = np.repeat(np.arange(k), zeta)
    vals = (rng.integers(0, 2, size=zeta * k).astype(np.float64) * 2.0 - 1.0)
    vals *= np.sqrt(n / zeta) / np.sqrt(n)  # unit column variance overall
    return sp.csc_matrix((vals, (rows, cols)), shape=(n, k))


def fwht(x: np.ndarray) -> np.ndarray:
    """In-place-style fast Walsh-Hadamard transform along axis 0.

    ``x`` must have a power-of-two leading dimension; returns the
    *unnormalized* transform (orthogonality requires a ``1/sqrt(n)``
    factor, applied by :func:`srht`).  ``O(n log n)`` with vectorized
    butterflies.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    n = x.shape[0]
    if n & (n - 1):
        raise ValueError("FWHT needs a power-of-two length")
    h = 1
    while h < n:
        x = x.reshape(n // (2 * h), 2, h, *x.shape[1:])
        a = x[:, 0] + x[:, 1]
        b = x[:, 0] - x[:, 1]
        x = np.concatenate([a[:, None], b[:, None]],
                           axis=1).reshape(n, *a.shape[2:])
        h *= 2
    return x


def srht(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Subsampled randomized Hadamard transform test matrix (dense form).

    ``Omega = sqrt(n/k) * D H' S`` where ``D`` is a random sign diagonal,
    ``H'`` the orthonormal Hadamard transform (zero-padded to the next
    power of two) and ``S`` a column sampler.  Returned densely as an
    ``(n, k)`` array so ``A @ Omega`` works like the other sketches; the
    structured fast-apply is exposed through :func:`fwht` for callers that
    want the ``O(n log n)`` route.
    """
    p = 1 << (n - 1).bit_length()  # next power of two
    signs = rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    cols = rng.choice(p, size=k, replace=False)
    # build the selected columns of H' applied after D: each column j of
    # the operator is D * H'[:, cols[j]] restricted to the first n rows
    E = np.zeros((p, k))
    E[cols, np.arange(k)] = 1.0
    Hcols = fwht(E) / np.sqrt(p)  # H is symmetric: H[:, c] = H e_c
    Omega = signs[:, None] * Hcols[:n]
    return Omega * np.sqrt(p / k)


def make_sketch(kind: SketchKind | str, n: int, k: int,
                rng: np.random.Generator):
    """Dispatch constructor for a test matrix of the requested family."""
    kind = SketchKind(kind)
    if kind is SketchKind.GAUSSIAN:
        return gaussian(n, k, rng)
    if kind is SketchKind.RADEMACHER:
        return rademacher(n, k, rng)
    if kind is SketchKind.SPARSE_SIGN:
        return sparse_sign(n, k, rng)
    if kind is SketchKind.SRHT:
        return srht(n, k, rng)
    raise ValueError(f"unknown sketch kind: {kind!r}")
