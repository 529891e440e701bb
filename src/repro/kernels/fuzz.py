"""Differential fuzz harness for the kernel tier registry.

Every registered kernel has two implementations — ``pure`` (NumPy/SciPy)
and ``native`` (JIT C) — pinned to bitwise parity.  The unit pins in
``tests/test_kernel_tiers.py`` check hand-picked inputs; this harness
drives *seeded randomized* inputs through both tiers via the public
dispatch surface (:mod:`repro.kernels`) and asserts bit-for-bit equal
results, with adversarial input families the hand-picked pins under-run:

- empty matrices and empty rows/columns (``empty`` / ``empty_rows``);
- dense rows that overflow per-row accumulator assumptions
  (``dense_row``);
- exact cancellation (``cancel`` — paired ``+x``/``-x`` values whose
  products can sum to exact zero, exercising the zero-drop paths);
- explicit ``+0.0``/``-0.0`` stored entries (``negzero`` — sign bits
  must survive both tiers identically);
- extreme magnitudes including subnormals and near-overflow values
  (``extreme``);
- int32 index dtype with row ids near the 2**31 boundary
  (``boundary32``); for ``colamd_postorder``, whose pure oracle needs
  O(m) memory (a 2**31-row CSR indptr alone is 16 GiB), the family
  instead puts row lengths at the kernel's own boundary: exactly
  ``dense_cut`` and ``dense_cut + 1`` entries, next to empty, single and
  full rows;
- filled-in operands at density 0.9-1.0 (``filled``), which put
  ``gram_csc`` and ``schur_update_csc`` on their dense-panel routes
  while the sparser families keep them below the crossovers;
  ``gram_csc`` cases are batches of column-id pairs (empty lists, single
  and repeated ids, self-Grams) whose routes can differ within one
  call.

Failures are **minimized** (greedy shrink over the generating
parameters, re-checked after every step) and saved as ``.npz``
reproducers that :func:`replay` re-runs exactly.

Everything is deterministic: case ``i`` of kernel ``k`` under base seed
``s`` draws from ``default_rng((s, kernel_index, i))``, so a failure
seed in a CI log is enough to reproduce locally.

Entry points: ``python -m repro.lint --fuzz-kernels`` (CLI) and
``tests/test_fuzz_kernels.py`` (pytest smoke).  See ``docs/static_analysis.md``
("Native-tier analysis").
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import tiers

#: Adversarial input families, rotated per case index.
PATTERNS = ("uniform", "empty_rows", "dense_row", "cancel", "negzero",
            "extreme", "empty", "boundary32", "filled")

#: Kernels the harness covers, in dispatch-surface order.
#: New kernels go at the end: a case's seed includes its kernel's index.
KERNELS = ("spgemm_csr", "threshold_mask", "apply_threshold_mask",
           "permuted_blocks", "colamd_postorder", "csr_to_csc",
           "csc_to_csr", "gather_columns", "gram_csc", "schur_update_csc",
           "window_split")


@dataclass(frozen=True)
class CaseSpec:
    """Everything needed to regenerate one fuzz case deterministically."""

    kernel: str
    seed: int
    case: int
    m: int
    n: int
    k: int
    density: float
    pattern: str
    idx: str  # index dtype: "i32" | "i64"

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(
            (abs(self.seed), KERNELS.index(self.kernel), self.case))


def make_spec(kernel: str, seed: int, case: int) -> CaseSpec:
    """The deterministic parameter schedule for case ``case``."""
    rng = np.random.default_rng(
        (abs(seed), KERNELS.index(kernel), case, 7))
    pattern = PATTERNS[case % len(PATTERNS)]
    lo = 0 if pattern == "empty" else 1
    m, n, k = (int(v) for v in rng.integers(lo, 41, 3))
    density = float(rng.choice((0.02, 0.1, 0.3, 0.6)))
    if pattern == "filled":
        density = float(rng.choice((0.9, 0.95, 1.0)))
    idx = "i32" if (case // len(PATTERNS)) % 2 == 0 else "i64"
    return CaseSpec(kernel=kernel, seed=seed, case=case, m=m, n=n, k=k,
                    density=density, pattern=pattern, idx=idx)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _values(rng: np.random.Generator, nnz: int, pattern: str) -> np.ndarray:
    v = rng.uniform(-1.0, 1.0, nnz)
    if pattern == "cancel" and nnz >= 2:
        half = nnz // 2
        v[half:2 * half] = -v[:half]
    elif pattern == "negzero":
        zero = rng.random(nnz) < 0.3
        v[zero] = 0.0
        v[zero & (rng.random(nnz) < 0.5)] = -0.0
    elif pattern == "extreme":
        specials = np.array([1e308, -1e308, 1e-308, 5e-324, 1.0, -1.0])
        mix = rng.random(nnz) < 0.4
        v[mix] = specials[rng.integers(0, specials.size, nnz)[mix]]
    return v


def _idx_dtype(spec: CaseSpec):
    return np.int32 if spec.idx == "i32" else np.int64


def _with_idx(A, dtype):
    A.indptr = A.indptr.astype(dtype)
    A.indices = A.indices.astype(dtype)
    return A


def _sparse(spec: CaseSpec, rng: np.random.Generator, m: int, n: int,
            fmt: str):
    """Random canonical float64 CSR/CSC with ``spec``'s adversarial
    pattern (explicit zeros preserved via the COO constructor)."""
    density = 0.0 if spec.pattern == "empty" else spec.density
    cls = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
    if m == 0 or n == 0 or density == 0.0:
        A = cls((np.array([], dtype=np.float64),
                 (np.array([], dtype=np.int64),
                  np.array([], dtype=np.int64))), shape=(m, n))
        return _with_idx(A, _idx_dtype(spec))
    mask = rng.random((m, n)) < density
    if spec.pattern == "empty_rows":
        mask[rng.random(m) < 0.5, :] = False
    elif spec.pattern == "dense_row":
        mask[int(rng.integers(m)), :] = True
    rows, cols = np.nonzero(mask)
    vals = _values(rng, rows.size, spec.pattern)
    A = cls((vals, (rows, cols)), shape=(m, n))
    A.sum_duplicates()
    A.sort_indices()
    return _with_idx(A, _idx_dtype(spec))


def _boundary_csc(spec: CaseSpec, rng: np.random.Generator):
    """CSC with a handful of entries whose *row ids* sit at the int32
    boundary (shape ``(2**31 - 8) x n``) — the gather kernel must copy
    them through the int32 instantiation without truncation."""
    m = 2**31 - 8
    n = max(spec.n, 1)
    nnz_per_col = 3
    indptr = np.arange(n + 1, dtype=np.int64) * nnz_per_col
    indices = np.empty(n * nnz_per_col, dtype=np.int64)
    for j in range(n):
        picks = np.sort(rng.choice(
            np.array([0, 1, m // 2, m - 3, m - 2, m - 1], dtype=np.int64),
            size=nnz_per_col, replace=False))
        indices[j * nnz_per_col:(j + 1) * nnz_per_col] = picks
    data = _values(rng, indices.size, "uniform")
    A = sp.csc_matrix((data, indices, indptr), shape=(m, n))
    return _with_idx(A, np.int32)


def _dense_cut_rows(spec: CaseSpec, rng: np.random.Generator):
    """CSC pattern whose rows straddle the ordering's dense-row cut: each
    row holds 0, 1, ``cut - 1``, ``cut``, ``cut + 1`` or ``n`` entries
    (``n >= 17``, so ``cut + 1 <= n``)."""
    from ..ordering.colamd import dense_row_cut
    m, n = max(spec.m, 1), max(spec.n, 17)
    cut = dense_row_cut(n)
    lengths = rng.choice(np.array([0, 1, cut - 1, cut, cut + 1, n]), m)
    rows = np.repeat(np.arange(m), lengths)
    cols = np.concatenate([rng.choice(n, size=int(c), replace=False)
                           for c in lengths]).astype(np.int64)
    A = sp.csc_matrix((_values(rng, rows.size, "uniform"), (rows, cols)),
                      shape=(m, n))
    return _with_idx(A, _idx_dtype(spec))


def generate(spec: CaseSpec) -> dict:
    """Build the input dict for ``spec`` (deterministic in ``spec``)."""
    rng = spec.rng()
    k = spec.kernel
    if k == "spgemm_csr":
        return {"A": _sparse(spec, rng, spec.m, spec.k, "csr"),
                "B": _sparse(spec, rng, spec.k, spec.n, "csr")}
    if k == "threshold_mask":
        A = _sparse(spec, rng, spec.m, spec.n, "csr")
        scale = float(np.max(np.abs(A.data))) if A.nnz else 1.0
        mu = float(rng.choice((0.0, 1e-12, 0.25, 1.0, 4.0))) * scale
        return {"A": A, "mu": mu}
    if k == "apply_threshold_mask":
        A = _sparse(spec, rng, spec.m, spec.n, "csr")
        mask = None if spec.case % 5 == 0 else (
            rng.random(A.nnz) < 0.5)
        return {"A": A, "mask": mask}
    if k == "permuted_blocks":
        # contract: canonical CSC with 0 < k <= min(m, n)
        m, n = max(spec.m, 1), max(spec.n, 1)
        A = _sparse(spec, rng, m, n, "csc")
        return {"active": A,
                "col_perm": rng.permutation(n).astype(np.int64),
                "row_perm": rng.permutation(m).astype(np.int64),
                "k": int(rng.integers(1, min(m, n) + 1))}
    if k == "window_split":
        # contract: canonical CSC, any column subset, 0 < k <= m
        m = max(spec.m, 1)
        A = _sparse(spec, rng, m, spec.n, "csc")
        ncols = int(rng.integers(0, spec.n + 1))
        return {"active": A,
                "cols": rng.choice(spec.n, size=ncols,
                                   replace=False).astype(np.int64),
                "row_perm": rng.permutation(m).astype(np.int64),
                "k": int(rng.integers(1, m + 1))}
    if k == "colamd_postorder":
        if spec.pattern == "boundary32":
            return {"A": _dense_cut_rows(spec, rng)}
        return {"A": _sparse(spec, rng, spec.m, spec.n, "csc")}
    if k == "csr_to_csc":
        return {"A": _sparse(spec, rng, spec.m, spec.n, "csr")}
    if k == "csc_to_csr":
        return {"A": _sparse(spec, rng, spec.m, spec.n, "csc")}
    if k == "gather_columns":
        if spec.pattern == "boundary32":
            A = _boundary_csc(spec, rng)
        else:
            A = _sparse(spec, rng, spec.m, spec.n, "csc")
        ncols = int(rng.integers(0, A.shape[1] + 1))
        cols = rng.choice(A.shape[1], size=ncols,
                          replace=False).astype(np.int64)
        return {"A": A, "cols": cols}
    # variants rotate per occurrence of a family, so every family meets
    # each of them (the family itself is case % len(PATTERNS))
    variant = (spec.case // len(PATTERNS)) % 3
    if k == "gram_csc":
        B1 = _sparse(spec, rng, spec.m, spec.n, "csc")
        # identity => the whole batch reads B1 alone
        B2 = B1 if variant == 0 else _sparse(spec, rng, spec.m, spec.k,
                                              "csc")
        return {"B1": B1, "B2": B2, "pairs": _gram_pairs(rng, B1, B2)}
    if k == "schur_update_csc":
        return {"A22": _sparse(spec, rng, spec.m, spec.n, "csr"),
                "F": _sparse(spec, rng, spec.m, spec.k, "csr"),
                "A12": _sparse(spec, rng, spec.k, spec.n, "csr"),
                "tol": (None, 0.0, 1e-3)[variant]}
    raise ValueError(f"unknown kernel {k!r}")


def _gram_pairs(rng: np.random.Generator, B1, B2) -> list:
    """A batch of column-id pairs over ``[B1 | B2]`` (``B1`` alone when
    aliased), JSON-ready: ``[left, right]`` id lists, ``right`` ``None``
    for a self-Gram.  The first pair is the whole-panel Gram (``B1^T B1``
    or ``B1^T B2``); up to three more draw random subsets — empty lists,
    single columns, repeated ids — that mix routes within one batch."""
    c1 = B1.shape[1]
    ncols = c1 if B2 is B1 else c1 + B2.shape[1]
    pairs: list = ([[list(range(c1)), None]] if B2 is B1 else
                   [[list(range(c1)), list(range(c1, ncols))]])
    for _ in range(int(rng.integers(0, 4))):
        lo, ro = (rng.integers(0, ncols, int(rng.integers(0, 6))).tolist()
                  if ncols else [] for _ in range(2))
        pairs.append([lo, None if rng.random() < 0.3 else ro])
    return pairs


def gram_batch(inputs: dict):
    """``(A, left, right)`` of a ``gram_csc`` case: ``A`` concatenates
    the panels entry for entry in stored order (``B1``'s index dtype)."""
    B1, B2 = inputs["B1"], inputs["B2"]
    if B2 is B1:
        A = B1
    else:
        idx = B1.indices.dtype
        A = sp.csc_matrix((B1.shape[0], B1.shape[1] + B2.shape[1]))
        A.data = np.concatenate([B1.data, B2.data])
        A.indices = np.concatenate([B1.indices, B2.indices]).astype(idx)
        A.indptr = np.concatenate(
            [B1.indptr, B2.indptr[1:] + B1.indptr[-1]]).astype(idx)
    left = [np.asarray(lo, dtype=np.int64) for lo, _ in inputs["pairs"]]
    right = [lo if ro is None else np.asarray(ro, dtype=np.int64)
             for lo, (_, ro) in zip(left, inputs["pairs"])]
    return A, left, right


def _copy_inputs(inputs: dict) -> dict:
    out: dict = {}
    for key, val in inputs.items():
        if sp.issparse(val) or isinstance(val, np.ndarray):
            out[key] = val.copy()
        else:
            out[key] = val
    # preserve aliasing (the gram_csc symmetric path is `B2 is B1`)
    if inputs.get("B2") is not None and inputs.get("B1") is inputs.get("B2"):
        out["B2"] = out["B1"]
    return out


def run_kernel(inputs: dict, kernel: str, tier: str):
    """Dispatch one case on ``tier``; returns the full observable state
    (results plus any in-place mutations)."""
    i = inputs
    if kernel == "spgemm_csr":
        return tiers.spgemm_csr(i["A"], i["B"], tier=tier)
    if kernel == "threshold_mask":
        return tiers.threshold_mask(i["A"], i["mu"], tier=tier)
    if kernel == "apply_threshold_mask":
        out = tiers.apply_threshold_mask(i["A"], i["mask"], tier=tier)
        return (out, i["A"])  # mutated in place: compare the matrix too
    if kernel == "permuted_blocks":
        return tiers.permuted_blocks(i["active"], i["col_perm"],
                                     i["row_perm"], i["k"], tier=tier)
    if kernel == "window_split":
        return tiers.window_split(i["active"], i["cols"], i["row_perm"],
                                  i["k"], tier=tier)
    if kernel == "colamd_postorder":
        return tiers.colamd_postorder(i["A"], tier=tier)
    if kernel == "csr_to_csc":
        return tiers.csr_to_csc(i["A"], tier=tier)
    if kernel == "csc_to_csr":
        return tiers.csc_to_csr(i["A"], tier=tier)
    if kernel == "gather_columns":
        return tiers.gather_columns(i["A"], i["cols"], tier=tier)
    if kernel == "gram_csc":
        return tiers.gram_csc(*gram_batch(i), tier=tier)
    if kernel == "schur_update_csc":
        return tiers.schur_update_csc(i["A22"], i["F"], i["A12"],
                                      tol=i["tol"], tier=tier)
    raise ValueError(f"unknown kernel {kernel!r}")


# ---------------------------------------------------------------------------
# bitwise comparison
# ---------------------------------------------------------------------------

def _array_diff(a: np.ndarray, b: np.ndarray, where: str) -> str | None:
    if a.dtype != b.dtype:
        return f"{where}: dtype {a.dtype} != {b.dtype}"
    if a.shape != b.shape:
        return f"{where}: shape {a.shape} != {b.shape}"
    if a.tobytes() == b.tobytes():
        return None
    flat_a, flat_b = a.ravel(), b.ravel()
    bad = np.nonzero(flat_a.view(np.uint8).reshape(flat_a.size, -1)
                     != flat_b.view(np.uint8).reshape(flat_b.size, -1))[0]
    i = int(bad[0]) if bad.size else 0
    return (f"{where}: first bitwise divergence at flat index {i}: "
            f"pure={flat_a[i]!r} native={flat_b[i]!r}")


def diff_results(a, b, where: str = "result") -> str | None:
    """First bitwise difference between two result structures, or
    ``None`` when they are bit-for-bit identical."""
    if sp.issparse(a) or sp.issparse(b):
        if not (sp.issparse(a) and sp.issparse(b)):
            return f"{where}: sparse vs non-sparse ({type(a)} / {type(b)})"
        if a.format != b.format:
            return f"{where}: format {a.format} != {b.format}"
        if a.shape != b.shape:
            return f"{where}: shape {a.shape} != {b.shape}"
        for part in ("indptr", "indices", "data"):
            msg = _array_diff(getattr(a, part), getattr(b, part),
                              f"{where}.{part}")
            if msg:
                return msg
        return None
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return f"{where}: ndarray vs {type(b) if isinstance(a, np.ndarray) else type(a)}"
        return _array_diff(a, b, where)
    if isinstance(a, (tuple, list)):
        if not isinstance(b, (tuple, list)) or len(a) != len(b):
            return f"{where}: structure mismatch ({a!r} / {b!r})"
        for i, (x, y) in enumerate(zip(a, b)):
            msg = diff_results(x, y, f"{where}[{i}]")
            if msg:
                return msg
        return None
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, float) and isinstance(b, float)):
            return f"{where}: float vs {type(b) if isinstance(a, float) else type(a)}"
        if np.float64(a).tobytes() != np.float64(b).tobytes():
            return f"{where}: float bits differ: pure={a!r} native={b!r}"
        return None
    if a is None and b is None:
        return None
    if type(a) is not type(b) or a != b:
        return f"{where}: pure={a!r} native={b!r}"
    return None


def run_case(spec: CaseSpec) -> str | None:
    """Generate, run on both tiers, compare; a message names the first
    divergence (``None`` = bitwise parity held)."""
    inputs = generate(spec)
    ref = run_kernel(_copy_inputs(inputs), spec.kernel, "pure")
    got = run_kernel(_copy_inputs(inputs), spec.kernel, "native")
    return diff_results(ref, got)


# ---------------------------------------------------------------------------
# minimization + reproducers
# ---------------------------------------------------------------------------

def _shrink_candidates(spec: CaseSpec):
    for dim in ("m", "n", "k"):
        v = getattr(spec, dim)
        if v > 0:
            yield replace(spec, **{dim: v // 2})
    if spec.density > 0.02:
        yield replace(spec, density=round(spec.density / 2, 4))
    if spec.pattern not in ("uniform", "boundary32"):
        yield replace(spec, pattern="uniform")


def minimize(spec: CaseSpec, *, max_steps: int = 64) -> CaseSpec:
    """Greedy shrink over the generating parameters: accept any smaller
    spec that still diverges, until none does (or ``max_steps``)."""
    cur = spec
    for _ in range(max_steps):
        for cand in _shrink_candidates(cur):
            try:
                if run_case(cand) is not None:
                    cur = cand
                    break
            except Exception:
                continue  # shrunk out of the kernel's input contract
        else:
            return cur
    return cur


def save_reproducer(spec: CaseSpec, message: str, out_dir: Path) -> Path:
    """Persist a failing case: the spec regenerates the exact inputs, the
    arrays are stored too so the bug survives generator changes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {"spec": asdict(spec), "message": message, "scalars": {},
                  "sparse": {}, "aliases": []}
    inputs = generate(spec)
    if inputs.get("B2") is not None and inputs.get("B1") is inputs.get("B2"):
        meta["aliases"].append(["B2", "B1"])
    for key, val in inputs.items():
        if sp.issparse(val):
            meta["sparse"][key] = {"format": val.format,
                                   "shape": list(val.shape)}
            arrays[f"{key}.indptr"] = val.indptr
            arrays[f"{key}.indices"] = val.indices
            arrays[f"{key}.data"] = val.data
        elif isinstance(val, np.ndarray):
            arrays[key] = val
        else:
            meta["scalars"][key] = val
    path = out_dir / f"fuzz_{spec.kernel}_seed{spec.seed}_case{spec.case}.npz"
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
    return path


def load_reproducer(path: str | Path) -> tuple[CaseSpec, dict, str]:
    """Reload a saved case: ``(spec, inputs, original_message)``."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["__meta__"]))
        inputs: dict = dict(meta["scalars"])
        for key, info in meta["sparse"].items():
            cls = sp.csr_matrix if info["format"] == "csr" else sp.csc_matrix
            inputs[key] = cls((z[f"{key}.data"], z[f"{key}.indices"],
                               z[f"{key}.indptr"]),
                              shape=tuple(info["shape"]))
        for key in z.files:
            if key != "__meta__" and "." not in key:
                inputs[key] = z[key]
    for dst, src in meta.get("aliases", []):
        inputs[dst] = inputs[src]
    return CaseSpec(**meta["spec"]), inputs, meta["message"]


def replay(path: str | Path) -> str | None:
    """Re-run a saved reproducer from its stored arrays (not the
    generator); returns the divergence message or ``None`` if fixed."""
    spec, inputs, _ = load_reproducer(path)
    ref = run_kernel(_copy_inputs(inputs), spec.kernel, "pure")
    got = run_kernel(_copy_inputs(inputs), spec.kernel, "native")
    return diff_results(ref, got)


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

@dataclass
class FuzzFailure:
    spec: CaseSpec
    minimized: CaseSpec
    message: str
    reproducer: Path | None


@dataclass
class FuzzReport:
    kernel: str
    cases: int
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_kernel(kernel: str, *, cases: int = 100, seed: int = 0,
                out_dir: str | Path | None = None,
                minimize_failures: bool = True,
                max_failures: int = 5,
                log=None) -> FuzzReport:
    """Run ``cases`` differential cases for one kernel."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r} "
                         f"(choose from {', '.join(KERNELS)})")
    report = FuzzReport(kernel=kernel, cases=cases)
    for case in range(cases):
        spec = make_spec(kernel, seed, case)
        message = run_case(spec)
        if message is None:
            continue
        small = minimize(spec) if minimize_failures else spec
        message_small = run_case(small) or message
        repro = (save_reproducer(small, message_small, Path(out_dir))
                 if out_dir is not None else None)
        report.failures.append(FuzzFailure(
            spec=spec, minimized=small, message=message_small,
            reproducer=repro))
        if log is not None:
            log(f"FAIL {kernel} case {case}: {message_small}"
                + (f" [saved {repro}]" if repro else ""))
        if len(report.failures) >= max_failures:
            break
    return report


def fuzz_all(*, cases: int = 100, seed: int = 0,
             kernels: tuple[str, ...] | None = None,
             out_dir: str | Path | None = None,
             log=None) -> list[FuzzReport]:
    """Run the campaign over every (or the selected) kernel."""
    selected = KERNELS if kernels is None else tuple(kernels)
    return [fuzz_kernel(k, cases=cases, seed=seed, out_dir=out_dir, log=log)
            for k in selected]
