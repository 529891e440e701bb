"""Span recording around the program's layer boundaries (traced runs).

The benchmark wraps public functions of each layer at the name their
caller looks up (``repro.core.lu_crtp.qr_tp``, ``repro.kernels.gram_csc``,
``repro.service.runner.matrix_fingerprint``, ...).  A wrapper records one
span ``(id, name, start, end, parent, op)`` in memory; the spans are
written out when the run ends.  Self times, counts and ratios are derived
from the spans afterwards (:func:`self_times`), so the wrappers do as
little as possible while the program runs.

Only the process that installed the wrappers records: rank processes of
the procs SPMD backend fork with the wrappers in place and call straight
through.  Calls outside an op (set-up, the checks) are not recorded.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: Kernel dispatch functions of ``repro.kernels``, by span name.  Callers
#: look them up on the package at call time (``kernels.gram_csc(...)`` or
#: a function-local ``from ..kernels import ...``).
KERNELS = {
    "gram_csc": "kernels.gram_csc",
    "schur_update_csc": "kernels.schur_update_csc",
    "permuted_blocks": "kernels.permuted_blocks",
    "threshold_mask": "kernels.threshold",
    "apply_threshold_mask": "kernels.threshold",
    "gather_columns": "kernels.gather_columns",
    "spgemm_csr": "kernels.other",
    "csr_to_csc": "kernels.other",
    "csc_to_csr": "kernels.other",
    "pivot_argmin_consume": "kernels.other",
}

#: ``(module, attribute path, span name)`` of every other wrapped name.
TARGETS = [
    ("repro.core.lu_crtp", "qr_tp", "pivoting.col_tp"),
    ("repro.core.lu_crtp", "qr_tp_rows", "pivoting.row_tp"),
    ("repro.pivoting.tournament", "select_columns", "pivoting.match"),
    ("repro.pivoting.select", "qrcp", "linalg.qrcp"),
    ("repro.pivoting.select", "strong_rrqr", "linalg.qrcp"),
    ("repro.core.lu_crtp", "cholqr2", "linalg.cholqr2"),
    ("repro.core.randqb_ei", "orth", "linalg.orth"),
    ("repro.core.randqb_ei", "reorthogonalize", "linalg.orth"),
    ("repro.core.randqb_ei", "gaussian_batch", "linalg.sketch"),
    ("repro.core.randqb_ei", "make_sketch", "linalg.sketch"),
    ("repro.core.lu_crtp", "LU_CRTP.solve", "core.solve"),
    ("repro.core.ilut_crtp", "ILUT_CRTP.solve", "core.solve"),
    ("repro.core.randqb_ei", "RandQB_EI.solve", "core.solve"),
    ("repro.core.lu_crtp", "colamd_preprocess", "ordering.colamd"),
    ("repro.core.ilut_crtp", "colamd_preprocess", "ordering.colamd"),
    ("repro.core.lu_crtp", "assemble_L_global", "sparse.assemble"),
    ("repro.core.lu_crtp", "assemble_U_global", "sparse.assemble"),
    ("repro.core.ilut_crtp", "assemble_L_global", "sparse.assemble"),
    ("repro.core.ilut_crtp", "assemble_U_global", "sparse.assemble"),
    ("repro.core.lu_crtp", "extract_leading_columns", "sparse.window"),
    ("repro.core.lu_crtp", "dense_rows_to_csr", "sparse.window"),
    ("repro.core.lu_crtp", "csr_rows_to_dense", "sparse.window"),
    ("repro.matrices", "suite_matrix", "matrices.gen"),
    ("repro.service.schema", "MatrixSpec.load", "service.load"),
    ("repro.service.runner", "matrix_fingerprint", "service.fingerprint"),
    ("repro.service.cache", "FactorizationCache.lookup", "service.lookup"),
    ("repro.service.cache", "DiskCacheTier.lookup", "service.disk_lookup"),
    ("repro.service.cache", "FactorizationCache.store", "service.store"),
    ("repro.service.cache", "DiskCacheTier.store", "service.disk_store"),
    ("repro.results", "LowRankApproximation.to_json", "service.to_json"),
    ("repro.results", "LUApproximation.to_json", "service.to_json"),
    ("repro.parallel.procs", "publish_args", "parallel.publish"),
]


def _nbytes(M) -> int:
    return int(sum(getattr(M, a).nbytes
                   for a in ("data", "indices", "indptr")))


def _on_kernel(rec, args, kwargs, out, attr):
    """Count which tier served a dispatch, ILUT drop attempts and the
    computed bytes of the Schur update."""
    from repro import kernels
    tier = kwargs.get("tier")
    if tier not in kernels.TIERS:
        tier = kernels.resolve_tier(tier)
    rec.count("kernels.native_calls", tier == "native")
    if attr == "threshold_mask":
        rec.count("core.threshold_attempts")
    elif attr == "apply_threshold_mask":
        rec.count("core.threshold_kept")
    elif attr == "schur_update_csc":
        rec.count("kernels.schur_bytes",
                  sum(_nbytes(M) for M in (*args[:3], out)))


def _on_tournament(rec, args, kwargs, out, attr):
    rec.count("pivoting.matches", len(out.stats.matches))
    rec.count("pivoting.tournament_flops", out.stats.total_flops)


def _on_match(rec, args, kwargs, out, attr):
    rec.count("pivoting.fallbacks", bool(out.used_fallback))


def _on_solve(rec, args, kwargs, out, attr):
    rec.count("core.iterations", out.iterations)
    rec.count("kernels.schur_flops", sum(
        float(r.extra.get("trace", {}).get("schur_flops", 0.0))
        for r in out.history))


HOOKS = {
    "pivoting.col_tp": _on_tournament,
    "pivoting.row_tp": _on_tournament,
    "pivoting.match": _on_match,
    "core.solve": _on_solve,
}


class Recorder:
    """In-memory spans and counters, grouped by op.

    The workload loop brackets each measured op with :meth:`begin_op` /
    :meth:`end_op`; the op's root span is the parent of every span that
    has no enclosing span on its own thread (service worker threads).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op: int | None = None
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._tl = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._tl, "stack", None)
        if st is None:
            st = self._tl.stack = []
        return st

    def count(self, name: str, value=1) -> None:
        with self._lock:
            self.counts[self.op][name] += value

    def begin_op(self, op: int) -> None:
        self.op = op
        self.root = next(self._ids)
        self._root_start = perf_counter()

    def end_op(self) -> None:
        self.spans.append((self.root, "bench.op", self._root_start,
                           perf_counter(), None, self.op))
        self.op = self.root = None

    def wrap(self, fn, name: str, hook=None, attr: str = ""):
        rec = self

        def traced(*args, **kwargs):
            op = rec.op
            if op is None or os.getpid() != rec._pid:
                return fn(*args, **kwargs)
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else rec.root
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.spans.append((sid, name, t0, t1, parent, op))
            if hook is not None:
                hook(rec, args, kwargs, out, attr)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Put a wrapper at every target name (idempotent)."""
        if self._patches:
            return
        kernels = importlib.import_module("repro.kernels")
        for attr, name in KERNELS.items():
            self._patch(kernels, attr, name, _on_kernel)
        for module, path, name in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, name, HOOKS.get(name))

    def _patch(self, owner, attr, name, hook) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, hook, attr))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "op"), s)))
                    + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    hi = float("-inf")
    for a, b in sorted(intervals):
        if b <= hi:
            continue
        total += b - max(a, hi)
        hi = b
    return total


def self_times(spans) -> list[tuple[str, float, float, int]]:
    """``(name, self time, duration, op)`` per span.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.
    """
    children: dict = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = []
    for sid, name, t0, t1, _, op in spans:
        covered = _union_length(
            (max(a, t0), min(b, t1)) for a, b in children.get(sid, ())
            if min(b, t1) > max(a, t0))
        out.append((name, (t1 - t0) - covered, t1 - t0, op))
    return out


#: Per-layer metrics summing span self times, by the span names they sum.
#: Every span name appears exactly once, so these plus
#: ``bench.unattributed_s`` (the op root's self time) add up to the op
#: latency.
SELF_METRICS = {
    "kernels.gram_csc_s": ("kernels.gram_csc",),
    "kernels.schur_update_csc_s": ("kernels.schur_update_csc",),
    "kernels.permuted_blocks_s": ("kernels.permuted_blocks",),
    "kernels.threshold_s": ("kernels.threshold",),
    "kernels.gather_columns_s": ("kernels.gather_columns",),
    "kernels.other_s": ("kernels.other",),
    "pivoting.self_s": ("pivoting.col_tp", "pivoting.row_tp",
                        "pivoting.match"),
    "linalg.qrcp_s": ("linalg.qrcp",),
    "linalg.cholqr2_s": ("linalg.cholqr2",),
    "linalg.orth_s": ("linalg.orth",),
    "linalg.sketch_s": ("linalg.sketch",),
    "core.self_s": ("core.solve",),
    "ordering.colamd_s": ("ordering.colamd",),
    "sparse.assemble_s": ("sparse.assemble",),
    "sparse.window_s": ("sparse.window",),
    "service.queue_wait_s": ("service.queue_wait",),
    "service.load_s": ("service.load",),
    "service.fingerprint_s": ("service.fingerprint",),
    "service.lookup_s": ("service.lookup",),
    "service.disk_lookup_s": ("service.disk_lookup",),
    "service.store_s": ("service.store",),
    "service.disk_store_s": ("service.disk_store",),
    "service.to_json_s": ("service.to_json",),
    "parallel.publish_s": ("parallel.publish",),
    "matrices.gen_s": ("matrices.gen",),
    "bench.unattributed_s": ("bench.op",),
}

#: Per-layer metrics that report a span's whole duration, children included.
INCLUSIVE_METRICS = {
    "pivoting.col_tp_s": "pivoting.col_tp",
    "pivoting.row_tp_s": "pivoting.row_tp",
    "core.solve_s": "core.solve",
}


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec: Recorder, per: int, *, queue_wait: bool = False):
    """Per-layer metrics over the recorded ops, divided by ``per`` (ops or
    requests), and the check figures ``(traced op latency, identity
    residual)`` per ``per``.

    With ``queue_wait`` the gap between an op's start and its first
    program span becomes a ``service.queue_wait`` span: the time the
    submitted burst waited for a worker to start loading it.
    """
    recorded = list(rec.spans)
    if queue_wait:
        roots, first = {}, {}
        for s in recorded:
            if s[1] == "bench.op":
                roots[s[5]] = s
            else:
                first[s[5]] = min(first.get(s[5], s[2]), s[2])
        ids = itertools.count(max(s[0] for s in recorded) + 1)
        for op, root in roots.items():
            if op in first:
                recorded.append((next(ids), "service.queue_wait",
                                 root[2], first[op], root[0], op))
    self_sum, incl, calls = Counter(), Counter(), Counter()
    for name, own, dur, _ in self_times(recorded):
        self_sum[name] += own
        incl[name] += dur
        calls[name] += 1
    counts = Counter()
    for c in rec.counts.values():
        counts.update(c)
    out = {m: sum(self_sum[n] for n in names) / per
           for m, names in SELF_METRICS.items()}
    out.update({m: incl[n] / per for m, n in INCLUSIVE_METRICS.items()})
    kernel_calls = sum(v for k, v in calls.items()
                       if k.startswith("kernels."))
    out.update({
        "kernels.calls": kernel_calls / per,
        "kernels.native_frac": _frac(counts["kernels.native_calls"],
                                     kernel_calls),
        "kernels.schur_flops": counts["kernels.schur_flops"] / per,
        "kernels.schur_bytes": counts["kernels.schur_bytes"] / per,
        "pivoting.matches": counts["pivoting.matches"] / per,
        "pivoting.fallback_frac": _frac(counts["pivoting.fallbacks"],
                                        calls["pivoting.match"]),
        "pivoting.tournament_flops": counts["pivoting.tournament_flops"]
        / per,
        "linalg.qrcp_calls": calls["linalg.qrcp"] / per,
        "core.iterations": counts["core.iterations"] / per,
        "core.threshold_accept_frac": _frac(
            counts["core.threshold_kept"], counts["core.threshold_attempts"]),
    })
    latency = incl["bench.op"]
    residual = latency - sum(self_sum.values())
    return out, latency / per, residual / per
