"""Scaling-report containers and text rendering (Fig. 4 output).

:class:`CommReport` is the one entry point for communication-volume
reporting: build it from a ``run_spmd`` output, raw per-rank ledgers, or
a captured :class:`~repro.trace.schema.CommTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .perfmodel import ParallelRunReport


@dataclass
class ScalingCurve:
    """Strong-scaling curve of one algorithm on one problem."""

    label: str
    nprocs: list[int]
    seconds: list[float]

    @property
    def speedups(self) -> np.ndarray:
        """Speedup relative to the smallest process count in the sweep."""
        return np.array([self.seconds[0] / s for s in self.seconds])

    @property
    def efficiency(self) -> np.ndarray:
        """Parallel efficiency ``speedup / (P / P0)``."""
        ratio = np.array(self.nprocs, dtype=float) / self.nprocs[0]
        return self.speedups / ratio

    @classmethod
    def from_reports(cls, label: str,
                     reports: list[ParallelRunReport]) -> "ScalingCurve":
        return cls(label=label, nprocs=[r.nprocs for r in reports],
                   seconds=[r.total_seconds for r in reports])

    def saturation_nprocs(self) -> int:
        """Process count past which adding processes gains < 10% — the
        "does not scale anymore" point of Fig. 4."""
        for i in range(1, len(self.nprocs)):
            if self.seconds[i] > 0.9 * self.seconds[i - 1]:
                return self.nprocs[i - 1]
        return self.nprocs[-1]


def _fmt_bytes(b: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(b) < 1024.0 or unit == "GiB":
            return f"{b:.1f}{unit}" if unit != "B" else f"{b:.0f}B"
        b /= 1024.0
    return f"{b:.1f}GiB"  # pragma: no cover


@dataclass
class CommReport:
    """Unified communication-volume report.

    Wraps the run-level ``comm`` summary dict (see
    :func:`~repro.parallel.collectives.summarize_ledgers`) and renders
    it; constructors accept every form communication data exists in:

    - :meth:`from_run` — the output dict of ``run_spmd`` / a solver run,
    - :meth:`from_ledgers` — raw per-rank
      :class:`~repro.parallel.collectives.CommLedger` objects,
    - :meth:`from_trace` — a captured ``repro.trace/v1``
      :class:`~repro.trace.schema.CommTrace` (the per-rank ledgers are
      reconstructed bitwise via
      :func:`repro.parallel.replay.replay_ledgers`, so a trace-built
      report equals the live run's report exactly).
    """

    summary: dict

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_run(cls, out: dict) -> "CommReport":
        """From a ``run_spmd`` / ``run_spmd_solver`` output dict."""
        comm = out.get("comm") if isinstance(out, dict) else None
        if comm is None:
            raise ValueError("run output has no 'comm' summary")
        return cls(dict(comm))

    @classmethod
    def from_ledgers(cls, ledgers, *, backend: str = "?",
                     algo: str = "flat") -> "CommReport":
        """From per-rank ledgers (``CommLedger`` objects or their
        ``to_dict`` forms)."""
        from .collectives import CommLedger, summarize_ledgers
        fixed = [led if isinstance(led, CommLedger)
                 else CommLedger.from_dict(led) for led in ledgers]
        return cls(summarize_ledgers(fixed, backend=backend, algo=algo))

    @classmethod
    def from_trace(cls, trace) -> "CommReport":
        """From a captured comm trace (bitwise-equal to the live run)."""
        from .replay import replay_ledgers
        return cls.from_ledgers(replay_ledgers(trace),
                                backend=trace.backend, algo=trace.algo)

    # -- accessors ------------------------------------------------------
    @property
    def bytes_sent(self) -> float:
        return float(self.summary.get("bytes_sent", 0.0))

    @property
    def msgs(self) -> int:
        return int(self.summary.get("msgs", 0))

    @property
    def by_op(self) -> dict:
        return self.summary.get("by_op", {})

    @property
    def by_kernel(self) -> dict:
        return self.summary.get("by_kernel", {})

    def to_dict(self) -> dict:
        return dict(self.summary)

    # -- rendering ------------------------------------------------------
    def table(self, by: str = "op") -> str:
        """Aligned text table of the ``by_op`` / ``by_kernel`` breakdown."""
        if by not in ("op", "kernel"):
            raise ValueError("by must be 'op' or 'kernel'")
        comm = self.summary
        rows = comm.get(f"by_{by}", {})
        head = (by.rjust(14) + "bytes sent".rjust(14) + "msgs".rjust(8)
                + "avg msg".rjust(12))
        lines = [f"comm volume [backend={comm.get('backend', '?')} "
                 f"algo={comm.get('algo', '?')}]", head, "-" * len(head)]
        for name, entry in rows.items():
            b, m = entry["bytes_sent"], entry["msgs"]
            avg = _fmt_bytes(b / m) if m else "-"
            lines.append(f"{name:>14s}{_fmt_bytes(b):>14s}{m:8d}{avg:>12s}")
        lines.append(f"{'total':>14s}"
                     f"{_fmt_bytes(comm.get('bytes_sent', 0.0)):>14s}"
                     f"{comm.get('msgs', 0):8d}{'':>12s}")
        return "\n".join(lines)


def speedup_table(curves: list[ScalingCurve]) -> str:
    """Render aligned text: one row per process count, one column per curve."""
    if not curves:
        return "(no curves)"
    ps = curves[0].nprocs
    for c in curves:
        if c.nprocs != ps:
            raise ValueError("curves must share the process-count sweep")
    head = "np".rjust(6) + "".join(c.label.rjust(18) for c in curves)
    lines = [head, "-" * len(head)]
    for i, p in enumerate(ps):
        row = f"{p:6d}"
        for c in curves:
            row += f"{c.speedups[i]:14.2f}x   "
        lines.append(row)
    return "\n".join(lines)
