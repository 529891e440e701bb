"""Simulated distributed-memory layer (Section V of the paper).

This host has one core and no MPI, so the paper's parallel evaluation is
reproduced with a two-layer simulation (DESIGN.md §5):

1. **Executable SPMD** (:mod:`repro.parallel.comm`,
   :mod:`repro.parallel.kernels`) — thread-per-rank communicator with an
   MPI-like API (bcast / scatter / gather / allgather / allreduce /
   send / recv) and collective cost charging.  The parallel kernels (TSQR,
   SpMM, tournament reduction) run *really* distributed at small process
   counts and are unit-tested for parity with the sequential kernels.
2. **Performance model** (:mod:`repro.parallel.perfmodel`) — replays the
   *actual trace* of a sequential solve (per-iteration nnz, per-column nnz
   histograms, fill-in) through an alpha-beta-gamma machine model
   (:mod:`repro.parallel.machine`) to produce per-kernel, per-rank clocks
   for any process count up to the paper's 4096.  Strong-scaling speedups
   (Fig. 4) and kernel breakdowns (Figs. 5-6) come from this layer.
"""

from .machine import MACHINE_PRESETS, MachineModel, CollectiveCosts
from .comm import BACKENDS, SimComm, run_spmd
from .collectives import COMM_ALGOS, CommLedger
from .procs import ProcComm, run_spmd_procs
from .shm import SharedMatrix, shm_segments
from .faults import (
    FaultPlan,
    FaultInjector,
    RankCrash,
    MessageDrop,
    PayloadCorruption,
    ClockSkewStall,
)
from .distribution import (
    block_ranges,
    cyclic_owner,
    block_cyclic_columns,
    partition_rows_csr,
    partition_cols_csc,
)
from .kernels import par_tsqr, par_spmm_rowdist, par_qt_a, par_tournament_columns
from .perfmodel import (
    KernelClock,
    ParallelRunReport,
    simulate_lu_crtp,
    simulate_ilut_crtp,
    simulate_randqb_ei,
    simulate_randubv,
    strong_scaling,
)
from .report import (
    CommReport,
    ScalingCurve,
    speedup_table,
)
from .replay import (
    ExtrapolationReport,
    ReplayReport,
    extrapolate,
    replay_costs,
    replay_ledgers,
    replay_transport,
    trace_diff,
)
from .spmd import spmd_randqb_ei, spmd_lu_crtp, spmd_randubv, run_spmd_solver
from .dist_dense import ProcessGrid, DistDense

__all__ = [
    "MachineModel",
    "MACHINE_PRESETS",
    "CollectiveCosts",
    "SimComm",
    "run_spmd",
    "BACKENDS",
    "COMM_ALGOS",
    "CommLedger",
    "ProcComm",
    "run_spmd_procs",
    "SharedMatrix",
    "shm_segments",
    "FaultPlan",
    "FaultInjector",
    "RankCrash",
    "MessageDrop",
    "PayloadCorruption",
    "ClockSkewStall",
    "block_ranges",
    "cyclic_owner",
    "block_cyclic_columns",
    "partition_rows_csr",
    "partition_cols_csc",
    "par_tsqr",
    "par_spmm_rowdist",
    "par_qt_a",
    "par_tournament_columns",
    "KernelClock",
    "ParallelRunReport",
    "simulate_lu_crtp",
    "simulate_ilut_crtp",
    "simulate_randqb_ei",
    "strong_scaling",
    "ScalingCurve",
    "CommReport",
    "speedup_table",
    "ReplayReport",
    "ExtrapolationReport",
    "replay_ledgers",
    "replay_costs",
    "extrapolate",
    "replay_transport",
    "trace_diff",
    "simulate_randubv",
    "spmd_randqb_ei",
    "spmd_lu_crtp",
    "spmd_randubv",
    "run_spmd_solver",
    "ProcessGrid",
    "DistDense",
]
