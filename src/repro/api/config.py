"""Canonical solver configuration (:class:`SolverConfig`).

Every fixed-precision solver historically grew its own constructor
signature; the unified API narrows them to one frozen, hashable shape
covering the parameters the paper varies (block size ``k``, tolerance
``tau``, power ``p``, seed, the ILUT iteration estimate ``u``) plus
cross-cutting flags (``kernel_tier``, ``checkpointing``, ``machine``,
``trace``).  Method-specific knobs (``l_formula``, ``mu``,
``aggressive``, ...) pass through the ``extras`` mapping and are validated
against the target solver's dataclass fields at construction time.

``SolverConfig`` is also the *cache identity* of a factorization: the
solve service keys its content-addressed cache on
``(matrix fingerprint, method, config.cache_key())``.  ``cache_key``
excludes ``tol`` (so a tighter-``tau`` factorization can satisfy a looser
request — the τ-dominance rule) and ``checkpointing``/``trace``
(execution details).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

#: Fields that do not affect the produced factorization and are therefore
#: excluded from :meth:`SolverConfig.cache_key`.  ``machine`` is handled
#: separately: only its ``comm_algo`` can change results (tree/ring
#: transports reorder floating-point reductions on the procs backend), so
#: only that field enters the key — and only when it is not ``"flat"``.
_NON_IDENTITY_FIELDS = ("tol", "checkpointing", "trace")


def _freeze_extras(extras) -> tuple:
    """Normalize an extras mapping to a sorted, hashable tuple of pairs."""
    if extras is None:
        return ()
    if isinstance(extras, tuple):
        items = list(extras)
    else:
        items = list(dict(extras).items())
    for key, _ in items:
        if not isinstance(key, str):
            raise ValueError(f"extras keys must be strings, got {key!r}")
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class SolverConfig:
    """Frozen, canonical configuration shared by all four methods.

    Parameters
    ----------
    k:
        Block size (rank added per outer iteration).
    tol:
        Relative tolerance ``tau`` on ``||A - H W||_F / ||A||_F``.
    power:
        Power-scheme parameter ``p`` (RandQB_EI only; ignored elsewhere).
    seed:
        RNG seed for the randomized methods (ignored by LU/ILUT).
    estimated_iterations:
        ILUT heuristic (24) iteration estimate ``u`` (positive int or
        ``"auto"``); ignored by the other methods.
    checkpointing:
        Ask the runtime (service / CLI) to attach per-iteration checkpoint
        hooks; inert for solvers without checkpoint support (RandUBV).
    max_rank:
        Rank cap (``None`` = dimension-limited).
    kernel_tier:
        Kernel tier request: ``"auto"`` (default), ``"pure"`` or
        ``"native"``.  Tiers are bitwise-identical by the parity contract,
        but the *request* is part of the cache identity: the raw request is
        serialized into :meth:`cache_key` so provenance records which tier
        was asked for (``auto`` resolution is environment-dependent and
        recorded separately on the result).
    machine:
        Simulated machine for SPMD runs: ``None`` (the default model), a
        preset name from :data:`repro.parallel.machine.MACHINE_PRESETS`
        (``"ib-cluster"``, ``"ethernet-cluster"``, ...), a coefficient
        mapping (``{"alpha": 5e-5, "comm_algo": "tree"}``) or a built
        :class:`~repro.parallel.machine.MachineModel`.  Normalized to a
        ``MachineModel`` at construction.  Only ``comm_algo`` enters
        :meth:`cache_key` (and only when not ``"flat"``): cost
        coefficients never change the factorization, but tree/ring
        transports reorder floating-point reductions.
    trace:
        Capture a ``repro.trace/v1`` communication trace during SPMD
        runs (see :mod:`repro.trace`).  An execution detail, excluded
        from the cache identity.
    extras:
        Method-specific passthrough options, e.g.
        ``{"l_formula": "auto"}``; validated against the target solver.
    """

    k: int = 32
    tol: float = 1e-2
    power: int = 1
    seed: int = 0
    estimated_iterations: int | str = 10
    checkpointing: bool = False
    max_rank: int | None = None
    kernel_tier: str = "auto"
    machine: Any = None
    trace: bool = False
    extras: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "extras", _freeze_extras(self.extras))
        if int(self.k) <= 0:
            raise ValueError("block size k must be positive")
        if not float(self.tol) > 0:
            raise ValueError("tolerance tol must be positive")
        if not 0 <= int(self.power) <= 3:
            raise ValueError("power parameter p must be in [0, 3]")
        u = self.estimated_iterations
        if isinstance(u, str):
            if u != "auto":
                raise ValueError(
                    "estimated_iterations must be a positive int or 'auto'")
        elif int(u) <= 0:
            raise ValueError("estimated_iterations must be positive")
        if self.max_rank is not None and int(self.max_rank) <= 0:
            raise ValueError("max_rank must be positive when given")
        from ..kernels import validate_request
        object.__setattr__(self, "kernel_tier",
                           validate_request(self.kernel_tier))
        if self.machine is not None:
            from ..parallel.machine import MachineModel
            object.__setattr__(self, "machine",
                               MachineModel.from_spec(self.machine))
        object.__setattr__(self, "trace", bool(self.trace))

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (``extras`` and ``machine`` become nested
        dicts; round-trips through :meth:`from_dict`)."""
        d = dataclasses.asdict(self)
        d["extras"] = dict(self.extras)
        if self.machine is not None:
            d["machine"] = self.machine.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ValueError(
                f"unknown SolverConfig field(s): {sorted(unknown)}")
        return cls(**d)

    def replace(self, **changes) -> "SolverConfig":
        """A copy with the given fields changed (config stays frozen)."""
        return dataclasses.replace(self, **changes)

    def extras_dict(self) -> dict:
        return dict(self.extras)

    # -- cache identity ------------------------------------------------
    def cache_key(self) -> str:
        """Stable string identifying the factorization this config yields.

        Excludes ``tol``/``checkpointing``/``trace`` (see
        module docstring); everything else is serialized as canonical
        JSON with sorted keys so logically-equal configs collide.  Of the
        ``machine`` only a non-``"flat"`` ``comm_algo`` is identity: cost
        coefficients shape modeled clocks, never the factorization, but
        the tree/ring transports reorder floating-point reductions on
        the procs backend.
        """
        d = self.to_dict()
        for name in _NON_IDENTITY_FIELDS:
            d.pop(name, None)
        d.pop("machine", None)
        if self.machine is not None and self.machine.comm_algo != "flat":
            d["comm_algo"] = self.machine.comm_algo
        return json.dumps(d, sort_keys=True, separators=(",", ":"))


def constructor_kwargs(solver_cls, config: SolverConfig) -> dict[str, Any]:
    """Translate a :class:`SolverConfig` into ``solver_cls`` kwargs.

    Canonical fields that the target dataclass does not declare are
    silently dropped (``power`` for LU, ``seed`` for ILUT, ...); ``extras``
    keys have no such tolerance — an extra that is not a field of
    ``solver_cls`` raises ``ValueError`` since it was asked for by name.
    """
    accepted = {f.name for f in dataclasses.fields(solver_cls)}
    kwargs: dict[str, Any] = {}
    for name in ("k", "tol", "power", "seed", "estimated_iterations",
                 "max_rank", "kernel_tier"):
        if name in accepted:
            kwargs[name] = getattr(config, name)
    for name, value in config.extras:
        if name not in accepted:
            raise ValueError(
                f"{solver_cls.__name__} has no option {name!r} "
                f"(valid extras: {sorted(accepted)})")
        kwargs[name] = value
    return kwargs
