"""Solver registry: one name table for CLI, service and examples.

``SOLVERS`` maps each canonical method name (``randqb``, ``ubv``, ``lu``,
``ilut`` — the paper's comparison order) to a :class:`SolverSpec` carrying
the implementing class and its accepted aliases.  ``make_solver`` is the
single construction entry point: resolve the name, translate the
:class:`~repro.api.config.SolverConfig` into constructor kwargs and
instantiate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import UnknownSolverError
from .config import SolverConfig, constructor_kwargs


@dataclass(frozen=True)
class SolverSpec:
    """Registry entry for one fixed-precision method."""

    name: str                 # canonical name ("randqb", "ubv", ...)
    label: str                # display label ("RandQB_EI", ...)
    aliases: tuple[str, ...]  # accepted spellings, lowercase
    supports_checkpoint: bool = True
    supports_spmd: bool = True
    #: SPMD execution backends this method's rank program runs under.
    #: Methods without an SPMD route keep the default and are never
    #: dispatched to either.
    spmd_backends: tuple[str, ...] = ("threads", "procs")
    description: str = ""

    def supports_backend(self, backend: str) -> bool:
        return self.supports_spmd and backend in self.spmd_backends

    def cls(self):
        """The implementing class (imported lazily — repro.core is heavy)."""
        from .. import core
        return getattr(core, self.label)


SOLVERS: dict[str, SolverSpec] = {
    "randqb": SolverSpec(
        name="randqb", label="RandQB_EI",
        aliases=("randqb", "randqb_ei", "qb"),
        description="randomized QB with error indicator (Algorithm 1)"),
    "ubv": SolverSpec(
        name="ubv", label="RandUBV",
        aliases=("ubv", "randubv"),
        supports_checkpoint=False,
        description="block Golub-Kahan bidiagonalization comparator"),
    "lu": SolverSpec(
        name="lu", label="LU_CRTP",
        aliases=("lu", "lu_crtp"),
        description="truncated LU, tournament pivoting (Algorithm 2)"),
    "ilut": SolverSpec(
        name="ilut", label="ILUT_CRTP",
        aliases=("ilut", "ilut_crtp"),
        supports_spmd=False,
        description="thresholded LU_CRTP (Algorithm 3)"),
}

_ALIASES: dict[str, str] = {
    alias: spec.name for spec in SOLVERS.values() for alias in spec.aliases
}


def registered_methods() -> list[str]:
    """Canonical method names in the paper's comparison order."""
    return list(SOLVERS)


def resolve_method(name: str) -> str:
    """Map any accepted alias to its canonical method name.

    Raises :class:`~repro.exceptions.UnknownSolverError` (a ``ValueError``
    subclass) for unknown names.
    """
    canonical = _ALIASES.get(str(name).strip().lower())
    if canonical is None:
        raise UnknownSolverError(
            f"unknown method {name!r} "
            f"(choose {' | '.join(registered_methods())})")
    return canonical


def get_spec(name: str) -> SolverSpec:
    return SOLVERS[resolve_method(name)]


def make_solver(name: str, config: SolverConfig | dict | None = None, *,
                callback=None, checkpoint_path=None, checkpoint_every=1,
                checkpoint_callback=None, recovery=None):
    """Construct a solver instance from the registry.

    Parameters
    ----------
    name:
        Any alias from the ``SOLVERS`` table (case-insensitive).
    config:
        A :class:`SolverConfig` (or its ``to_dict`` form).  ``None`` means
        defaults.
    callback / checkpoint_path / checkpoint_every / checkpoint_callback /
    recovery:
        Runtime hooks forwarded verbatim when the solver supports them;
        they are execution details and deliberately *not* part of the
        config (nor of its cache identity).
    """
    spec = get_spec(name)
    if config is None:
        config = SolverConfig()
    elif isinstance(config, dict):
        config = SolverConfig.from_dict(config)

    cls = spec.cls()
    kwargs = constructor_kwargs(cls, config)
    accepted = set(cls.__dataclass_fields__)
    if callback is not None and "callback" in accepted:
        kwargs["callback"] = callback
    if recovery is not None and "recovery" in accepted:
        kwargs["recovery"] = recovery
    if spec.supports_checkpoint and "checkpoint_path" in accepted and (
            checkpoint_path is not None or checkpoint_callback is not None):
        kwargs.update(checkpoint_path=checkpoint_path,
                      checkpoint_every=checkpoint_every,
                      checkpoint_callback=checkpoint_callback)
    return cls(**kwargs)
