"""SPMD003 — determinism / bitwise-parity discipline.

The solver paths are pinned by a *bitwise* parity contract
(``tests/test_opt_parity.py``, ``tests/test_kernel_tiers.py``): identical
pivots, factors and indicator trajectories between the solver and its
plain-scipy spelling, between the pure and native kernel tiers, and
between the thread and process SPMD backends.  Any nondeterminism source
inside those hot paths silently voids the contract — across ranks it
additionally desynchronizes SPMD lockstep (e.g. a data-dependent branch
on a wall clock).

Flagged inside solver hot paths (``repro/core/*``,
``repro/parallel/spmd.py``, ``repro/parallel/kernels.py``, and any SPMD
kernel function elsewhere):

- calendar-clock reads (``time.time`` / ``datetime.now``) — use the
  modeled clocks and :mod:`repro.perf` scoped timers instead
  (``time.perf_counter`` for elapsed-time *reporting* is fine);
- the legacy global numpy RNG (``np.random.rand`` & co.) and *unseeded*
  ``np.random.default_rng()`` / stdlib ``random`` — draw from a seeded
  generator on rank 0 and broadcast;
- entropy sources (``os.urandom``, ``secrets``, ``uuid.uuid4``);
- iteration over unordered sets and ``dict.popitem()`` — order is not
  part of the language contract and varies with hash seeding history.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from collections.abc import Iterable, Iterator

from .astutil import call_name, comm_param, functions
from .findings import Finding
from .framework import LintRule, register
from .rules_collectives import walk_scope

#: Modules whose *entire* contents count as solver hot path.
HOT_PATH_PARTS = (
    ("repro", "core"),
)
HOT_PATH_FILES = frozenset({
    ("repro", "parallel", "spmd.py"),
    ("repro", "parallel", "kernels.py"),
})

#: Calendar-clock reads.  ``time.perf_counter`` / ``time.monotonic`` are
#: deliberately *not* listed: measuring elapsed time for reporting is fine
#: (the parity contract pins factors, not timing fields); the hazard is a
#: clock value feeding data or control flow, and calendar clocks are the
#: ones reached for in that pattern.
WALL_CLOCK = frozenset({"time", "time_ns"})
LEGACY_NP_RANDOM = frozenset({
    "seed", "rand", "randn", "random", "randint", "random_sample",
    "choice", "shuffle", "permutation", "standard_normal", "uniform",
    "normal", "get_state", "set_state",
})
STDLIB_RANDOM = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "seed",
})


def is_hot_path_module(path: str) -> bool:
    parts = PurePath(path).parts
    for tail in HOT_PATH_FILES:
        if parts[-len(tail):] == tail:
            return True
    for tail in HOT_PATH_PARTS:
        n = len(tail)
        for i in range(len(parts) - n):
            if parts[i:i + n] == tail:
                return True
    return False


def _attr_chain(expr: ast.expr) -> list[str]:
    """``np.random.rand`` -> ``["np", "random", "rand"]`` (best effort)."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
    return parts[::-1]


def _nondeterminism(node: ast.AST) -> str | None:
    """Reason string when ``node`` is a nondeterminism source."""
    if isinstance(node, ast.Call):
        chain = _attr_chain(node.func)
        name = call_name(node)
        if len(chain) == 2 and chain[0] == "time" and chain[1] in WALL_CLOCK:
            return (f"wall-clock read 'time.{chain[1]}()' in a solver hot "
                    f"path breaks bitwise parity; use modeled clocks or "
                    f"repro.perf timers")
        if chain[-1:] == ["now"] or chain[-1:] == ["utcnow"]:
            if "datetime" in chain or "date" in chain:
                return ("wall-clock read 'datetime.now()' in a solver hot "
                        "path breaks bitwise parity")
        if (len(chain) >= 3 and chain[-3] in ("np", "numpy")
                and chain[-2] == "random" and chain[-1] in LEGACY_NP_RANDOM):
            return (f"legacy global numpy RNG 'np.random.{chain[-1]}()' is "
                    f"process-global state; draw from a seeded "
                    f"Generator and broadcast")
        if name == "default_rng" and not node.args and not node.keywords:
            return ("unseeded np.random.default_rng() draws from OS "
                    "entropy; pass an explicit seed")
        if (len(chain) == 2 and chain[0] == "random"
                and chain[1] in STDLIB_RANDOM):
            return (f"stdlib 'random.{chain[1]}()' uses unseeded global "
                    f"state; use a seeded numpy Generator")
        if chain[-2:] == ["os", "urandom"] or chain[:1] == ["secrets"]:
            return "entropy source in a solver hot path is nondeterministic"
        if chain[-2:] == ["uuid", "uuid4"]:
            return "uuid4() in a solver hot path is nondeterministic"
        if name == "popitem":
            return ("dict.popitem() order depends on insertion history; "
                    "pop an explicit key instead")
    return None


def _set_iteration(it: ast.expr) -> bool:
    if isinstance(it, (ast.Set, ast.SetComp)):
        return True
    if isinstance(it, ast.Call) and call_name(it) in ("set", "frozenset"):
        return True
    return False


def _iter_targets(tree: ast.Module, path: str
                  ) -> Iterator[tuple[ast.AST, str]]:
    """(scope-root, symbol) pairs this rule applies to in ``tree``."""
    if is_hot_path_module(path):
        for func in functions(tree):
            yield func, func.name
    else:
        for func in functions(tree):
            if comm_param(func) is not None:
                yield func, func.name


@register
class DeterminismRule(LintRule):
    code = "SPMD003"
    name = "determinism"
    rationale = (
        "Solver hot paths are pinned by a bitwise parity contract "
        "(tests/test_opt_parity.py) and by cross-backend SPMD parity; "
        "wall clocks, unseeded RNGs and unordered iteration silently "
        "void both.")

    def check(self, tree: ast.Module, path: str,
              source: str) -> Iterable[Finding]:
        for scope, symbol in _iter_targets(tree, path):
            for node in walk_scope(scope):
                reason = _nondeterminism(node)
                if reason is not None:
                    yield self.finding(node, reason, path=path,
                                       symbol=symbol)
                if isinstance(node, ast.For) and _set_iteration(node.iter):
                    yield self.finding(
                        node, "iteration over an unordered set; sort it "
                        "first (set order varies across processes)",
                        path=path, symbol=symbol)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    for gen in node.generators:
                        if _set_iteration(gen.iter):
                            yield self.finding(
                                node, "comprehension over an unordered "
                                "set; sort it first", path=path,
                                symbol=symbol)
