"""Tests for the unified solver API: registry, SolverConfig, result schema."""

import json

import numpy as np
import pytest

from repro.api import (
    SOLVERS,
    SolverConfig,
    constructor_kwargs,
    get_spec,
    make_solver,
    registered_methods,
    resolve_method,
)
from repro.core import ILUT_CRTP, LU_CRTP, RandQB_EI, RandUBV
from repro.exceptions import UnknownSolverError
from repro.results import (
    RESULT_SCHEMA,
    LowRankApproximation,
    LUApproximation,
    QBApproximation,
)


@pytest.fixture
def A():
    from repro.matrices.generators import random_graded
    return random_graded(100, 100, nnz_per_row=6, decay_rate=7.0, seed=3)


# -- registry ---------------------------------------------------------------

def test_registered_methods_paper_order():
    assert registered_methods() == ["randqb", "ubv", "lu", "ilut"]


@pytest.mark.parametrize("alias,canonical", [
    ("randqb", "randqb"), ("randqb_ei", "randqb"), ("qb", "randqb"),
    ("QB", "randqb"), ("ubv", "ubv"), ("randubv", "ubv"),
    ("lu", "lu"), ("LU_CRTP", "lu"), ("ilut", "ilut"),
    ("ilut_crtp", "ilut"),
])
def test_alias_resolution(alias, canonical):
    assert resolve_method(alias) == canonical


def test_unknown_method_raises_value_error():
    with pytest.raises(UnknownSolverError):
        resolve_method("bogus")
    assert issubclass(UnknownSolverError, ValueError)


@pytest.mark.parametrize("name,cls", [
    ("randqb", RandQB_EI), ("ubv", RandUBV), ("lu", LU_CRTP),
    ("ilut", ILUT_CRTP),
])
def test_make_solver_all_methods(name, cls):
    solver = make_solver(name, SolverConfig(k=8, tol=1e-1))
    assert isinstance(solver, cls)
    assert solver.k == 8 and solver.tol == 1e-1


def test_make_solver_dropped_fields_per_method():
    cfg = SolverConfig(k=8, tol=1e-1, power=2, seed=7,
                       estimated_iterations=5)
    qb = make_solver("randqb", cfg)
    assert qb.power == 2 and qb.seed == 7
    lu = make_solver("lu", cfg)
    assert not hasattr(lu, "power")  # dropped silently
    il = make_solver("ilut", cfg)
    assert il.estimated_iterations == 5


def test_make_solver_extras_passthrough_and_validation():
    lu = make_solver("lu", SolverConfig(extras={"l_formula": "auto"}))
    assert lu.l_formula == "auto"
    with pytest.raises(ValueError, match="no option"):
        make_solver("ubv", SolverConfig(extras={"l_formula": "auto"}))


def test_make_solver_runtime_hooks_not_in_config():
    def hook(state):
        pass
    solver = make_solver("lu", SolverConfig(k=8), checkpoint_callback=hook)
    assert solver.checkpoint_callback is hook
    # ubv has no checkpoint support: the hook is dropped, not an error
    ubv = make_solver("ubv", SolverConfig(k=8), checkpoint_callback=hook)
    assert not hasattr(ubv, "checkpoint_callback")


def test_spec_metadata():
    assert get_spec("qb").label == "RandQB_EI"
    assert not get_spec("ubv").supports_checkpoint
    assert not get_spec("ilut").supports_spmd
    assert set(SOLVERS) == {"randqb", "ubv", "lu", "ilut"}


# -- SolverConfig -----------------------------------------------------------

def test_config_roundtrip():
    cfg = SolverConfig(k=8, tol=1e-3, power=2, seed=5,
                       estimated_iterations="auto",
                       checkpointing=True, max_rank=64,
                       extras={"mu": 1e-4})
    d = cfg.to_dict()
    assert d["extras"] == {"mu": 1e-4}
    assert SolverConfig.from_dict(d) == cfg
    assert SolverConfig.from_dict(json.loads(json.dumps(d))) == cfg


def test_config_frozen_and_hashable():
    cfg = SolverConfig()
    with pytest.raises(Exception):
        cfg.k = 5
    assert isinstance(hash(cfg), int)


@pytest.mark.parametrize("bad", [
    dict(k=0), dict(tol=0.0), dict(tol=-1.0), dict(power=4),
    dict(estimated_iterations=0), dict(estimated_iterations="soon"),
    dict(max_rank=0),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_config_from_dict_rejects_unknown():
    # a retired field ("optimized") is refused, not silently ignored
    for unknown in ({"block_size": 8}, {"optimized": True}):
        with pytest.raises(ValueError, match="unknown SolverConfig"):
            SolverConfig.from_dict(unknown)


def test_default_cache_key_pinned():
    """Cache entries written by earlier versions stay addressable: the
    default key's exact text and the disk-tier schema tag are part of the
    durable cache contract."""
    from repro.service.cache import DISK_CACHE_SCHEMA
    assert SolverConfig().cache_key() == (
        '{"estimated_iterations":10,"extras":{},"k":32,"kernel_tier":"auto",'
        '"max_rank":null,"power":1,"seed":0}')
    assert DISK_CACHE_SCHEMA == "repro.cache/v1"


def test_cache_key_excludes_non_identity_fields():
    base = SolverConfig(k=8, tol=1e-2)
    assert base.cache_key() == base.replace(tol=1e-5).cache_key()
    assert base.cache_key() == base.replace(checkpointing=True).cache_key()
    assert base.cache_key() != base.replace(k=16).cache_key()
    assert base.cache_key() != base.replace(seed=1).cache_key()
    assert base.cache_key() != base.replace(
        extras={"l_formula": "auto"}).cache_key()


def test_constructor_kwargs_filters_by_dataclass_fields():
    cfg = SolverConfig(k=8, power=3, seed=11)
    kw = constructor_kwargs(LU_CRTP, cfg)
    assert "power" not in kw and "seed" not in kw and kw["k"] == 8
    kw = constructor_kwargs(RandQB_EI, cfg)
    assert kw["power"] == 3 and kw["seed"] == 11


# -- result JSON schema -----------------------------------------------------

def _roundtrip(res):
    payload = json.loads(json.dumps(res.to_json()))
    back = LowRankApproximation.from_json(payload)
    assert type(back) is type(res)
    assert back.rank == res.rank
    assert back.iterations == res.iterations
    assert back.converged == res.converged
    assert back.factor_nnz() == res.factor_nnz()
    assert back.elapsed == pytest.approx(res.elapsed)
    assert back.history.indicators == pytest.approx(res.history.indicators)
    return payload, back


def test_qb_result_json_roundtrip(A):
    res = make_solver("randqb", SolverConfig(k=8, tol=1e-1)).solve(A)
    payload, back = _roundtrip(res)
    assert payload["schema"] == RESULT_SCHEMA
    assert payload["kind"] == "qb"
    assert isinstance(back, QBApproximation)
    assert back.is_summary_only() and back.Q is None


def test_ubv_result_json_roundtrip(A):
    res = make_solver("ubv", SolverConfig(k=8, tol=1e-1)).solve(A)
    payload, _ = _roundtrip(res)
    assert payload["kind"] == "ubv"


def test_lu_result_json_roundtrip(A):
    res = make_solver("ilut", SolverConfig(
        k=8, tol=1e-1, estimated_iterations=4)).solve(A)
    payload, back = _roundtrip(res)
    assert payload["kind"] == "lu"
    assert isinstance(back, LUApproximation)
    assert back.threshold == pytest.approx(res.threshold)
    assert back.dropped_norm == pytest.approx(res.dropped_norm)


def test_result_json_indicator_trajectory(A):
    res = make_solver("randqb", SolverConfig(k=8, tol=1e-1)).solve(A)
    hist = res.to_json()["history"]
    assert len(hist) == res.iterations
    assert [h["indicator"] for h in hist] == res.history.indicators
    assert res.to_json(include_history=False).get("history") is None


def test_result_json_unknown_schema_rejected():
    with pytest.raises(ValueError, match="unsupported result schema"):
        LowRankApproximation.from_json({"schema": "repro.result/v99"})


def test_saved_npz_meta_is_schema(tmp_path, A):
    """save_result archives carry the versioned schema as metadata."""
    from repro.serialize import load_result, save_result
    res = make_solver("lu", SolverConfig(k=8, tol=1e-1)).solve(A)
    path = tmp_path / "r.npz"
    save_result(res, path)
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(bytes(z["_meta"]).decode())
    assert meta["schema"] == RESULT_SCHEMA
    assert meta["factor_nnz"] == res.factor_nnz()
    loaded = load_result(path)
    assert loaded.rank == res.rank
    assert loaded.factor_nnz() == res.factor_nnz()


def test_cli_table_uses_schema(A, capsys):
    """compare's table values come from the same to_json consumers use."""
    from repro.cli import _summary_row
    res = make_solver("randqb", SolverConfig(k=8, tol=1e-1)).solve(A)
    row = _summary_row("x", res)
    d = res.to_json()
    assert row[1] == d["rank"] and row[2] == d["iterations"]
    assert row[4] == d["factor_nnz"]
