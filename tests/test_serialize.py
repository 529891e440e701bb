"""Tests for repro.serialize (result and checkpoint persistence)."""

import io
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ilut_crtp, lu_crtp, randqb_ei, randubv
from repro.exceptions import CheckpointError
from repro.serialize import (
    load_checkpoint,
    load_result,
    resolve_checkpoint,
    save_checkpoint,
    save_result,
)


def roundtrip(result, tmp_path):
    path = tmp_path / "res.npz"
    save_result(result, path)
    return load_result(path)


def test_qb_roundtrip(small_sparse, tmp_path):
    res = randqb_ei(small_sparse, k=8, tol=1e-2)
    back = roundtrip(res, tmp_path)
    np.testing.assert_array_equal(back.Q, res.Q)
    np.testing.assert_array_equal(back.B, res.B)
    assert back.rank == res.rank
    assert back.converged == res.converged
    assert back.indicator == res.indicator
    assert back.history.iterations == res.history.iterations
    assert back.error(small_sparse) == pytest.approx(res.error(small_sparse))


def test_ubv_roundtrip(small_sparse, tmp_path):
    res = randubv(small_sparse, k=8, tol=1e-2)
    back = roundtrip(res, tmp_path)
    np.testing.assert_array_equal(back.U, res.U)
    np.testing.assert_array_equal(back.Bmat, res.Bmat)
    np.testing.assert_array_equal(back.V, res.V)


def test_lu_roundtrip(small_sparse, tmp_path):
    res = lu_crtp(small_sparse, k=8, tol=1e-2)
    back = roundtrip(res, tmp_path)
    np.testing.assert_allclose(back.L.toarray(), res.L.toarray())
    np.testing.assert_allclose(back.U.toarray(), res.U.toarray())
    np.testing.assert_array_equal(back.row_perm, res.row_perm)
    np.testing.assert_array_equal(back.col_perm, res.col_perm)
    assert back.error(small_sparse) == pytest.approx(res.error(small_sparse))


def test_ilut_roundtrip_metadata(small_sparse, tmp_path):
    res = ilut_crtp(small_sparse, k=8, tol=1e-2, estimated_iterations=4)
    back = roundtrip(res, tmp_path)
    assert back.threshold == res.threshold
    assert back.dropped_norm == res.dropped_norm
    assert back.control_triggered == res.control_triggered
    drops = [r.dropped_nnz for r in back.history]
    assert drops == [r.dropped_nnz for r in res.history]


def test_history_round_trips(small_sparse, tmp_path):
    res = lu_crtp(small_sparse, k=8, tol=1e-2)
    back = roundtrip(res, tmp_path)
    for a, b in zip(res.history, back.history):
        assert a.indicator == b.indicator
        assert a.schur_shape == b.schur_shape


def test_unknown_type_raises(tmp_path):
    with pytest.raises(TypeError):
        save_result(object(), tmp_path / "x.npz")


def _member_compression(path) -> set:
    with zipfile.ZipFile(path) as zf:
        return {info.compress_type for info in zf.infolist()}


def _assert_lu_equal(back, res):
    for name in ("L", "U"):
        a, b = getattr(back, name).tocsr(), getattr(res, name).tocsr()
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))
    np.testing.assert_array_equal(back.row_perm, res.row_perm)
    np.testing.assert_array_equal(back.col_perm, res.col_perm)


def test_archives_store_members_uncompressed(small_sparse, tmp_path):
    qb = randqb_ei(small_sparse, k=8, tol=1e-2)
    lu = lu_crtp(small_sparse, k=8, tol=1e-2)
    save_result(qb, tmp_path / "qb.npz")
    save_result(lu, tmp_path / "lu.npz")
    save_checkpoint(tmp_path / "ck.npz",
                    {"kind": "demo", "vec": np.arange(6.0), "mat": lu.L})
    for name in ("qb.npz", "lu.npz", "ck.npz"):
        assert _member_compression(tmp_path / name) == {zipfile.ZIP_STORED}


def test_compressed_archives_still_load(small_sparse, tmp_path,
                                       monkeypatch):
    """Archives written with zlib (the layout before members were
    stored) load bit for bit through both readers."""
    lu = lu_crtp(small_sparse, k=8, tol=1e-2)
    qb = randqb_ei(small_sparse, k=8, tol=1e-2)
    state = {"kind": "demo", "step": 4, "vec": np.arange(6.0), "mat": lu.L}
    with monkeypatch.context() as m:
        m.setattr(np, "savez", np.savez_compressed)
        save_result(lu, tmp_path / "lu.npz")
        save_result(qb, tmp_path / "qb.npz")
        save_checkpoint(tmp_path / "ck.npz", state)
    for name in ("lu.npz", "qb.npz", "ck.npz"):
        assert _member_compression(tmp_path / name) == {
            zipfile.ZIP_DEFLATED}
    _assert_lu_equal(load_result(tmp_path / "lu.npz"), lu)
    back = load_result(tmp_path / "qb.npz")
    np.testing.assert_array_equal(back.Q, qb.Q)
    np.testing.assert_array_equal(back.B, qb.B)
    got = load_checkpoint(tmp_path / "ck.npz")
    assert got["step"] == 4
    np.testing.assert_array_equal(got["vec"], state["vec"])
    np.testing.assert_array_equal(got["mat"].toarray(), lu.L.toarray())


def test_load_result_accepts_path_or_binary_file(small_sparse, tmp_path):
    res = lu_crtp(small_sparse, k=8, tol=1e-2)
    path = tmp_path / "res.npz"
    save_result(res, path)
    _assert_lu_equal(load_result(path), res)
    _assert_lu_equal(load_result(str(path)), res)
    with open(path, "rb") as fh:
        _assert_lu_equal(load_result(fh), res)
    _assert_lu_equal(load_result(io.BytesIO(path.read_bytes())), res)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    A = sp.random(8, 5, density=0.4, format="csc", random_state=0)
    B = sp.random(4, 4, density=0.5, format="csr", random_state=1)
    state = {
        "kind": "demo", "iteration": 3, "ratio": 0.5, "flag": True,
        "nothing": None, "rng": {"state": {"pos": 12, "key": [1, 2]}},
        "vec": np.arange(6.0), "mat": A, "rowmat": B,
        "alist": [np.ones(2), np.zeros(3)],
        "slist": [A.tocsc(), B.tocsc()],
        "empty": [],
    }
    path = tmp_path / "ck.npz"
    save_checkpoint(path, state)
    got = load_checkpoint(path)
    assert got["kind"] == "demo"
    assert got["iteration"] == 3
    assert got["ratio"] == 0.5
    assert got["flag"] is True
    assert got["nothing"] is None
    assert got["rng"] == state["rng"]
    np.testing.assert_array_equal(got["vec"], state["vec"])
    assert got["mat"].format == "csc"
    assert got["rowmat"].format == "csr"  # storage format survives
    np.testing.assert_array_equal(got["mat"].toarray(), A.toarray())
    np.testing.assert_array_equal(got["rowmat"].toarray(), B.toarray())
    assert len(got["alist"]) == 2
    np.testing.assert_array_equal(got["alist"][0], np.ones(2))
    np.testing.assert_array_equal(got["slist"][1].toarray(), B.toarray())
    assert got["empty"] == []


def test_checkpoint_overwrite_is_atomic(tmp_path):
    path = tmp_path / "ck.npz"
    save_checkpoint(path, {"kind": "demo", "step": 1})
    save_checkpoint(path, {"kind": "demo", "step": 2})
    assert load_checkpoint(path)["step"] == 2
    assert list(tmp_path.glob("*.tmp*")) == []  # no half-written leftovers


def test_checkpoint_key_and_value_validation(tmp_path):
    with pytest.raises(CheckpointError, match="__"):
        save_checkpoint(tmp_path / "x.npz", {"bad__key": 1})
    with pytest.raises(CheckpointError, match="serializable"):
        save_checkpoint(tmp_path / "x.npz", {"obj": object()})


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "does-not-exist.npz")


def test_resolve_checkpoint_dict_passthrough(tmp_path):
    st = {"kind": "demo"}
    assert resolve_checkpoint(st) is st
    save_checkpoint(tmp_path / "ck.npz", st)
    assert resolve_checkpoint(tmp_path / "ck.npz")["kind"] == "demo"
    with pytest.raises(CheckpointError):
        resolve_checkpoint(None)
