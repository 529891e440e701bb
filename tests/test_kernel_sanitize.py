"""Sanitizer build profiles for the native kernel tier.

Covers the ``$REPRO_KERNEL_SANITIZE`` surface end to end: profile
parsing, flag/cache-key folding, loader environment synthesis, the
tsan/asan load refusals, the typed :class:`KernelBuildError` on an
explicit-native broken build, and — where the toolchain allows — real
instrumented runs: a kernel call through an ASan+UBSan build in a
subprocess, the TSan race driver at 2 threads, and the acceptance check
that an injected out-of-bounds write in a scratch copy of the C sources
is caught by ASan.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.exceptions import KernelBuildError
from repro.kernels import native
from repro.kernels.native import build

REPO = Path(__file__).resolve().parents[1]
HAS_COMPILER = build.find_compiler() is not None
HAS_NATIVE = kernels.native_available()
HAS_ASAN_RT = HAS_COMPILER and build.sanitizer_runtime("asan") is not None
HAS_TSAN_RT = HAS_COMPILER and build.sanitizer_runtime("tsan") is not None

needs_compiler = pytest.mark.skipif(
    not HAS_COMPILER, reason="no C compiler on PATH")
needs_asan = pytest.mark.skipif(
    not HAS_ASAN_RT, reason="no shared ASan runtime in the toolchain")
needs_tsan = pytest.mark.skipif(
    not HAS_TSAN_RT, reason="no shared TSan runtime in the toolchain")


@pytest.fixture(autouse=True)
def tier_state():
    yield
    kernels.reset()


# ---------------------------------------------------------------------------
# profile parsing + flag folding (host-independent)
# ---------------------------------------------------------------------------

def test_sanitize_profiles_parsing():
    assert build.sanitize_profiles("") == ()
    assert build.sanitize_profiles("asan") == ("asan",)
    assert build.sanitize_profiles("ubsan,asan") == ("asan", "ubsan")
    assert build.sanitize_profiles("  ASAN  UBSAN ") == ("asan", "ubsan")
    assert build.sanitize_profiles("tsan") == ("tsan",)


def test_sanitize_profiles_rejects_unknown_and_tsan_combos():
    with pytest.raises(ValueError, match="msan"):
        build.sanitize_profiles("msan")
    with pytest.raises(ValueError, match="tsan"):
        build.sanitize_profiles("tsan,asan")


def test_sanitize_profiles_reads_the_environment(monkeypatch):
    monkeypatch.setenv(build.SANITIZE_ENV, "ubsan")
    assert build.sanitize_profiles() == ("ubsan",)
    monkeypatch.delenv(build.SANITIZE_ENV)
    assert build.sanitize_profiles() == ()


def test_sanitize_cflags_per_profile():
    assert build.sanitize_cflags(()) == ()
    asan = build.sanitize_cflags(("asan",), compiler="/usr/bin/gcc")
    assert "-fsanitize=address" in asan
    assert "-fno-omit-frame-pointer" in asan and "-g" in asan
    assert "-shared-libasan" not in asan  # gcc links the shared rt itself
    clang = build.sanitize_cflags(("asan",), compiler="/usr/bin/clang")
    assert "-shared-libasan" in clang
    ubsan = build.sanitize_cflags(("ubsan",))
    assert "-fsanitize=undefined" in ubsan
    assert "-fno-sanitize-recover=undefined" in ubsan


def test_flag_sets_fold_the_active_profile(monkeypatch):
    monkeypatch.delenv(build.SANITIZE_ENV, raising=False)
    plain = build.flag_sets()
    assert plain == build.FLAG_SETS
    monkeypatch.setenv(build.SANITIZE_ENV, "asan,ubsan")
    instrumented = build.flag_sets()
    assert len(instrumented) == len(plain)
    for fs in instrumented:
        assert "-fsanitize=address" in fs and "-fsanitize=undefined" in fs


def test_sanitizer_flags_change_the_cache_key(monkeypatch):
    """The acceptance pin: an instrumented build can never be served from
    (or poison) the plain build cache."""
    monkeypatch.delenv(build.SANITIZE_ENV, raising=False)
    plain = build.source_hash(cflags=build.flag_sets()[0])
    keys = {plain}
    for profile in ("asan", "ubsan", "asan,ubsan", "tsan"):
        monkeypatch.setenv(build.SANITIZE_ENV, profile)
        keys.add(build.source_hash(cflags=build.flag_sets()[0]))
    assert len(keys) == 5  # every profile landed in its own cache dir


def test_cached_library_paths_move_with_the_profile(monkeypatch, tmp_path):
    monkeypatch.delenv(build.SANITIZE_ENV, raising=False)
    plain = build.cached_library_paths(cache_dir=tmp_path)
    monkeypatch.setenv(build.SANITIZE_ENV, "asan")
    asan = build.cached_library_paths(cache_dir=tmp_path)
    assert set(plain).isdisjoint(asan)


# ---------------------------------------------------------------------------
# loader environment + refusals
# ---------------------------------------------------------------------------

def test_sanitizer_env_shapes():
    assert build.sanitizer_env(()) == {}
    ubsan = build.sanitizer_env(("ubsan",))
    assert ubsan == {"UBSAN_OPTIONS": "print_stacktrace=1"}
    assert build.sanitizer_env(("tsan",)) == {}  # nothing makes tsan safe


@needs_asan
def test_sanitizer_env_preloads_the_asan_runtime():
    env = build.sanitizer_env(("asan",))
    assert "detect_leaks=0" in env["ASAN_OPTIONS"]
    assert "asan" in env["LD_PRELOAD"]
    assert Path(env["LD_PRELOAD"].split(":")[0]).exists()


def test_tsan_load_is_refused():
    msg = native._sanitize_load_error("lib.so", ("tsan",))
    assert msg is not None and "native driver" in msg


def test_asan_load_refused_without_preload(monkeypatch):
    monkeypatch.delenv("LD_PRELOAD", raising=False)
    msg = native._sanitize_load_error("lib.so", ("asan",))
    assert msg is not None and "sanitize-env" in msg
    monkeypatch.setenv("LD_PRELOAD", "/usr/lib/libasan.so.8")
    assert native._sanitize_load_error("lib.so", ("asan",)) is None


# ---------------------------------------------------------------------------
# explicit-native build failures raise (satellite bugfix)
# ---------------------------------------------------------------------------

@needs_compiler
def test_explicit_native_broken_build_raises_kernelbuilderror(
        tmp_path, monkeypatch):
    # the closing ``auto`` check assumes no tier is forced from outside
    monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
    bad = tmp_path / "src"
    bad.mkdir()
    (bad / "broken.c").write_text("this is not C\n")
    monkeypatch.setattr(build, "_SRC_DIR", bad)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
    kernels.reset()
    with pytest.raises(KernelBuildError) as exc_info:
        kernels.resolve_tier("native")
    err = exc_info.value
    assert err.compiler and Path(err.compiler).name
    assert err.stderr  # the compiler's own diagnostics ride along
    # auto must keep degrading silently: same broken sources, no raise
    assert kernels.resolve_tier("auto") == "pure"


@needs_compiler
def test_failed_compile_leaves_no_cache_litter(tmp_path, monkeypatch):
    bad = tmp_path / "src"
    bad.mkdir()
    (bad / "broken.c").write_text("#error no\n")
    monkeypatch.setattr(build, "_SRC_DIR", bad)
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
    kernels.reset()
    assert build.build_library() is None
    assert build.last_failure is not None
    leftovers = list(cache.rglob("*")) if cache.exists() else []
    assert not any(p.is_file() for p in leftovers)


def test_no_compiler_keeps_the_warned_fallback(monkeypatch):
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    monkeypatch.setattr(build, "last_failure", None)
    kernels.reset()
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert kernels.resolve_tier("native") == "pure"


# ---------------------------------------------------------------------------
# instrumented runs
# ---------------------------------------------------------------------------

def _run_py(script: str, env: dict, timeout: int = 240):
    full = dict(os.environ)
    full.update(env)
    full["PYTHONPATH"] = str(REPO / "src") + os.pathsep + full.get(
        "PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=full,
                          timeout=timeout)


_SMOKE = """
    import numpy as np, scipy.sparse as sp
    from repro import kernels
    assert kernels.resolve_tier("native") == "native"
    rng = np.random.default_rng(0)
    A = sp.random(60, 40, density=0.3, random_state=rng, format="csr")
    B = sp.random(40, 50, density=0.3, random_state=rng, format="csr")
    C_pure = kernels.spgemm_csr(A, B, tier="pure")
    C_nat = kernels.spgemm_csr(A, B, tier="native")
    assert np.array_equal(C_pure.indptr, C_nat.indptr)
    assert np.array_equal(C_pure.indices, C_nat.indices)
    assert C_pure.data.tobytes() == C_nat.data.tobytes()
    print("SANITIZED-PARITY-OK")
"""


@needs_asan
def test_asan_ubsan_build_loads_and_matches_pure(tmp_path):
    """End to end through the documented recipe: instrumented build in a
    fresh cache, loader env from sanitizer_env(), bitwise parity held."""
    env = build.sanitizer_env(("asan", "ubsan"))
    assert "LD_PRELOAD" in env
    env[build.SANITIZE_ENV] = "asan,ubsan"
    env["REPRO_KERNEL_CACHE"] = str(tmp_path / "cache")
    proc = _run_py(_SMOKE, env)
    assert proc.returncode == 0, proc.stderr
    assert "SANITIZED-PARITY-OK" in proc.stdout


@needs_asan
def test_injected_oob_write_is_caught_by_asan(tmp_path):
    """Acceptance: an off-by-one loop bound in a scratch copy of
    threshold.c (writes mask[nnz]) must crash with an AddressSanitizer
    report instead of silently corrupting the heap."""
    drift = tmp_path / "src"
    shutil.copytree(build._SRC_DIR, drift)
    c = drift / "threshold.c"
    text = c.read_text()
    assert "i < nnz; i++" in text
    c.write_text(text.replace("i < nnz; i++", "i <= nnz; i++", 1))

    env = build.sanitizer_env(("asan",))
    env[build.SANITIZE_ENV] = "asan"
    env["REPRO_KERNEL_CACHE"] = str(tmp_path / "cache")
    script = f"""
    from pathlib import Path
    from repro.kernels.native import build  # test harness: repoint sources
    build._SRC_DIR = Path({str(drift)!r})
    import numpy as np, scipy.sparse as sp
    from repro import kernels
    rng = np.random.default_rng(0)
    A = sp.random(40, 40, density=0.3, random_state=rng, format="csr")
    kernels.threshold_mask(A, 0.5, tier="native")
    print("SURVIVED")
    """
    proc = _run_py(script, env)
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert "AddressSanitizer" in proc.stderr
    assert "SURVIVED" not in proc.stdout


@needs_tsan
def test_race_driver_is_clean_and_bitwise(tmp_path, monkeypatch):
    """The OpenMP SpGEMM race check: tsan-profile kernel build + the
    instrumented native driver, 2 threads (CI's core budget).  A clean
    exit certifies no data race was flagged *and* the parallel result
    stayed bitwise identical to the serial kernel's."""
    monkeypatch.setenv(build.SANITIZE_ENV, "tsan")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
    lib = build.build_library()
    assert lib is not None, build.last_error
    driver = build.build_race_driver(lib)
    assert driver is not None, build.last_error
    env = dict(os.environ)
    env["TSAN_OPTIONS"] = "halt_on_error=1 exitcode=66"
    proc = subprocess.run([str(driver), "2", "2"], capture_output=True,
                          text=True, env=env, timeout=240)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout
