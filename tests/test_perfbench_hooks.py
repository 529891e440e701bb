"""The traced benchmark's wrappers must find every name they wrap.

``perfbench/spans.py`` wraps library functions by module and attribute
name (``repro.pivoting.tournament.select_columns``,
``repro.pivoting.select.qrcp``, the ``repro.kernels`` dispatch names,
...).  A rename in the library would otherwise surface only when a
``--trace 1`` benchmark run fails; here it fails the test suite.  The
test only reads the benchmark's module: it installs the wrappers in this
process, checks them, and takes them out again.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_every_wrapped_name_resolves_and_is_restored():
    spans = _load_spans()
    rec = spans.Recorder()
    try:
        rec.install()
        patches = list(rec._patches)
        assert len(patches) == len(spans.KERNELS) + len(spans.TARGETS)
        for owner, attr, original in patches:
            assert callable(original), (owner, attr)
            assert _current(owner, attr).__wrapped__ is original, \
                (owner, attr)
    finally:
        rec.uninstall()
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, (owner, attr)
    assert not rec._patches

    kernels = importlib.import_module("repro.kernels")
    wrapped = {(owner, attr) for owner, attr, _ in patches}
    assert {(kernels, name) for name in spans.KERNELS} <= wrapped
    for module, path, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert (owner, attr) in wrapped, (module, path)
