"""Tests for the :mod:`repro.lint` static-analysis pass.

The fixture files in ``tests/lint_fixtures/`` tag every expected
violation with ``# expect: CODE`` on the offending line; the tests
compare that tag set against the findings *exactly* (same codes, same
lines, nothing extra), so both false negatives and false positives fail.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.findings import Finding
from repro.lint.framework import (
    all_rules,
    lint_paths,
    lint_source,
    suppressed_lines,
)

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO = Path(__file__).resolve().parents[1]
_EXPECT_RE = re.compile(r"#\s*expect:\s*((?:SPMD|KERN)\d{3})")

FIXTURE_FILES = (
    "spmd001_collectives.py",
    "spmd002_sharedviews.py",
    "spmd003_determinism.py",
    "spmd004_kerneltier.py",
    # KERN fixtures are directories: a bindings module plus the sibling
    # src/kernels.h the ABI rules resolve by convention
    "kern_ok/bindings.py",
    "kern_arity/bindings.py",
    "kern_types/bindings.py",
    "kern_width/bindings.py",
)


def expected_findings(path: Path) -> set[tuple[int, str]]:
    out = set()
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(line)
        if m:
            out.add((i, m.group(1)))
    return out


# ---------------------------------------------------------------------------
# fixtures: exact codes and lines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,code", [
    ("spmd001_collectives.py", "SPMD001"),
    ("spmd002_sharedviews.py", "SPMD002"),
    ("spmd003_determinism.py", "SPMD003"),
    ("spmd004_kerneltier.py", "SPMD004"),
    ("kern_arity/bindings.py", "KERN001"),
    ("kern_types/bindings.py", "KERN002"),
    ("kern_width/bindings.py", "KERN003"),
])
def test_fixture_exact_findings_with_select(name, code):
    path = FIXTURES / name
    expected = expected_findings(path)
    assert expected, f"fixture {name} has no # expect tags"
    findings = lint_paths([path], select=[code])
    assert {(f.line, f.code) for f in findings} == expected


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_fixture_exact_findings_all_rules(name):
    # running *every* rule over a fixture must add nothing beyond the tags
    path = FIXTURES / name
    findings = lint_paths([path])
    assert {(f.line, f.code) for f in findings} == expected_findings(path)


def test_kerneltier_registry_package_is_exempt():
    src = "from repro.kernels import native\nfrom .native import build\n"
    inside = lint_source(src, path="src/repro/kernels/tiers.py",
                         select=["SPMD004"])
    assert inside == []
    outside = lint_source(src, path="src/repro/core/lu_crtp.py",
                          select=["SPMD004"])
    assert {f.line for f in outside} == {1}  # relative .native needs kernels


def test_spmd004_flags_core_conversions():
    src = ("def f(A):\n"
           "    B = A.tocsc()\n"
           "    C = A.tocsr()  # repro: noqa[SPMD004]\n"
           "    return B, C\n")
    core = lint_source(src, path="src/repro/core/apply.py",
                       select=["SPMD004"])
    assert {(f.line, f.symbol) for f in core} == {(2, "tocsc")}
    assert "ensure_csc" in core[0].message
    # conversions outside repro/core/ are not the rule's business
    outside = lint_source(src, path="src/repro/sparse/utils.py",
                          select=["SPMD004"])
    assert outside == []


def test_fixture_findings_carry_symbol_and_message():
    path = FIXTURES / "spmd001_collectives.py"
    findings = lint_paths([path], select=["SPMD001"])
    by_symbol = {f.symbol for f in findings}
    assert "branch_collective" in by_symbol
    assert "early_return_skips_collective" in by_symbol
    early = [f for f in findings
             if f.symbol == "early_return_skips_collective"]
    assert "early return" in early[0].message
    assert "bcast" in early[0].message


# ---------------------------------------------------------------------------
# KERN ABI-contract rules
# ---------------------------------------------------------------------------

def test_kern_clean_fixture_has_no_findings():
    assert lint_paths([FIXTURES / "kern_ok" / "bindings.py"]) == []


def test_kern_rules_ignore_modules_without_abi_table():
    # a module with no _ABI never triggers the family — even with no
    # header anywhere near it
    assert lint_source("x = 1\n", path="src/repro/core/apply.py",
                       select=["KERN001", "KERN002", "KERN003"]) == []


def test_kern_findings_name_the_exact_mismatch():
    arity = lint_paths([FIXTURES / "kern_arity" / "bindings.py"],
                       select=["KERN001"])
    msgs = {f.symbol: f.message for f in arity}
    assert "4 parameter(s), _ABI declares 3" in msgs["rk_fix_axpy"]
    assert "absent from the _ABI table" in msgs["rk_fix_orphan"]
    assert "no RK_EXPORT prototype" in msgs["rk_fix_ghost"]

    width = lint_paths([FIXTURES / "kern_width" / "bindings.py"],
                       select=["KERN003"])
    gather = [f for f in width if f.symbol == "rk_fix_gather_i32"]
    assert "int64_t (64-bit)" in gather[0].message
    assert "i32* (32-bit)" in gather[0].message


def test_kern_missing_header_is_kern001(tmp_path):
    mod = tmp_path / "bindings.py"
    mod.write_text('_ABI = {"rk_x": ("i64", ("i64",))}\n')
    findings = lint_paths([mod])
    assert [f.code for f in findings] == ["KERN001"]
    assert "src/kernels.h" in findings[0].message


def test_kern_address_token_pairs_with_a_void_pointer(tmp_path):
    # a foreign function's address travels as `void *` / "void*"
    # (c_void_p); a typed pointer on either side is a type mismatch
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "kernels.h").write_text(
        "#include <stdint.h>\n"
        "#define RK_EXPORT\n"
        "RK_EXPORT int64_t rk_x(void *fn, int64_t n, double *v);\n")
    mod = tmp_path / "bindings.py"
    mod.write_text('_ABI = {"rk_x": ("i64", ("void*", "i64", "f64*"))}\n')
    assert lint_paths([mod]) == []
    mod.write_text('_ABI = {"rk_x": ("i64", ("f64*", "i64", "f64*"))}\n')
    assert [f.code for f in lint_paths([mod])] == ["KERN002"]
    mod.write_text('_ABI = {"rk_x": ("i64", ("void*", "i64", "void*"))}\n')
    assert [f.code for f in lint_paths([mod])] == ["KERN002"]


def test_kern_noqa_suppresses_on_the_entry_line(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "kernels.h").write_text(
        "#include <stdint.h>\n"
        "#define RK_EXPORT\n"
        "RK_EXPORT void rk_x(int64_t n, double *v);\n")
    mod = tmp_path / "bindings.py"
    mod.write_text(
        '_ABI = {\n'
        '    "rk_x": ("i64", ("i64", "f64*")),  # repro: noqa[KERN002]\n'
        '}\n')
    assert lint_paths([mod]) == []
    # the suppression is per-code: the same drift under KERN001-only
    # suppression still fires
    mod.write_text(
        '_ABI = {\n'
        '    "rk_x": ("i64", ("i64", "f64*")),  # repro: noqa[KERN001]\n'
        '}\n')
    assert [f.code for f in lint_paths([mod])] == ["KERN002"]


# ---------------------------------------------------------------------------
# suppression
# ---------------------------------------------------------------------------

_DIVERGENT = (
    "def f(comm, A):\n"
    "    if comm.rank == 0:\n"
    "        comm.bcast(A, root=0){noqa}\n"
    "    return A\n"
)


def test_noqa_named_code_suppresses():
    src = _DIVERGENT.format(noqa="  # repro: noqa[SPMD001]")
    assert lint_source(src) == []


def test_noqa_wrong_code_does_not_suppress():
    src = _DIVERGENT.format(noqa="  # repro: noqa[SPMD002]")
    assert [f.code for f in lint_source(src)] == ["SPMD001"]


def test_bare_noqa_suppresses_every_code():
    src = _DIVERGENT.format(noqa="  # repro: noqa")
    assert lint_source(src) == []


def test_plain_flake8_noqa_does_not_suppress():
    # the marker is deliberately namespaced; a bare flake8-style noqa
    # must not swallow SPMD findings
    src = _DIVERGENT.format(noqa="  # noqa")
    assert [f.code for f in lint_source(src)] == ["SPMD001"]


def test_suppressed_lines_parsing():
    src = ("x = 1  # repro: noqa\n"
           "y = 2  # repro: noqa[SPMD001, SPMD003]\n"
           "z = 3\n")
    lines = suppressed_lines(src)
    assert lines[1] is None
    assert lines[2] == frozenset({"SPMD001", "SPMD003"})
    assert 3 not in lines


# ---------------------------------------------------------------------------
# framework
# ---------------------------------------------------------------------------

def test_registry_has_the_seven_rules():
    rules = all_rules()
    assert list(rules) == ["KERN001", "KERN002", "KERN003",
                           "SPMD001", "SPMD002", "SPMD003", "SPMD004"]
    for code, rule in rules.items():
        assert rule.code == code
        assert rule.name
        assert rule.rationale


def test_unknown_select_raises():
    with pytest.raises(ValueError, match="SPMD999"):
        lint_source("x = 1\n", select=["SPMD999"])


def test_syntax_error_becomes_spmd000():
    findings = lint_source("def f(:\n", path="broken.py")
    assert len(findings) == 1
    assert findings[0].code == "SPMD000"
    assert findings[0].path == "broken.py"


def test_findings_sorted_and_rendered():
    f1 = Finding(path="a.py", line=2, col=1, code="SPMD001", message="m1")
    f2 = Finding(path="a.py", line=1, col=1, code="SPMD002", message="m2",
                 symbol="g")
    assert sorted([f1, f2]) == [f2, f1]
    assert f2.render() == "a.py:1:1: SPMD002 m2 [g]"
    assert f1.to_dict()["code"] == "SPMD001"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run_cli(*args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd, capture_output=True, text=True, env=env, timeout=300)


def test_cli_src_tree_is_clean():
    proc = _run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_json_output_and_exit_code():
    proc = _run_cli("--format", "json",
                    str(FIXTURES / "spmd001_collectives.py"))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["count"] == len(report["findings"]) > 0
    first = report["findings"][0]
    assert set(first) == {"path", "line", "col", "code", "message", "symbol"}
    assert first["code"].startswith("SPMD")


def test_cli_select_restricts_rules():
    proc = _run_cli("--select", "SPMD003",
                    str(FIXTURES / "spmd001_collectives.py"))
    assert proc.returncode == 0  # no SPMD003 findings in that fixture


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for code in ("SPMD001", "SPMD002", "SPMD003", "SPMD004",
                 "KERN001", "KERN002", "KERN003"):
        assert code in proc.stdout


def test_cli_json_output_for_kern_findings():
    proc = _run_cli("--format", "json", "--select", "KERN002",
                    str(FIXTURES / "kern_types" / "bindings.py"))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["count"] == len(report["findings"]) == 3
    assert {f["code"] for f in report["findings"]} == {"KERN002"}
    assert any("restype mismatch" in f["message"]
               for f in report["findings"])


def test_cli_unknown_rule_is_usage_error():
    proc = _run_cli("--select", "NOPE001", "src")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr
