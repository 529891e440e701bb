"""Static ABI-contract analysis between C kernel prototypes and ctypes.

The native kernel tier has two declarations of every exported function:
the C prototype in ``kernels/native/src/kernels.h`` (checked against the
definitions by the C compiler) and the ``_ABI`` table in
``kernels/native/__init__.py`` (materialized into ctypes bindings at
load time).  Nothing in the toolchain cross-checks the *pair* — an
argument added on the C side but not the Python side silently reads
garbage through ctypes.  This module closes that gap: a small parser
for the header's ``RK_EXPORT`` prototype block, a static (``ast``)
extractor for the ``_ABI`` table, and a comparator that yields typed
mismatch records for the KERN lint rules
(:mod:`repro.lint.rules_kernelabi`).

The comparison is deliberately conservative: C types outside the
fixed-width vocabulary (``int``, ``long``, ``size_t``...) are reported
as a portability problem rather than guessed at, and any construct the
parser does not recognize becomes a *parse* diagnostic instead of a
silent pass.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

#: Categories a :class:`AbiIssue` can carry, keyed to the rule that
#: reports it: ``coverage`` -> KERN001, ``types`` -> KERN002,
#: ``width`` -> KERN003.
CATEGORIES = ("coverage", "types", "width")

#: Fixed-width C types the ABI vocabulary allows, canonicalized to
#: ``(kind, bits, signed)``.
_C_CANON: dict[str, tuple[str, int, bool]] = {
    "void": ("void", 0, True),
    "int8_t": ("int", 8, True),
    "uint8_t": ("int", 8, False),
    "int16_t": ("int", 16, True),
    "uint16_t": ("int", 16, False),
    "int32_t": ("int", 32, True),
    "uint32_t": ("int", 32, False),
    "int64_t": ("int", 64, True),
    "uint64_t": ("int", 64, False),
    "signed char": ("int", 8, True),
    "unsigned char": ("int", 8, False),
    "float": ("float", 32, True),
    "double": ("float", 64, True),
}

#: ``_ABI`` token vocabulary, canonicalized the same way (pointer-ness
#: is carried separately).  ``void*`` is an address (``c_void_p``).
_PY_CANON: dict[str, tuple[str, int, bool]] = {
    "i32": ("int", 32, True),
    "i64": ("int", 64, True),
    "f64": ("float", 64, True),
    "u8": ("int", 8, False),
    "void": ("void", 0, True),
}

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_PROTO_RE = re.compile(
    r"RK_EXPORT\s+(?P<decl>[^;{}]+?);", re.DOTALL)
_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)


@dataclass(frozen=True)
class CParam:
    """One parsed C parameter: base type text, pointer-ness, name."""

    ctype: str
    pointer: bool
    name: str


@dataclass(frozen=True)
class CPrototype:
    """One parsed ``RK_EXPORT`` prototype."""

    name: str
    restype: str
    params: tuple[CParam, ...]


@dataclass(frozen=True)
class AbiIssue:
    """One cross-check diagnostic.

    ``category`` routes it to a KERN rule; ``symbol`` is the exported C
    symbol (or ``_ABI`` key) involved; ``line`` is the 1-based line of
    the relevant ``_ABI`` entry in the *Python* module when known (0
    anchors the finding at the top of the file — e.g. a symbol missing
    from the table entirely).
    """

    category: str
    symbol: str
    message: str
    line: int = 0


def _strip_comments(text: str) -> str:
    """Drop comments and preprocessor lines.

    Directive stripping keeps ``#define RK_EXPORT ...`` (and the guarded
    ``__tsan_*`` declarations, which carry no ``RK_EXPORT``) from being
    misread as prototypes; multi-line directives use ``\\``
    continuations, which the grammar does not allow in prototypes.
    """
    text = _COMMENT_RE.sub(" ", text)
    lines: list[str] = []
    continuation = False
    for line in text.splitlines():
        directive = continuation or line.lstrip().startswith("#")
        continuation = directive and line.rstrip().endswith("\\")
        if not directive:
            lines.append(line)
    return "\n".join(lines)


def _parse_param(raw: str, proto: str) -> CParam | None:
    """One parameter declaration -> :class:`CParam`; ``None`` when the
    text is outside the parser's (deliberately small) grammar."""
    toks = raw.replace("*", " * ").split()
    toks = [t for t in toks if t not in ("const", "restrict", "volatile")]
    if not toks:
        return None
    pointer = "*" in toks
    if toks.count("*") > 1:
        return None  # pointer-to-pointer: outside the ABI vocabulary
    toks = [t for t in toks if t != "*"]
    if not toks:
        return None
    # `void` / unnamed parameters carry no identifier; otherwise the
    # final token is the parameter name iff more than one token remains
    if len(toks) == 1:
        return CParam(ctype=toks[0], pointer=pointer, name="")
    *type_toks, name = toks
    if not re.fullmatch(_IDENT, name):
        return None
    return CParam(ctype=" ".join(type_toks), pointer=pointer, name=name)


def parse_header(text: str) -> tuple[dict[str, CPrototype], list[str]]:
    """Parse every ``RK_EXPORT`` prototype out of a header.

    Returns ``(prototypes_by_name, parse_errors)``.  Only prototypes
    (declarations ending in ``;``) are matched — definitions carrying a
    body never appear in the header by convention.
    """
    protos: dict[str, CPrototype] = {}
    errors: list[str] = []
    for m in _PROTO_RE.finditer(_strip_comments(text)):
        decl = " ".join(m.group("decl").split())
        head = re.match(
            rf"(?P<ret>{_IDENT}(?:\s+{_IDENT})*?)\s*"
            rf"(?P<ptr>\*?)\s*(?P<name>{_IDENT})\s*\((?P<params>.*)\)$",
            decl, re.DOTALL)
        if head is None:
            errors.append(f"unparseable RK_EXPORT declaration: {decl[:80]!r}")
            continue
        if head.group("ptr"):
            errors.append(f"{head.group('name')}: pointer return types are "
                          "outside the ABI vocabulary")
            continue
        name = head.group("name")
        params_raw = head.group("params").strip()
        params: list[CParam] = []
        bad = False
        if params_raw and params_raw != "void":
            for piece in params_raw.split(","):
                param = _parse_param(piece, decl)
                if param is None:
                    errors.append(
                        f"{name}: unparseable parameter {piece.strip()!r}")
                    bad = True
                    break
                params.append(param)
        if bad:
            continue
        if name in protos:
            errors.append(f"duplicate prototype for {name}")
            continue
        protos[name] = CPrototype(name=name, restype=head.group("ret"),
                                  params=tuple(params))
    return protos, errors


# ---------------------------------------------------------------------------
# Python-side extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbiEntry:
    """One ``_ABI`` table entry as written in the bindings module."""

    name: str
    restype: str | None
    argtypes: tuple[str, ...]
    line: int


def extract_abi(tree: ast.Module) -> tuple[dict[str, AbiEntry] | None,
                                           list[str]]:
    """Statically read the module-level ``_ABI`` dict.

    Returns ``(entries_by_name, errors)``; ``entries`` is ``None`` when
    the module defines no ``_ABI`` at all (the KERN rules then stay
    silent for that file).  Every value must be a literal — the table
    is a declarative contract, not computed configuration.
    """
    node = None
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        if any(isinstance(t, ast.Name) and t.id == "_ABI" for t in targets):
            node = stmt
            break
    if node is None:
        return None, []
    value = node.value
    if not isinstance(value, ast.Dict):
        return {}, ["_ABI must be a literal dict of "
                    "name -> (restype, argtypes)"]
    entries: dict[str, AbiEntry] = {}
    errors: list[str] = []
    for key, val in zip(value.keys, value.values):
        try:
            name = ast.literal_eval(key) if key is not None else None
            spec = ast.literal_eval(val)
        except (ValueError, TypeError, SyntaxError):
            errors.append(f"_ABI entry at line "
                          f"{getattr(val, 'lineno', '?')} is not a literal")
            continue
        line = getattr(key, "lineno", getattr(val, "lineno", 0)) or 0
        if not isinstance(name, str):
            errors.append(f"_ABI key at line {line} must be a string")
            continue
        if (not isinstance(spec, tuple) or len(spec) != 2
                or not (spec[0] is None or isinstance(spec[0], str))
                or not isinstance(spec[1], tuple)
                or not all(isinstance(a, str) for a in spec[1])):
            errors.append(f"_ABI[{name!r}] must be "
                          "(restype | None, tuple-of-token-strings)")
            continue
        if name in entries:
            errors.append(f"duplicate _ABI entry {name!r}")
            continue
        entries[name] = AbiEntry(name=name, restype=spec[0],
                                 argtypes=spec[1], line=line)
    return entries, errors


def _is_generic(entry: AbiEntry) -> bool:
    return any("IDX" in tok for tok in entry.argtypes)


def _py_canon(token: str) -> tuple[tuple[str, int, bool], bool] | None:
    """An ``_ABI`` token -> ``(canonical_type, is_pointer)``; ``None``
    for tokens outside the vocabulary."""
    ptr = False
    base = token
    if base.startswith("&"):
        ptr = True
        base = base[1:]
    if base.endswith("*"):
        ptr = True
        base = base[:-1]
    canon = _PY_CANON.get(base)
    if canon is None:
        return None
    return canon, ptr


def _instantiate(entry: AbiEntry, suffix: str) -> tuple[str, list[str]]:
    """Resolve one generic instantiation: ``IDX`` -> ``i32``/``i64``."""
    idx = suffix.lstrip("_")
    return (entry.name + suffix,
            [tok.replace("IDX", idx) for tok in entry.argtypes])


def _compare_one(symbol: str, proto: CPrototype, restype: str | None,
                 argtokens: list[str], entry: AbiEntry) -> list[AbiIssue]:
    """Cross-check one C prototype against one resolved binding."""
    issues: list[AbiIssue] = []
    line = entry.line

    def issue(category: str, message: str) -> None:
        issues.append(AbiIssue(category=category, symbol=symbol,
                               message=message, line=line))

    # --- restype -----------------------------------------------------
    c_ret = _C_CANON.get(proto.restype)
    if c_ret is None:
        issue("width", f"{symbol}: return type {proto.restype!r} is not a "
                       "fixed-width ABI type (use int64_t/void)")
    else:
        py_ret = (("void", 0, True) if restype is None
                  else _PY_CANON.get(restype))
        if py_ret is None:
            issue("coverage", f"{symbol}: _ABI restype token {restype!r} "
                              "is not in the vocabulary (i64/f64/None)")
        elif c_ret != py_ret:
            want = proto.restype
            got = "None (void)" if restype is None else restype
            issue("types", f"{symbol}: restype mismatch — C declares "
                           f"{want}, ctypes declares {got}")

    # --- arity -------------------------------------------------------
    if len(proto.params) != len(argtokens):
        issue("coverage",
              f"{symbol}: arity mismatch — C prototype has "
              f"{len(proto.params)} parameter(s), _ABI declares "
              f"{len(argtokens)}")
        return issues

    # --- per-argument types -----------------------------------------
    for pos, (param, token) in enumerate(zip(proto.params, argtokens)):
        label = f"{symbol} arg {pos} ({param.name or token})"
        parsed = _py_canon(token)
        if parsed is None:
            issue("coverage", f"{label}: _ABI token {token!r} is not in "
                              "the vocabulary")
            continue
        py_type, py_ptr = parsed
        c_type = _C_CANON.get(param.ctype)
        if c_type is None:
            issue("width", f"{label}: C type {param.ctype!r} is not a "
                           "fixed-width ABI type (int/long/size_t change "
                           "width across platforms — use "
                           "int32_t/int64_t/unsigned char/double)")
            continue
        if param.pointer != py_ptr:
            c_desc = param.ctype + ("*" if param.pointer else "")
            issue("types", f"{label}: pointer mismatch — C declares "
                           f"{c_desc}, ctypes declares {token}")
            continue
        c_kind, c_bits, c_signed = c_type
        py_kind, py_bits, py_signed = py_type
        if c_kind != py_kind:
            issue("types", f"{label}: element kind mismatch — C declares "
                           f"{param.ctype}, ctypes declares {token}")
        elif c_bits != py_bits:
            issue("width", f"{label}: integer width mismatch — C declares "
                           f"{param.ctype} ({c_bits}-bit), ctypes declares "
                           f"{token} ({py_bits}-bit); an int32/int64 index "
                           "drift reads the wrong stride")
        elif c_signed != py_signed:
            issue("width", f"{label}: signedness mismatch — C declares "
                           f"{param.ctype}, ctypes declares {token}")
    return issues


def compare(entries: dict[str, AbiEntry],
            protos: dict[str, CPrototype]) -> list[AbiIssue]:
    """Full cross-check of an ``_ABI`` table against header prototypes."""
    issues: list[AbiIssue] = []
    covered: set[str] = set()
    for entry in entries.values():
        if _is_generic(entry):
            expected = [_instantiate(entry, s) for s in ("_i32", "_i64")]
        else:
            expected = [(entry.name, list(entry.argtypes))]
        for symbol, argtokens in expected:
            covered.add(symbol)
            proto = protos.get(symbol)
            if proto is None:
                issues.append(AbiIssue(
                    category="coverage", symbol=symbol, line=entry.line,
                    message=f"{symbol}: bound by _ABI[{entry.name!r}] but "
                            "no RK_EXPORT prototype in kernels.h declares "
                            "it"))
                continue
            issues.extend(_compare_one(symbol, proto, entry.restype,
                                       argtokens, entry))
    for name in protos:
        if name not in covered:
            issues.append(AbiIssue(
                category="coverage", symbol=name, line=0,
                message=f"{name}: exported by kernels.h but absent from "
                        "the _ABI table — the symbol is unreachable (or "
                        "bound elsewhere without static checking)"))
    return issues


def header_path_for(module_path: str) -> Path:
    """Where a bindings module's header lives by convention:
    ``<module dir>/src/kernels.h``."""
    return Path(module_path).resolve().parent / "src" / "kernels.h"


def analyze_module(tree: ast.Module, module_path: str) -> list[AbiIssue]:
    """End-to-end analysis for one Python module; empty when the module
    defines no ``_ABI`` table (the rules only fire on bindings files)."""
    entries, py_errors = extract_abi(tree)
    if entries is None:
        return []
    issues = [AbiIssue(category="coverage", symbol="_ABI", message=msg)
              for msg in py_errors]
    header = header_path_for(module_path)
    try:
        text = header.read_text(encoding="utf-8")
    except OSError:
        issues.append(AbiIssue(
            category="coverage", symbol="kernels.h",
            message=f"expected C header at {header} (modules defining an "
                    "_ABI table must keep their prototypes in "
                    "src/kernels.h)"))
        return issues
    protos, c_errors = parse_header(text)
    issues.extend(AbiIssue(category="coverage", symbol="kernels.h",
                           message=f"{header.name}: {msg}")
                  for msg in c_errors)
    issues.extend(compare(entries, protos))
    return issues
