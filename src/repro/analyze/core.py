"""Rule framework for the repo's static invariant checks.

The repo's correctness story leans on conventions — shared state behind
``threading.Lock``, every durable write routed through
:mod:`repro.persist`, float32 discipline on the compiled hot path,
fail-closed recovery — that nothing used to enforce.  This package
machine-checks them: each convention is a :class:`Rule` that walks a
module's AST and yields :class:`Finding` records, and ``repro lint``
(plus the tier-1 ``tests/test_analyze.py`` gate) runs the full registry
over ``src/``.

Deliberate exceptions are suppressed inline::

    fh = open(path, "w")  # repro: allow[atomic-write] scratch file, never published

A suppression comment matches findings on its own line or the line
directly below it (comment-above style for long lines), and
``allow[*]`` silences every rule for that line.  Suppressions name the
rule they silence, so a grep for ``repro: allow`` is the complete audit
trail of sanctioned violations.

Everything here is stdlib-only (``ast`` + ``tokenize``) so linting never
imports the code under analysis.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "findings_payload",
    "get_rules",
    "has_failures",
    "iter_python_files",
    "register",
    "render_text",
]

SEVERITIES = ("warning", "error")

#: ``# repro: allow[rule-id]`` (optionally ``allow[a,b]`` or ``allow[*]``),
#: anything after the closing bracket is a free-form justification.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s-]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a file position."""

    file: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def as_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        return (f"{self.file}:{self.line}:{self.col}: {self.severity}: "
                f"{self.message} [{self.rule}]")


class Rule:
    """One invariant check.  Subclass, set the class attributes, register.

    ``packages`` scopes the rule to path prefixes under the package root
    (e.g. ``("repro/infer", "repro/nn")``); empty means the whole tree.
    ``exempt`` lists exact relative paths the rule never visits — e.g.
    ``repro/persist.py`` is exempt from atomic-write because it *is* the
    blessed implementation.
    """

    id: str = ""
    severity: str = "error"
    description: str = ""
    packages: tuple = ()
    exempt: tuple = ()

    def applies_to(self, rel: str) -> bool:
        if rel in self.exempt:
            return False
        if not self.packages:
            return True
        return any(rel == p or rel.startswith(p.rstrip("/") + "/")
                   for p in self.packages)

    def check(self, module: "ModuleContext"):
        raise NotImplementedError

    def finding(self, module: "ModuleContext", node: ast.AST,
                message: str) -> Finding:
        return Finding(module.path, node.lineno, node.col_offset,
                       self.id, self.severity, message)


_REGISTRY: dict[str, Rule] = {}


def register(cls):
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"rule {rule.id}: bad severity {rule.severity!r}")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list:
    """Every registered rule, sorted by id."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_rules(ids=None) -> list:
    """Rules for ``ids`` (all when ``None``); unknown ids raise KeyError."""
    if not ids:
        return all_rules()
    unknown = sorted(set(ids) - set(_REGISTRY))
    if unknown:
        raise KeyError(
            f"unknown rule id(s) {unknown}; available: {sorted(_REGISTRY)}")
    return [_REGISTRY[name] for name in sorted(set(ids))]


def _relativize(path: str) -> str:
    """Posix path from the package root: ``.../src/repro/x/y.py`` →
    ``repro/x/y.py``.  Paths outside a ``repro`` tree (test fixtures,
    ad-hoc files) keep their basename, so only unscoped rules apply."""
    parts = os.path.abspath(path).replace(os.sep, "/").split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return parts[-1]


class ModuleContext:
    """One parsed module: source, AST, per-line comments, suppressions."""

    def __init__(self, source: str, path: str = "<string>",
                 rel: str | None = None):
        self.source = source
        self.path = path
        self.rel = rel if rel is not None else _relativize(path)
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self.comments: dict[int, str] = {}
        self._allowed: dict[int, set] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string
        except tokenize.TokenError:
            pass  # ast.parse succeeded; trailing-token oddities are moot
        for line, text in self.comments.items():
            match = _ALLOW_RE.search(text)
            if match:
                names = {n.strip() for n in match.group(1).split(",")}
                self._allowed[line] = {n for n in names if n}

    def comment(self, line: int) -> str:
        """Comment text on ``line`` ("" when none)."""
        return self.comments.get(line, "")

    def comment_only(self, line: int) -> bool:
        """Does ``line`` hold nothing but a comment?  Line-above
        annotation matching requires this — a *trailing* comment on the
        previous statement must not bleed into the next line."""
        if line not in self.comments:
            return False
        text = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        return text.lstrip().startswith("#")

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Is a finding of ``rule_id`` at ``line`` inline-suppressed?

        Matches an ``allow`` comment on the finding's own line, or on a
        comment-only line directly above it.
        """
        for candidate in (line, line - 1):
            if candidate != line and not self.comment_only(candidate):
                continue
            allowed = self._allowed.get(candidate)
            if allowed and (rule_id in allowed or "*" in allowed):
                return True
        return False


def analyze_source(source: str, path: str = "<string>",
                   rel: str | None = None, rules=None) -> list:
    """Run ``rules`` (default: all) over one module's source text."""
    module = ModuleContext(source, path=path, rel=rel)
    findings = []
    for rule in (rules if rules is not None else all_rules()):
        if not rule.applies_to(module.rel):
            continue
        for found in rule.check(module):
            if not module.suppressed(found.line, found.rule):
                findings.append(found)
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return findings


def analyze_file(path: str, rules=None) -> list:
    """Analyze one file; an unparsable file is itself a finding."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        return analyze_source(source, path=path, rules=rules)
    except SyntaxError as error:
        return [Finding(path, error.lineno or 1, (error.offset or 1) - 1,
                        "parse-error", "error",
                        f"cannot parse: {error.msg}")]


def iter_python_files(paths) -> list:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                found.extend(os.path.join(root, n)
                             for n in sorted(names) if n.endswith(".py"))
        elif os.path.isfile(path):
            found.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path!r}")
    return found


def analyze_paths(paths, rules=None) -> list:
    """Analyze every ``.py`` file under ``paths``."""
    findings = []
    for path in iter_python_files(paths):
        findings.extend(analyze_file(path, rules=rules))
    return findings


def findings_payload(findings, rules=None) -> dict:
    """JSON-serializable report: findings + per-rule/severity summary."""
    rules = rules if rules is not None else all_rules()
    by_rule: dict[str, int] = {rule.id: 0 for rule in rules}
    by_severity = {name: 0 for name in SEVERITIES}
    for found in findings:
        by_rule[found.rule] = by_rule.get(found.rule, 0) + 1
        by_severity[found.severity] = by_severity.get(found.severity, 0) + 1
    return {
        "version": 1,
        "rules": [{"id": rule.id, "severity": rule.severity,
                   "description": rule.description} for rule in rules],
        "findings": [found.as_dict() for found in findings],
        "summary": {
            "total": len(findings),
            "by_severity": by_severity,
            "by_rule": by_rule,
        },
    }


def render_text(findings) -> str:
    """Human-readable report (one line per finding + a summary line)."""
    lines = [found.render() for found in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append(f"{len(findings)} finding(s): {errors} error(s), "
                 f"{warnings} warning(s)")
    return "\n".join(lines)


def has_failures(findings, strict: bool = False) -> bool:
    """Exit-code contract: errors always fail; warnings only under
    ``strict``."""
    if strict:
        return bool(findings)
    return any(found.severity == "error" for found in findings)
