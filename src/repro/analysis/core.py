"""The reprolint framework: AST lint rules over the repo's contracts.

The repo's correctness rests on cross-cutting *contracts* that no unit
test checks statically: seed determinism flows through
:func:`repro.util.rng.as_generator`, store-mediated stages are pure
functions of their cache key, the numeric-backend bit-identity boundary
stays closed, raw sockets stay behind the cluster transport.  This
module provides the machinery to encode such contracts as lint rules:

* :class:`Finding` — one violation: ``path:line:col``, rule id,
  message, severity and a fix hint;
* :class:`LintRule` — a registered rule: metadata (title, the PR whose
  contract it guards, path scoping) plus an AST ``check`` callback;
* :data:`lint_rules` — the eighth component :class:`Registry`;
  :func:`register_lint_rule` is its decorator, so downstream users add
  project-specific invariants the same way they add topologies;
* :func:`lint_source` / :func:`lint_paths` — run the rules and collect
  a :class:`LintReport`.

Suppression mirrors flake8's ``noqa``: a trailing ``# reprolint:
disable=RULE-ID`` comment silences findings on that physical line
(``disable=all`` silences every rule), and ``# reprolint:
disable-file=RULE-ID`` anywhere in a file silences the rule for the
whole file.  Suppressions are deliberate, grep-able escape hatches —
the linter's job is to make violating a contract *loud*, not
impossible.

>>> from repro.analysis import lint_source
>>> findings = lint_source("import random\\n", path="snippet.py")
>>> [f.rule_id for f in findings]
['RNG-001']
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.api.registry import Registry
from repro.errors import ConfigurationError

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "lint_file",
    "lint_paths",
    "lint_rules",
    "lint_source",
    "register_lint_rule",
]

#: Version stamp of the ``--json`` output schema (bump on breaking
#: changes; consumers should reject versions they do not know).
LINT_SCHEMA_VERSION = 1

#: Severities, weakest to strongest.  Only ``error`` findings fail the
#: lint gate (exit 2); ``warning`` findings are reported but advisory.
SEVERITIES = ("warning", "error")

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable(?P<scope>-file)?\s*=\s*(?P<rules>[A-Za-z0-9_,\- ]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = "error"
    fix_hint: str = ""

    @property
    def location(self) -> str:
        """``path:line:col``, clickable in most terminals/editors."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record (the ``--json`` schema's ``findings`` row)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }

    def render(self) -> str:
        """One text-output line for this finding."""
        text = f"{self.location}: {self.rule_id} [{self.severity}] {self.message}"
        if self.fix_hint:
            text += f" (fix: {self.fix_hint})"
        return text

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


@dataclass(frozen=True)
class LintRule:
    """A registered invariant check.

    ``check(ctx)`` receives a :class:`ModuleContext` and yields
    ``(node, message)`` or ``(node, message, fix_hint)`` tuples; the
    framework turns them into :class:`Finding` records with the rule's
    id, severity and default fix hint.

    ``only`` / ``exempt`` are posix-path substring patterns scoping the
    rule: when ``only`` is non-empty the rule runs solely on matching
    files, and ``exempt`` files are always skipped (e.g. RNG-001
    exempts ``util/rng.py``, the one place allowed to touch
    ``np.random`` directly).
    """

    rule_id: str
    title: str
    description: str
    check: Callable[["ModuleContext"], Iterable[tuple]]
    contract: str = ""
    severity: str = "error"
    fix_hint: str = ""
    only: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (posix substring scoping)."""
        norm = path.replace("\\", "/")
        if any(pattern in norm for pattern in self.exempt):
            return False
        if self.only:
            return any(pattern in norm for pattern in self.only)
        return True

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rule descriptor (the ``--json`` ``rules`` row)."""
        return {
            "rule": self.rule_id,
            "title": self.title,
            "description": self.description,
            "contract": self.contract,
            "severity": self.severity,
        }


#: The eighth component registry: lint rules, by rule id.
lint_rules: Registry[LintRule] = Registry("lint rule")


def register_lint_rule(
    rule_id: str,
    *,
    title: str,
    description: str,
    contract: str = "",
    severity: str = "error",
    fix_hint: str = "",
    only: Sequence[str] = (),
    exempt: Sequence[str] = (),
) -> Callable[[Callable[["ModuleContext"], Iterable[tuple]]], Callable]:
    """Decorator registering a ``check(ctx)`` callback as a lint rule.

    >>> from repro.analysis.core import register_lint_rule, lint_rules
    >>> @register_lint_rule("DEMO-001", title="no demo", description="demo rule")
    ... def _no_demo(ctx):
    ...     '''Flag every module named demo.py.'''
    ...     if ctx.path.endswith("demo.py"):
    ...         yield ctx.tree, "demo modules are banned"
    >>> "DEMO-001" in lint_rules
    True
    >>> _ = lint_rules.unregister("DEMO-001")
    """
    if severity not in SEVERITIES:
        raise ConfigurationError(
            f"unknown severity {severity!r}; valid severities: "
            f"{', '.join(SEVERITIES)}"
        )

    def decorator(check: Callable[["ModuleContext"], Iterable[tuple]]) -> Callable:
        rule = LintRule(
            rule_id=rule_id,
            title=title,
            description=description,
            check=check,
            contract=contract,
            severity=severity,
            fix_hint=fix_hint,
            only=tuple(only),
            exempt=tuple(exempt),
        )
        lint_rules.register(rule_id, rule)
        return check

    return decorator


# ----------------------------------------------------------------------
# Module context: parsed source + import-alias resolution
# ----------------------------------------------------------------------
class ModuleContext:
    """One parsed module, shared by every rule that runs on it.

    Carries the AST, the raw source lines, and an import-alias map so
    rules can resolve ``np.random.default_rng`` regardless of how numpy
    was imported (``import numpy as np``, ``from numpy import random``,
    ...).
    """

    def __init__(self, source: str, path: str = "<string>") -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.aliases = self._collect_aliases(self.tree)

    @staticmethod
    def _collect_aliases(tree: ast.AST) -> Dict[str, str]:
        """Local name -> canonical dotted module/object path."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    aliases[item.asname or item.name.split(".")[0]] = (
                        item.name if item.asname else item.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for item in node.names:
                    if item.name == "*":
                        continue
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
        return aliases

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """The canonical dotted name of an attribute/name chain.

        Resolves the head through the module's import aliases, so
        ``np.random.default_rng`` and ``numpy.random.default_rng`` both
        canonicalise to the latter.  Returns ``None`` for expressions
        that are not plain dotted chains (calls, subscripts, ...).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self.aliases.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])

    def functions(self) -> Iterator[ast.AST]:
        """Every function/method definition in the module."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def _parse_suppressions(lines: Sequence[str]) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """``(per_line, per_file)`` suppression sets from source comments.

    ``per_line`` maps 1-based line numbers to the rule ids disabled on
    that line; ``per_file`` holds rule ids disabled for the whole file.
    The token ``all`` disables every rule.
    """
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if "reprolint" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {
            token.strip().upper()
            for token in match.group("rules").split(",")
            if token.strip()
        }
        if match.group("scope"):
            per_file |= rules
        else:
            per_line.setdefault(lineno, set()).update(rules)
    return per_line, per_file


def _suppressed(
    finding: Finding, per_line: Dict[int, Set[str]], per_file: Set[str]
) -> bool:
    rule = finding.rule_id.upper()
    if rule in per_file or "ALL" in per_file:
        return True
    on_line = per_line.get(finding.line, set())
    return rule in on_line or "ALL" in on_line


def _select_rules(select: Optional[Sequence[str]]) -> List[LintRule]:
    if select is None:
        return [lint_rules.get(rule_id) for rule_id in lint_rules.names()]
    return [lint_rules.get(rule_id) for rule_id in select]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one source string; returns sorted, suppression-filtered findings.

    A module that does not parse yields a single ``SYNTAX`` finding at
    the error location (a file the linter cannot read statically cannot
    uphold any contract).
    """
    try:
        ctx = ModuleContext(source, path=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule_id="SYNTAX",
                message=f"module does not parse: {exc.msg}",
            )
        ]
    per_line, per_file = _parse_suppressions(ctx.lines)
    findings: List[Finding] = []
    for rule in _select_rules(select):
        if not rule.applies_to(path):
            continue
        for item in rule.check(ctx):
            node, message = item[0], item[1]
            hint = item[2] if len(item) > 2 else rule.fix_hint
            finding = Finding(
                path=path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=rule.rule_id,
                message=message,
                severity=rule.severity,
                fix_hint=hint,
            )
            if not _suppressed(finding, per_line, per_file):
                findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def lint_file(path: Path, select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one file on disk (path recorded posix-style)."""
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, path=Path(path).as_posix(), select=select)


@dataclass(frozen=True)
class LintReport:
    """The outcome of linting a set of paths."""

    findings: Tuple[Finding, ...]
    files_checked: int
    rules: Tuple[LintRule, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding survived suppression."""
        return not any(f.severity == "error" for f in self.findings)

    def exit_code(self) -> int:
        """Process exit status: 0 clean (warnings allowed), 2 on errors."""
        return 0 if self.ok else 2

    def text(self) -> str:
        """Human-readable report (one line per finding + a summary)."""
        lines = [finding.render() for finding in self.findings]
        errors = sum(1 for f in self.findings if f.severity == "error")
        warnings = len(self.findings) - errors
        summary = (
            f"reprolint: checked {self.files_checked} file"
            f"{'s' if self.files_checked != 1 else ''}, "
            f"{errors} error{'s' if errors != 1 else ''}, "
            f"{warnings} warning{'s' if warnings != 1 else ''}"
        )
        return "\n".join(lines + [summary])

    def to_json_dict(self) -> Dict[str, object]:
        """The stable ``--json`` schema (see ``LINT_SCHEMA_VERSION``)."""
        return {
            "schema_version": LINT_SCHEMA_VERSION,
            "files_checked": self.files_checked,
            "errors": sum(1 for f in self.findings if f.severity == "error"),
            "warnings": sum(1 for f in self.findings if f.severity == "warning"),
            "findings": [finding.to_dict() for finding in self.findings],
            "rules": [rule.to_dict() for rule in self.rules],
        }


def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise ConfigurationError(
                f"lint target {path} is neither a directory nor a .py file"
            )


def lint_paths(
    paths: Sequence[object], select: Optional[Sequence[str]] = None
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    targets = [Path(str(p)) for p in paths]
    missing = [str(p) for p in targets if not p.exists()]
    if missing:
        raise ConfigurationError(f"lint target(s) do not exist: {', '.join(missing)}")
    findings: List[Finding] = []
    files_checked = 0
    for file_path in _iter_python_files(targets):
        findings.extend(lint_file(file_path, select=select))
        files_checked += 1
    return LintReport(
        findings=tuple(sorted(findings, key=Finding.sort_key)),
        files_checked=files_checked,
        rules=tuple(_select_rules(select)),
    )
