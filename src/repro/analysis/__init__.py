"""repro.analysis — reprolint, the repo's AST-based invariant linter.

The eighth component registry: :data:`~repro.analysis.core.lint_rules`
maps rule ids (``RNG-001``, ``STORE-001``, ...) to AST checks encoding
the contracts earlier PRs introduced — seed determinism, store-stage
purity, the numeric-backend bit-identity boundary, the ReproError
hierarchy, documented registrations, the raw-socket boundary.
DESIGN.md's "Invariant catalog" maps every rule to the PR whose
contract it guards.

Run it as ``repro lint src/repro`` (text or ``--json``; exit 2 on
error findings), through the pytest gate (``tests/test_reprolint.py``
keeps tier-1 green only when the tree is clean), or programmatically:

>>> from repro.analysis import lint_source
>>> [f.rule_id for f in lint_source("raise ValueError('boom')\\n")]
['ERR-001']

Suppress a finding with a trailing ``# reprolint: disable=RULE-ID``
comment, or file-wide with ``# reprolint: disable-file=RULE-ID``.
Register project-specific rules with
:func:`~repro.analysis.core.register_lint_rule`.
"""

from repro.analysis.core import (
    LINT_SCHEMA_VERSION,
    Finding,
    LintReport,
    LintRule,
    ModuleContext,
    lint_file,
    lint_paths,
    lint_rules,
    lint_source,
    register_lint_rule,
)

# Importing the module registers the built-in rule set.
import repro.analysis.rules  # noqa: F401  (side-effect import)

__all__ = [
    "Finding",
    "LINT_SCHEMA_VERSION",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "lint_file",
    "lint_paths",
    "lint_rules",
    "lint_source",
    "register_lint_rule",
]
