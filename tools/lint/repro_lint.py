#!/usr/bin/env python3
"""Determinism and hygiene lint for the repro codebase (AST-driven).

The campaign stack's central promise is a reproducible canonical ledger:
the same corpus member and config must hash identically on every machine,
every run, under every scheduler.  These rules fence off the handful of
Python constructs that silently break that promise (wall-clock reads,
unseeded randomness, weak hashes) plus the hygiene rules the codebase
already follows by convention (no stray ``exec``, no swallowed
exceptions).

Rules
-----

======  =================================================================
RL001   ``hashlib.sha1`` anywhere -- ledgers, corpus hashing, and shard
        assignment are SHA-256; a second hash family invites drift.
RL002   module-level ``random.*`` calls or imports inside ``src/repro``
        -- campaigns must thread explicit ``random.Random(seed)``
        instances so reports reproduce bit-identically.
RL003   wall-clock reads (``time.time``, ``datetime.now``/``utcnow``/
        ``today``) inside the suite ledger layer (``src/repro/suite``)
        -- canonical records are pure functions of member + config.
        ``time.perf_counter`` for the non-canonical ``wall`` block is
        fine and not flagged.
RL004   ``exec`` outside ``src/repro/netlist/compiled.py`` (the one
        sanctioned code generator).
RL006   bare or broad ``except`` (``Exception``/``BaseException``/no
        type) whose handler never re-raises, outside ``__del__`` --
        swallowed errors turn missing coverage into silent zeros.
======  =================================================================

Rule ids are never reused: a retired rule leaves a gap in the numbering.

Suppressions
------------

Append ``# repro-lint: disable=RL003`` (comma-separated rule ids, or
``all``) to the flagged line.  Suppressions are deliberate, auditable
markers -- each one should carry a neighbouring comment saying why.

Usage
-----

::

    python tools/lint/repro_lint.py            # lint src, benchmarks, tools
    python tools/lint/repro_lint.py --json     # machine-readable findings
    python tools/lint/repro_lint.py tests      # explicit roots

Exit status 1 when any violation survives suppression, 0 otherwise.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

REPO_ROOT = Path(__file__).resolve().parents[2]

DEFAULT_ROOTS = ("src", "benchmarks", "tools")

RULES: Dict[str, str] = {
    "RL001": "hashlib.sha1 is banned: ledgers and shard hashing are SHA-256",
    "RL002": "unseeded module-level random in src/repro: thread a "
    "random.Random(seed) instance instead",
    "RL003": "wall-clock read in the suite ledger layer: canonical records "
    "must be reproducible (time.perf_counter is fine for timings)",
    "RL004": "exec outside src/repro/netlist/compiled.py",
    "RL006": "bare/broad except without re-raise outside __del__ swallows "
    "errors silently",
}

# Files where a rule's flagged construct is the sanctioned implementation.
_EXEC_HOME = "src/repro/netlist/compiled.py"

_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at a file line."""

    path: str
    line: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Per-line suppressed rule ids (``all`` suppresses every rule)."""
    table: Dict[int, Set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            table[number] = {r for r in rules if r}
    return table


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    for name in names:
        if isinstance(name, ast.Name) and name.id in (
            "Exception",
            "BaseException",
        ):
            return True
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


class _Linter(ast.NodeVisitor):
    """Collects violations for one file; scoping decided by relpath."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.violations: List[Violation] = []
        self._function_stack: List[str] = []
        self.in_repro = relpath.startswith("src/repro/")
        self.in_suite = relpath.startswith("src/repro/suite/")

    # -- helpers -------------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str) -> None:
        self.violations.append(
            Violation(self.relpath, node.lineno, rule, RULES[rule])
        )

    # -- imports -------------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "hashlib":
            for alias in node.names:
                if alias.name == "sha1":
                    self._flag(node, "RL001")
        if node.module == "random" and self.in_repro:
            for alias in node.names:
                if alias.name not in ("Random", "SystemRandom"):
                    self._flag(node, "RL002")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted == "hashlib.sha1":
            self._flag(node, "RL001")
        if (
            self.in_repro
            and dotted is not None
            and dotted.startswith("random.")
            and dotted.count(".") == 1
            and dotted.split(".", 1)[1] not in ("Random", "SystemRandom")
        ):
            self._flag(node, "RL002")
        if self.in_suite and dotted in _WALLCLOCK_CALLS:
            self._flag(node, "RL003")
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "exec"
            and self.relpath != _EXEC_HOME
        ):
            self._flag(node, "RL004")
        self.generic_visit(node)

    # -- broad excepts -------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        in_del = bool(self._function_stack) and self._function_stack[-1] == "__del__"
        if _is_broad_handler(node) and not _reraises(node) and not in_del:
            self._flag(node, "RL006")
        self.generic_visit(node)


def lint_source(source: str, relpath: str) -> List[Violation]:
    """Lint one file's source; returns surviving (unsuppressed) findings."""
    tree = ast.parse(source, filename=relpath)
    linter = _Linter(relpath)
    linter.visit(tree)
    suppressed = _suppressions(source)
    survivors = []
    for violation in sorted(
        linter.violations, key=lambda v: (v.line, v.rule)
    ):
        rules_here = suppressed.get(violation.line, set())
        if violation.rule in rules_here or "all" in rules_here:
            continue
        survivors.append(violation)
    return survivors


def lint_path(path: Path, root: Path = REPO_ROOT) -> List[Violation]:
    relpath = path.resolve().relative_to(root.resolve()).as_posix()
    return lint_source(path.read_text(encoding="utf-8"), relpath)


def _collect(roots: Sequence[str], root: Path) -> List[Path]:
    files: List[Path] = []
    for name in roots:
        target = root / name
        if target.is_file():
            files.append(target)
        elif target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
    return files


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description="determinism/hygiene lint for the repro codebase",
    )
    parser.add_argument(
        "roots", nargs="*", default=list(DEFAULT_ROOTS),
        help=f"files or directories relative to the repo root "
        f"(default: {' '.join(DEFAULT_ROOTS)})",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable findings"
    )
    args = parser.parse_args(argv)

    violations: List[Violation] = []
    checked = 0
    for path in _collect(args.roots, REPO_ROOT):
        checked += 1
        violations.extend(lint_path(path))

    if args.json:
        print(
            json.dumps(
                {
                    "checked": checked,
                    "violations": [v.to_dict() for v in violations],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for violation in violations:
            print(violation)
        status = "FAILED" if violations else "ok"
        print(
            f"repro-lint {status}: {checked} files checked, "
            f"{len(violations)} violation(s)"
        )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
