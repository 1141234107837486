#!/usr/bin/env python
"""docs-check: keep docs/ARCHITECTURE.md in sync with the code layout.

Fails (exit 1) when a module under ``src/repro/serving/`` or
``src/repro/workloads/`` is not mentioned by name in
``docs/ARCHITECTURE.md``, so new serving or workload modules cannot land
undocumented.  Likewise every registered mapping compiler pass
(``repro.mapping.passes``) must appear in ARCHITECTURE.md by its
registry name — the pass list is read off the live registry, so a new
pass cannot land without a doc entry.  Every backticked CamelCase class
name in ``docs/*.md`` and ``README.md`` (``StreamSummary``,
``Fleet.serve_stream`` ...) must be a class defined under ``src/repro``,
so a deleted or renamed class cannot linger in the docs (Python's
builtin classes, such as ``ValueError``, are accepted too).  Every
third-party package imported anywhere under ``src/repro`` (the first
component of each absolute ``import``, lazy imports included) must be
declared in ``setup.py``'s ``install_requires``, so a clean install can
import what the code uses.  Also sanity-checks that the docs/ suite and
the README cross-link each other.

Run from the repo root (CI does):

    python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import ast
import builtins
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Packages whose every module must appear in docs/ARCHITECTURE.md.
DOCUMENTED_PACKAGES = (
    REPO / "src" / "repro" / "serving",
    REPO / "src" / "repro" / "workloads",
)
ARCHITECTURE = REPO / "docs" / "ARCHITECTURE.md"
SETUP = REPO / "setup.py"

#: Docs that must exist and the links each must contain.
REQUIRED_LINKS = {
    REPO / "docs" / "ARCHITECTURE.md": ["PAPER_MAP.md"],
    REPO / "docs" / "PAPER_MAP.md": ["ARCHITECTURE.md", "CLI.md"],
    REPO / "docs" / "CLI.md": ["PAPER_MAP.md"],
    REPO / "README.md": [
        "docs/ARCHITECTURE.md",
        "docs/PAPER_MAP.md",
        "docs/CLI.md",
    ],
}

#: docs/CLI.md must document every long option `repro serve` accepts —
#: the flags are read off the live argparse parser, so a new flag cannot
#: land without a reference row.
CLI_DOC = REPO / "docs" / "CLI.md"


#: Fenced code blocks (blanked before scanning, keeping line numbers),
#: inline code spans, a span's leading identifier, CamelCase, and a
#: class statement.
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_LEADING_NAME = re.compile(r"\s*([A-Za-z_]\w*)")
_CAMEL = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+")
_CLASS = re.compile(r"^\s*class\s+(\w+)", re.M)


def stale_class_names() -> list[str]:
    """``doc:line: Name`` for each backticked CamelCase name in the docs
    that no ``class`` statement under ``src/repro`` (nor ``builtins``)
    defines."""
    defined: set[str] = set(dir(builtins))
    for path in (REPO / "src" / "repro").rglob("*.py"):
        defined.update(_CLASS.findall(path.read_text()))
    stale = []
    for doc in [*sorted((REPO / "docs").glob("*.md")), REPO / "README.md"]:
        if not doc.exists():
            continue
        text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), doc.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            for span in _SPAN.findall(line):
                name = _LEADING_NAME.match(span)
                if name and _CAMEL.fullmatch(name[1]) and name[1] not in defined:
                    stale.append(f"{doc.relative_to(REPO)}:{lineno}: {name[1]}")
    return stale


def declared_requirements() -> set[str]:
    """Import names of ``setup.py``'s ``install_requires`` entries (the
    distribution name up to any version specifier, lower-cased, ``-``
    read as ``_``; every declared package imports under that name)."""
    declared: set[str] = set()
    for node in ast.walk(ast.parse(SETUP.read_text())):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            for item in ast.literal_eval(node.value):
                name = re.match(r"[A-Za-z0-9_.-]+", item)[0]
                declared.add(name.lower().replace("-", "_"))
    return declared


def undeclared_imports() -> list[str]:
    """``path:line: name`` for each import under ``src/repro`` of a
    top-level package that is neither the standard library, ``repro``
    itself, nor declared in ``install_requires``."""
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared_requirements()
    found = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in allowed:
                    found.append(f"{path.relative_to(REPO)}:{node.lineno}: {top}")
    return found


def serve_flags() -> list[str]:
    """Long option strings of the ``repro serve`` subcommand."""
    src = REPO / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.harness.cli import build_parser

    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return sorted(
        option
        for action in subparsers.choices["serve"]._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    )


def mapping_passes() -> list[str]:
    """Registry names of every mapping compiler pass."""
    src = REPO / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.mapping.passes import available_passes

    return list(available_passes())


def main() -> int:
    failures: list[str] = []

    if not ARCHITECTURE.exists():
        print(f"docs-check: missing {ARCHITECTURE.relative_to(REPO)}")
        return 1
    architecture = ARCHITECTURE.read_text()

    n_modules = 0
    for package in DOCUMENTED_PACKAGES:
        modules = sorted(
            path.name
            for path in package.glob("*.py")
            if path.name != "__init__.py"
        )
        if not modules:
            failures.append(f"no modules found under {package.relative_to(REPO)}")
        n_modules += len(modules)
        for name in modules:
            if name not in architecture:
                failures.append(
                    f"docs/ARCHITECTURE.md does not mention "
                    f"{package.relative_to(REPO)}/{name}"
                )

    for doc, links in REQUIRED_LINKS.items():
        rel = doc.relative_to(REPO)
        if not doc.exists():
            failures.append(f"missing {rel}")
            continue
        text = doc.read_text()
        for link in links:
            if link not in text:
                failures.append(f"{rel} does not link to {link}")

    flags = serve_flags()
    cli_text = CLI_DOC.read_text() if CLI_DOC.exists() else ""
    for flag in flags:
        if flag not in cli_text:
            failures.append(
                f"docs/CLI.md does not document the `repro serve` flag {flag}"
            )

    passes = mapping_passes()
    for name in passes:
        if name not in architecture:
            failures.append(
                f"docs/ARCHITECTURE.md does not mention the mapping "
                f"compiler pass {name!r}"
            )

    for entry in undeclared_imports():
        failures.append(
            f"{entry} is imported but not declared in setup.py install_requires"
        )

    stale = stale_class_names()
    for entry in stale:
        failures.append(f"{entry} names a class not defined under src/repro")

    if failures:
        print("docs-check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"docs-check ok: {n_modules} serving/workload modules documented, "
        f"{len(flags)} serve flags referenced, "
        f"{len(passes)} mapping passes documented, "
        f"{len(declared_requirements())} dependencies declared, "
        f"{len(REQUIRED_LINKS)} docs cross-linked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
