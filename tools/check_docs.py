#!/usr/bin/env python
"""Docs gate: markdown link check + public-API docstring lint.

Run by the ``docs`` CI job (and locally)::

    PYTHONPATH=src python tools/check_docs.py

Two checks, both must pass:

1. **Link check** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at an existing file (and, for ``#anchor``
   fragments onto markdown files, at an existing heading).  External
   ``http(s)`` links are not fetched — CI must not depend on the
   network — just syntax-checked.

2. **Docstring lint** — every module under ``src/repro`` needs a
   module docstring, and the public surface a ``pydoc repro`` reader
   would land on (Platform, the builder, runs, worlds, plans, fault
   plans, the shm plane) needs class *and* public-method docstrings.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Markdown files whose links are verified.
MARKDOWN_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

#: ``module: [class, ...]`` — the public surface requiring docstrings on
#: the class and every public (non-underscore) method.  Extend this when
#: a new user-facing class lands.
PUBLIC_SURFACE = {
    "repro.annotation.driver": ["Platform", "PlatformBuilder", "PlatformRun"],
    "repro.runtime.backends.base": ["ExecutionBackend", "ExecutionWorld"],
    "repro.memory.mmat": ["MMAT", "AccessPlan"],
    "repro.resilience.faults": ["FaultPlan"],
    "repro.resilience.recovery": ["ResiliencePolicy"],
    "repro.aspects.mpi_aspect": ["DistributedMemoryAspect"],
    "repro.aspects.openmp_aspect": ["SharedMemoryAspect"],
    "repro.runtime.shm": ["SharedPageArena", "SegmentCache"],
    "repro.aop.aspect": ["Aspect"],
    "repro.aop.weaver": ["Weaver", "WeavePlan"],
    "repro.aop.joinpoint": ["JoinPoint"],
}

_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(md_path: pathlib.Path) -> set:
    return {_slugify(h) for h in _HEADING.findall(md_path.read_text())}


def check_links() -> list:
    problems = []
    for md in MARKDOWN_FILES:
        if not md.exists():
            problems.append(f"{md.relative_to(ROOT)}: file missing")
            continue
        for target in _LINK.findall(md.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            where = f"{md.relative_to(ROOT)} -> {target}"
            dest = (md.parent / path_part).resolve() if path_part else md
            if not dest.exists():
                problems.append(f"{where}: target does not exist")
                continue
            if fragment and dest.suffix == ".md":
                if _slugify(fragment) not in _anchors(dest):
                    problems.append(f"{where}: no heading for anchor #{fragment}")
    return problems


def check_module_docstrings() -> list:
    problems = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        if not ast.get_docstring(tree):
            problems.append(f"{path.relative_to(ROOT)}: missing module docstring")
    return problems


def _public_methods(cls) -> list:
    """Public methods/properties defined on ``cls`` itself (not inherited)."""
    members = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            members.append((name, member.fget))
        elif inspect.isfunction(member):
            members.append((name, member))
        elif isinstance(member, (staticmethod, classmethod)):
            members.append((name, member.__func__))
    return members


def check_api_docstrings() -> list:
    problems = []
    for module_name, class_names in PUBLIC_SURFACE.items():
        module = importlib.import_module(module_name)
        for class_name in class_names:
            cls = getattr(module, class_name, None)
            if cls is None:
                problems.append(f"{module_name}.{class_name}: not found")
                continue
            if not inspect.getdoc(cls):
                problems.append(f"{module_name}.{class_name}: missing class docstring")
            for name, func in _public_methods(cls):
                if not (func.__doc__ or "").strip():
                    problems.append(
                        f"{module_name}.{class_name}.{name}: missing docstring"
                    )
    return problems


def main() -> int:
    checks = [
        ("markdown links", check_links),
        ("module docstrings", check_module_docstrings),
        ("public-API docstrings", check_api_docstrings),
    ]
    failed = False
    for title, check in checks:
        problems = check()
        if problems:
            failed = True
            print(f"FAIL {title}:")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"ok   {title}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
