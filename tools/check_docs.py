#!/usr/bin/env python
"""Docs gate: markdown link check + public-API docstring lint.

Run by the ``docs`` CI job (and locally)::

    PYTHONPATH=src python tools/check_docs.py

Four checks, all must pass:

1. **Link check** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at an existing file (and, for ``#anchor``
   fragments onto markdown files, at an existing heading).  External
   ``http(s)`` links are not fetched — CI must not depend on the
   network — just syntax-checked.

2. **Docstring lint** — every module under ``src/repro`` needs a
   module docstring, and the public surface a ``pydoc repro`` reader
   would land on (Platform, the builder, runs, worlds, plans, fault
   plans, the shm plane) needs class *and* public-method docstrings.

3. **Member references** — every backticked ``Class.member`` in
   ``README.md`` and ``docs/*.md`` whose ``Class`` is defined under
   ``src/repro`` must name an attribute the class has: a method,
   property or class attribute, a dataclass field or annotation, or an
   attribute its methods assign on ``self``.  Fenced code blocks are
   not inspected.

4. **Named files** — every ``*.md`` file a docstring under ``src/``,
   ``benchmarks/*.py`` or ``tools/`` names (``docs/protocols.md``,
   ``README.md``) must exist, relative to the repository root or to the
   file's own directory.
"""

from __future__ import annotations

import ast
import functools
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


_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_MEMBER_REF = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")


@functools.lru_cache(maxsize=None)
def _self_attributes() -> dict:
    """``(module, class name) -> names`` its methods assign on ``self``, for
    every top-level class under ``src/repro``."""
    index = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                index[module, node.name] = {
                    target.attr
                    for target in ast.walk(node)
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.ctx, ast.Store)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                }
    return index


def _has_member(cls, member: str, assigned: dict) -> bool:
    if hasattr(cls, member):
        return True
    return any(
        member in getattr(klass, "__dataclass_fields__", {})
        or member in vars(klass).get("__annotations__", {})
        or member in assigned.get((klass.__module__, klass.__name__), ())
        for klass in cls.__mro__
    )


def member_problems(text: str) -> list:
    """``(span, class, member)`` for every backticked ``Class.member`` in
    markdown ``text`` whose class under ``src/repro`` lacks the member."""
    assigned = _self_attributes()
    modules_of = {}
    for module, name in assigned:
        modules_of.setdefault(name, []).append(module)
    problems = []
    for span in _CODE_SPAN.findall(_FENCE.sub("", text)):
        for class_name, member in _MEMBER_REF.findall(span):
            classes = [
                getattr(importlib.import_module(module), class_name)
                for module in modules_of.get(class_name, ())
            ]
            if classes and not any(_has_member(c, member, assigned) for c in classes):
                problems.append((span, class_name, member))
    return problems


def check_member_references() -> list:
    return [
        f"{md.relative_to(ROOT)}: `{span}` names no attribute {member!r} of {class_name}"
        for md in MARKDOWN_FILES
        if md.exists()  # a missing file is reported by the link check
        for span, class_name, member in member_problems(md.read_text())
    ]


_MD_NAME = re.compile(r"(?<![\w/.*-])((?:[\w.-]+/)*[\w-][\w.-]*\.md)\b")

#: Python files whose docstrings may name markdown files.
DOCSTRING_FILES = [
    *sorted(SRC.rglob("*.py")),
    *sorted((ROOT / "benchmarks").glob("*.py")),
    *sorted((ROOT / "tools").rglob("*.py")),
]


def missing_md_names(path: pathlib.Path) -> list:
    """``(line, name)`` of every ``*.md`` file a docstring of ``path``
    names that exists neither under the repository root nor beside it."""
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        doc = ast.get_docstring(node, clean=False)
        if not doc:
            continue
        for match in _MD_NAME.finditer(doc):
            name = match.group(1)
            if not ((ROOT / name).exists() or (path.parent / name).exists()):
                missing.append((node.body[0].lineno + doc.count("\n", 0, match.start()), name))
    return sorted(missing)


def check_named_files() -> list:
    return [
        f"{path.relative_to(ROOT)}:{line}: docstring names {name}, which does not exist"
        for path in DOCSTRING_FILES
        for line, name in missing_md_names(path)
    ]


def main() -> int:
    checks = [
        ("markdown links", check_links),
        ("module docstrings", check_module_docstrings),
        ("public-API docstrings", check_api_docstrings),
        ("member references", check_member_references),
        ("named files", check_named_files),
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
