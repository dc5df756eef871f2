"""The docs gate's member-reference check (``tools/check_docs.py``)."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


@pytest.mark.parametrize(
    "span,missing",
    [
        ("ProcessWorld.finalize()", None),  # a method
        ("ProcessWorld.backend_name", None),  # a class attribute
        ("ProcessWorld.shm_uid", None),  # assigned on self in __init__
        ("NetworkStats.open_steps", None),  # a dataclass field with a default factory
        ("ExecutionWorld.control", None),  # a class-level annotation
        ("MPIWorld.control", None),  # inherited from ExecutionWorld
        ("ShmVersionError.args", None),  # inherited from a builtin base
        ("ProcessWorld.allreduce_bits(2)", None),  # a call
        ("SharedPageArena.reserve", None),
        ("SharedMemory.nothing", None),  # not a class under src/repro
        ("repro.runtime.ProcessWorld.nothing", None),  # a dotted path, not Class.member
        ("ProcessWorld.no_such_plane()", "no_such_plane"),
        ("TaskCounters.shm_fallbacks", "shm_fallbacks"),
        ("FaultPlan.no_such_fault()", "no_such_fault"),
        ("PlatformRun.no_such_member", "no_such_member"),
    ],
)
def test_member_reference(span, missing):
    problems = check_docs.member_problems(f"see `{span}` there")
    assert problems == ([(span, span.split(".")[0], missing)] if missing else [])


def test_fenced_code_is_not_inspected():
    assert check_docs.member_problems("```\nProcessWorld.no_such_member()\n```\n") == []


def test_the_repository_docs_pass():
    assert check_docs.check_member_references() == []


def test_named_md_files_must_exist(tmp_path):
    (tmp_path / "NOTES.md").write_text("# notes\n")
    module = tmp_path / "module.py"
    module.write_text(
        '"""See docs/architecture.md, *Tiles*, and NOTES.md beside this file.\n'
        '\n'
        'DESIGN.md is gone; ``docs/*.md`` is a pattern, not a name.\n'
        '"""\n'
        '\n'
        '\n'
        'def f():\n'
        '    """Cites docs/gone.md."""\n'
        '    return "EXPERIMENTS.md"  # a string, not a docstring\n'
    )
    assert check_docs.missing_md_names(module) == [(3, "DESIGN.md"), (8, "docs/gone.md")]


def test_the_repository_docstrings_name_existing_files():
    assert check_docs.check_named_files() == []
