"""The reach report (``tools/reach.py``) on a toy package.

The toy's functions are reached in the parent, only in a thread, only in
an ``os.fork`` child that leaves by ``os._exit``, and by nothing; the
report must name exactly the last one.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import textwrap

_TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _TOOL)
reach = importlib.util.module_from_spec(_spec)
sys.modules["reach"] = reach  # dataclasses resolve annotations through it
_spec.loader.exec_module(reach)

TOY = '''
import os
import threading


def in_parent():
    return 1


def in_thread():
    return 2


def in_child():
    return 3


def never():
    return 4


class Runner:
    def run(self):
        in_parent()
        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join()
        pid = os.fork()
        if pid == 0:
            in_child()
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert status == 0
'''


def make_toy(tmp_path: pathlib.Path) -> pathlib.Path:
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent(TOY))
    return package


def test_only_the_function_nothing_calls_is_unreached(tmp_path):
    package = make_toy(tmp_path)
    reached, failures = reach.record(
        [(["-c", "import toy; toy.Runner().run()"], {})], package, cwd=tmp_path
    )
    assert failures == []
    report = reach.report(reach.functions(package), reached)
    assert report.names(reached=False) == ["toy/__init__.py:never"]
    assert report.names(reached=True) == [
        "toy/__init__.py:Runner.run",
        "toy/__init__.py:in_child",
        "toy/__init__.py:in_parent",
        "toy/__init__.py:in_thread",
    ]
    assert report.unreached_lines == 2
    assert report.format().splitlines()[-1] == (
        f"unreached: 1 of 5 functions, 2 of {report.function_lines} function lines"
    )


def test_a_failed_command_is_reported(tmp_path):
    package = make_toy(tmp_path)
    reached, failures = reach.record([(["-c", "raise SystemExit(3)"], {})], package, cwd=tmp_path)
    assert reached == set()
    assert failures == ["python -c raise SystemExit(3): exit 3"]


def test_nested_functions_fold_into_an_unreached_parent(tmp_path):
    package = tmp_path / "nest"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent('''
        def outer():
            def inner():
                return 1
            return inner
    '''))
    fns = reach.functions(package)
    assert [f.qualname for f in fns] == ["outer", "outer.<locals>.inner"]
    text = reach.report(fns, set()).format()
    assert "outer.<locals>.inner" not in text
    assert text.splitlines()[:2] == ["nest/__init__.py", "      2-5        4  outer"]


def test_decorated_and_async_functions_match_either_first_line(tmp_path):
    package = tmp_path / "deco"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent('''
        import functools


        @functools.lru_cache()
        def cached():
            return 1


        async def coroutine():
            return 2
    '''))
    cached, coroutine = reach.functions(package)
    assert (cached.qualname, cached.first, cached.def_line, cached.last) == ("cached", 5, 6, 7)
    assert (coroutine.qualname, coroutine.first, coroutine.def_line) == ("coroutine", 10, 10)
    path = "deco/__init__.py"
    # A code object's first line is the decorator's on some Python versions, the def's on others.
    assert reach.report([cached], {(path, 5)}).unreached == []
    assert reach.report([cached], {(path, 6)}).unreached == []
    assert reach.report([cached, coroutine], {(path, 7)}).names(reached=False) == [
        "deco/__init__.py:cached", "deco/__init__.py:coroutine",
    ]
