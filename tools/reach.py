#!/usr/bin/env python
"""Reach report: which ``src/repro`` functions does no run reach?

Runs a fixed set of commands -- every example, the end-to-end benchmark at
smoke sizes (untraced, traced per workload, and the two process workloads
under ``REPRO_CHECK=1``), the backend scaling smoke and the figure benches
-- and prints, file by file, the functions none of them called::

    python tools/reach.py                     # the whole run set, ~1-2 min
    python tools/reach.py --json reach.json   # also write the sets as JSON

Standard library only.  ``tools/reach_site/sitecustomize.py`` goes first on
``PYTHONPATH``, so every interpreter of a run -- the fresh ones
``benchmarks/e2e/run.py`` launches and the ranks they fork included -- records
the code objects it calls (``sys.setprofile`` / ``threading.setprofile``)
and dumps the package's share to a per-process file, a forked rank just
before ``os._exit``.  A function counts as reached when a dump names its
first line.  The report gates nothing: a function that only tests call is a
candidate for deletion, and ``grep`` decides.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
HOOK = ROOT / "tools" / "reach_site"
#: A run-set command that takes longer is reported as failed.
COMMAND_TIMEOUT_S = 600


def run_set() -> List[Tuple[List[str], Dict[str, str]]]:
    """``(argv, extra environment)`` of every command the report runs."""
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    e2e = "benchmarks/e2e/run.py"
    check = {"REPRO_CHECK": "1"}
    return [
        *(([path], {}) for path in sorted(glob.glob("examples/*.py", root_dir=ROOT))),
        ([e2e, "--smoke"], {}),
        *(([e2e, "--smoke", "--trace", "1", "--seed", "7", "--workload", w], {}) for w in workloads),
        ([e2e, "--smoke", "--workload", "usgrid-r-process2"], check),
        ([e2e, "--smoke", "--workload", "sgrid-process2"], check),
        (["benchmarks/bench_backend_scaling.py", "--smoke"], {}),
        # pytest-benchmark's ``pedantic`` switches off any active profiler;
        # with the benchmark disabled it just calls the figure generator.
        (["-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "python_files=bench_*.py",
          "--benchmark-disable", "benchmarks"], {}),
    ]


@dataclass(frozen=True)
class Function:
    """One ``def`` of the package: where it is and which lines it spans."""

    path: str  # relative to the package's parent directory
    qualname: str
    first: int  # first decorator line, or the ``def`` line
    def_line: int
    last: int
    parent: Optional[int]  # index of the enclosing function, if any

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions(package: pathlib.Path) -> List[Function]:
    """Every function and method defined in ``package``'s ``*.py`` files."""
    found: List[Function] = []

    def visit(node: ast.AST, path: str, prefix: str, parent: Optional[int]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append(Function(path, prefix + child.name, first, child.lineno,
                                      child.end_lineno, parent))
                visit(child, path, f"{prefix}{child.name}.<locals>.", len(found) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", parent)
            else:
                visit(child, path, prefix, parent)

    for file in sorted(package.rglob("*.py")):
        visit(ast.parse(file.read_text()), str(file.relative_to(package.parent)), "", None)
    return found


def record(commands: Iterable[Tuple[Sequence[str], Dict[str, str]]], package: pathlib.Path,
           *, cwd: pathlib.Path) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run ``commands`` (``python argv...``) under the reach hook.

    Returns the ``(file relative to the package's parent, first line)`` of
    every code object of ``package`` any of their processes called, and a
    line for every command that failed.
    """
    package = package.resolve()
    reached: Set[Tuple[str, int]] = set()
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="reach-") as dump_dir:
        env = dict(os.environ, REACH_DIR=dump_dir, REACH_ROOT=str(package))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(HOOK), str(package.parent), os.environ.get("PYTHONPATH")) if p)
        for argv, extra in commands:
            shown = " ".join([*(f"{k}={v}" for k, v in extra.items()), "python", *argv])
            print(f"reach: {shown}", file=sys.stderr, flush=True)
            try:
                done = subprocess.run([sys.executable, *argv], cwd=cwd, env={**env, **extra},
                                      stdout=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                failures.append(f"{shown}: no exit within {COMMAND_TIMEOUT_S} s")
                continue
            if done.returncode:
                failures.append(f"{shown}: exit {done.returncode}")
        for dump in pathlib.Path(dump_dir).glob("reach-*.txt"):
            for line in dump.read_text().splitlines():
                filename, first, _ = line.split("\t")
                reached.add((os.path.relpath(filename, package.parent), int(first)))
    return reached, failures


@dataclass
class Report:
    """Reach of one package: its functions, and which of them no run called."""

    functions: List[Function]
    unreached: List[int]  # indices into ``functions``

    @property
    def function_lines(self) -> int:
        return len(_line_set(self.functions))

    @property
    def unreached_lines(self) -> int:
        return len(_line_set(self.functions[i] for i in self.unreached))

    def names(self, reached: bool) -> List[str]:
        """``path:qualname`` of the reached (or unreached) functions."""
        skip = set(self.unreached)
        return sorted(f"{f.path}:{f.qualname}" for i, f in enumerate(self.functions)
                      if (i not in skip) == reached)

    def format(self) -> str:
        """Unreached functions per file (nested ones under an unreached
        function are folded into it), then the totals."""
        skip = set(self.unreached)
        out, current = [], None
        for i in self.unreached:
            fn = self.functions[i]
            if fn.parent is not None and fn.parent in skip:
                continue
            if fn.path != current:
                current = fn.path
                out.append(fn.path)
            out.append(f"  {fn.first:5d}-{fn.last:<5d} {fn.lines:4d}  {fn.qualname}")
        out.append(f"unreached: {len(self.unreached)} of {len(self.functions)} functions, "
                   f"{self.unreached_lines} of {self.function_lines} function lines")
        return "\n".join(out)


def _line_set(fns: Iterable[Function]) -> Set[Tuple[str, int]]:
    return {(f.path, line) for f in fns for line in range(f.first, f.last + 1)}


def report(fns: List[Function], reached: Set[Tuple[str, int]]) -> Report:
    """Match the recorded first lines against ``fns``.  A code object's
    first line is its first decorator's line on some Python versions and
    the ``def`` line on others, so either counts."""
    unreached = [i for i, f in enumerate(fns)
                 if (f.path, f.first) not in reached and (f.path, f.def_line) not in reached]
    return Report(fns, unreached)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH",
                        help="also write the reached and unreached functions and the totals")
    args = parser.parse_args(argv)
    reached, failures = record(run_set(), PACKAGE, cwd=ROOT)
    result = report(functions(PACKAGE), reached)
    print(result.format())
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps({
            "function_lines": result.function_lines,
            "unreached_lines": result.unreached_lines,
            "reached": result.names(True),
            "unreached": result.names(False),
        }, indent=1))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
