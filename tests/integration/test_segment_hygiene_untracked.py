"""A process world needs no ``multiprocessing`` and cleans up its own segments.

Ranks are forked with ``os.fork`` and talk over raw pipes, and the named
segments are opened with ``shm_open`` and ``mmap`` directly: a run never
imports :mod:`multiprocessing`, and no resource tracker stands behind
the segments.  The owner's unlink on close, the parent's probe sweep in
``finalize`` and the next world's stale sweep are the whole cleanup.
The run below is a fresh interpreter, so nothing an earlier test
imported can hide an import of the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.runtime import get_backend, shm

pytestmark = pytest.mark.skipif(
    not get_backend("process").available() or not shm.shm_available(),
    reason="needs the fork start method and POSIX shared memory",
)

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

SCRIPT = """
import json, os, sys
import numpy as np
from repro import Platform
from repro.apps import JacobiSGrid
config = dict(region=32, block_size=16, page_elements=32, loops=4,
              init=lambda x, y: 0.03 * x - 0.05 * y)
plain = Platform.builder().run(JacobiSGrid, config=config)
run = Platform.builder().mpi(2, backend="process").mmat().run(JacobiSGrid, config=config)
owned = ~np.isnan(run.result)
print(json.dumps(dict(
    pid=os.getpid(),
    imported=sorted(name for name in sys.modules if name.startswith("multiprocessing")),
    equal=bool(owned.any() and np.array_equal(run.result[owned], plain.result[owned])),
    pushes=run.network["halo_pushes"],
)))
"""


def test_a_two_rank_process_run_imports_no_multiprocessing_and_leaves_no_segment():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["equal"] and report["pushes"] > 0, report
    assert report["imported"] == [], report
    prefix = f"repro_shm_{report['pid']}x"
    assert [name for name in os.listdir("/dev/shm") if name.startswith(prefix)] == []
    assert "resource_tracker" not in done.stderr, done.stderr
