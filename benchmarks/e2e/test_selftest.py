"""Self-test of the end-to-end benchmark (smoke sizes; collected by tier-1).

Checks the harness, not the platform's speed: names agree with
``BENCHMARK.json``, a wrong result is a failed run, the traced run is the
same program as the untraced one, and every span a workload is expected to
exercise was recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RUN = os.path.join(HERE, "run.py")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import reference  # noqa: E402
import run as e2e  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

EVERYWHERE = (
    "aop.weave_class", "aop.weave_function", "dsl.initialize", "dsl.finalize",
    "memory.env_refresh", "runtime.run_spmd", "runtime.commit_registration",
    "runtime.finalize", "runtime.barrier", "runtime.allreduce",
)
SGRID = ("dsl.sweep", "memory.compile_offsets_plan", "kernels.fuse")
USGRID = ("dsl.gather", "dsl.gather_global", "dsl.scatter", "memory.compile_address_plan",
          "memory.plan_execute", "memory.dense_read")
MULTI_RANK = ("runtime.comm_wait", "runtime.fetch_pages_bulk_async", "memory.page_install_many")
#: Spans that move pages between ranks: must not fire on a one-rank world.
PAGE_MOVERS = MULTI_RANK + ("runtime.fetch_pages_bulk", "memory.page_export")


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = run_cli("--smoke", "--json", str(out))
    # Exit 0 means every run, traced ones included, matched the oracle and
    # every traced run reported its untraced twin's exact counts.
    assert done.returncode == 0, done.stderr
    with open(out) as handle:
        return json.load(handle), done.stdout


def test_names_match_benchmark_json(smoke_report):
    report, stdout = smoke_report
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert list(report["workloads"]) == sorted(w.name for w in workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["bound"]) for m in BENCHMARK["end_to_end"]}
    assert declared == e2e.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == e2e.layer_units()
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["run_seconds"] == e2e.RUN_SECONDS
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == set(declared) | {"failed_ratio"}
        assert entry["end_to_end"]["failed_ratio"] == 0
        assert set(entry["per_layer"]) == set(e2e.layer_units())
        for metric in declared:  # every metric is printed by name
            assert metric in stdout


def test_expected_spans_fire(smoke_report):
    report, _ = smoke_report
    for workload in workloads.WORKLOADS:
        table = report["workloads"][workload.name]["per_layer"]
        expected = EVERYWHERE + (SGRID if workload.kind == "sgrid" else USGRID)
        if workload.ranks > 1:
            expected += MULTI_RANK
            if workload.backend == "process":
                expected += ("memory.page_export",)
        for span in expected:
            assert table[f"{span}.n"] > 0, (workload.name, span)
        if workload.ranks == 1:
            for span in PAGE_MOVERS:
                assert table[f"{span}.n"] == 0, (workload.name, span)
            assert table["runtime.messages_per_step"] == 0
            assert table["derived.speedup_vs_serial_x"] == 1
        assert table["aspects.recomputed_steps"] == 0
        assert table["memory.fallback_sites"] == 0
        assert table["derived.attributed_share"] > 0.9


def test_contract_lines():
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        done = run_cli("--smoke", "--workload", "sgrid-threads2", "--seed", "5",
                       "--seconds", "1", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }


def test_wrong_result_is_a_failed_run():
    problem = workloads.problem_for(workloads.BY_NAME["usgrid-r-serial"], 3, smoke=True)
    oracle, _ = reference.solve(problem)
    timings = {"time_to_solution_s": 1.0, "setup_s": 0.5, "step_s": [0.1], "peak_rss_mb": 1.0}
    good = e2e.checked(dict(timings, result=oracle.copy()), oracle, ranks=1)
    assert e2e.end_to_end([good])["failed_ratio"] == 0
    flipped = oracle.copy()
    flipped[3, 4] = np.nextafter(flipped[3, 4], np.inf)
    bad = e2e.checked(dict(timings, result=flipped), oracle, ranks=1)
    assert "max-abs-diff" in bad["error"]
    assert e2e.end_to_end([bad]) == {"failed_ratio": 1.0}
    # rank 0 of two owns half the sites; fewer finite sites than that is a failure
    half = oracle.copy()
    half[: oracle.shape[0] // 2 + 1] = np.nan
    assert reference.mismatch(half, oracle, ranks=2) is not None


def test_refuses_to_run_without_the_platform(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sgrid-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
