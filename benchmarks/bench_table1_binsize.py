"""Table I — size of the benchmark programs per configuration.

Paper: "the size of the binaries with the platform is three to five
times larger but still within the size of the CPU cache".  The Python
equivalent measured here is the marshalled size of the code objects
making up each configuration (see ``repro.analysis.codesize``); the
ordering H < P < P NOP < P OMP < P MPI < P MPI+OMP is the property to
reproduce (the absolute ratios are larger because Python modules are
not dead-code-stripped the way a linked C++ binary is).
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.bench import table1_binary_size


def test_table1_binary_size(benchmark):
    rows = run_once(benchmark, table1_binary_size)
    emit(rows, "Table I — program size per configuration (KiB)")

    for row in rows:
        assert row["H_KiB"] < row["P_KiB"]
        assert row["P_KiB"] < row["P_NOP_KiB"] <= row["P_OMP_KiB"]
        assert row["P_OMP_KiB"] < row["P_MPI+OMP_KiB"]
        assert row["P_MPI_KiB"] < row["P_MPI+OMP_KiB"]
        # Platform programs stay within an L2-cache-like budget (a few MiB).
        assert row["P_MPI+OMP_KiB"] < 4096
