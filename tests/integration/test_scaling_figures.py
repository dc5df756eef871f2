"""Integration tests for the scaling-figure generators (shape assertions).

Each test runs a miniature version of one evaluation figure and asserts
the qualitative property the paper reports — who wins, in which
direction the curve bends — rather than absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    fig6_overhead,
    fig7_strong_scaling_mpi,
    fig8_weak_scaling_mpi,
    fig9_strong_scaling_omp,
    fig10_weak_scaling_omp,
    fig11_hybrid,
    sgrid_workload,
    usgrid_workload,
)


@pytest.fixture(scope="module")
def tiny_series():
    return {
        "SGrid": sgrid_workload(16, block_size=4),
        "USGrid CaseR": usgrid_workload(16, case="R", block_cells=32),
    }


class TestFig6:
    def test_overhead_rows_structure(self):
        rows = fig6_overhead(
            workloads=[sgrid_workload(16, loops=1)],
            configurations=("serial", "nop"),
            include_mmat=True,
        )
        configs = {row["configuration"] for row in rows}
        assert {"Handwritten", "Platform", "Platform NOP"} <= configs
        handwritten = [r for r in rows if r["configuration"] == "Handwritten"][0]
        assert handwritten["relative_pct"] == 100.0
        platform_rows = [r for r in rows if r["configuration"] != "Handwritten"]
        # The platform has overhead over handwritten code on a single task.
        assert all(r["relative_pct"] > 100.0 for r in platform_rows)

    def test_mmat_reduces_usgrid_overhead(self):
        rows = fig6_overhead(
            workloads=[usgrid_workload(24, block_cells=32, loops=2)],
            configurations=("serial",),
            include_mmat=True,
        )
        without = [r for r in rows if r["mmat"] == "w/o MMAT"][0]
        with_mmat = [r for r in rows if r["mmat"] == "w MMAT"][0]
        # Wall-clock on tiny problems is noisy; allow a small tolerance but
        # MMAT must not make the indirect-access benchmark meaningfully slower.
        assert with_mmat["elapsed_s"] < without["elapsed_s"] * 1.05


class TestStrongScaling:
    def test_fig7_mpi_strong_scaling_is_nearly_linear(self, tiny_series):
        rows = fig7_strong_scaling_mpi(counts=(1, 2, 4), series={"SGrid": tiny_series["SGrid"]})
        by_tasks = {row["tasks"]: row["relative"] for row in rows}
        assert by_tasks[1] == pytest.approx(1.0)
        assert 0.4 < by_tasks[2] < 0.95
        assert 0.2 < by_tasks[4] < 0.7
        assert by_tasks[4] < by_tasks[2] < by_tasks[1]

    def test_fig9_omp_strong_scaling_is_nearly_linear(self, tiny_series):
        rows = fig9_strong_scaling_omp(counts=(1, 4), series={"SGrid": tiny_series["SGrid"]})
        by_tasks = {row["tasks"]: row["relative"] for row in rows}
        assert by_tasks[4] < 0.6


class TestWeakScaling:
    def test_fig8_caser_degrades_more_than_sgrid(self, tiny_series):
        rows = fig8_weak_scaling_mpi(counts=(1, 4), series=tiny_series)
        by_series = {}
        for row in rows:
            by_series.setdefault(row["series"], {})[row["tasks"]] = row["relative"]
        assert by_series["SGrid"][4] >= 0.99  # roughly flat
        assert by_series["USGrid CaseR"][4] > by_series["SGrid"][4]

    def test_fig10_weak_omp_degrades_gradually(self, tiny_series):
        rows = fig10_weak_scaling_omp(counts=(1, 4), series={"SGrid": tiny_series["SGrid"]})
        by_tasks = {row["tasks"]: row["relative"] for row in rows}
        assert 1.0 <= by_tasks[4] < 2.0


class TestHybrid:
    def test_fig11_rows_cover_all_combinations(self, tiny_series):
        combos = ((1, 4), (2, 2), (4, 1))
        rows = fig11_hybrid(combinations=combos, series={"SGrid": tiny_series["SGrid"]})
        seen = {(row["processes"], row["threads"]) for row in rows}
        assert seen == set(combos)
        # 4 tasks in any split beat the single-task baseline.
        assert all(row["relative_pct"] < 100.0 for row in rows)


#: Each row of Figs. 7–11 over ``tiny_series``: ``(modelled_time_s,
#: communication_s, pages_fetched)`` by ``(series, tasks)`` (Fig. 11:
#: ``(series, (processes, threads))``, which has no ``pages_fetched``).
#: The cost model is deterministic in the counts, so a change that moves
#: any of these moved a figure.
PINNED_ROWS = {
    "fig7": {
        ("SGrid", 1): (10.0663296, 0.0, 0),
        ("SGrid", 2): (5.494661904137423, 0.410648576, 16),
        ("SGrid", 4): (2.9784309759999994, 0.410648576, 32),
        ("USGrid CaseR", 1): (25.165823999999997, 0.0, 0),
        ("USGrid CaseR", 2): (13.045457680137423, 0.41169715199999996, 16),
        ("USGrid CaseR", 4): (6.960201727999999, 0.617545728, 48),
    },
    "fig8": {
        ("SGrid", 1): (10.0663296, 0.0, 0),
        ("SGrid", 4): (10.938826752, 0.821297152, 64),
        ("USGrid CaseR", 1): (25.165823999999997, 0.0, 0),
        ("USGrid CaseR", 4): (27.687206911999997, 2.470182912, 192),
    },
    "fig9": {
        ("SGrid", 1): (10.0663296, 0.0, 0),
        ("SGrid", 2): (5.364087676788782, 0.0, 0),
        ("SGrid", 4): (3.0129046210285715, 0.0, 0),
        ("USGrid CaseR", 1): (25.165823999999997, 0.0, 0),
        ("USGrid CaseR", 2): (13.090474993817352, 0.0, 0),
        ("USGrid CaseR", 4): (7.052738396571428, 0.0, 0),
    },
    "fig10": {
        ("SGrid", 1): (10.0663296, 0.0, 0),
        ("SGrid", 4): (12.048873484114285, 0.0, 0),
        ("USGrid CaseR", 1): (25.165823999999997, 0.0, 0),
        ("USGrid CaseR", 4): (28.208208586285714, 0.0, 0),
    },
    "fig11": {
        ("SGrid", (1, 4)): (3.0147046210285713, 0.0),
        ("SGrid", (2, 2)): (3.144481716342857, 0.410648576),
        ("SGrid", (4, 1)): (2.9784309759999994, 0.410648576),
        ("USGrid CaseR", (1, 4)): (7.054538396571428, 0.0),
        ("USGrid CaseR", (2, 2)): (7.008723950857143, 0.41169715199999996),
        ("USGrid CaseR", (4, 1)): (6.960201727999999, 0.617545728),
    },
}


class TestPinnedRows:
    """Every figure row's modelled time, communication term and paper
    pages, to 1e-12: a refactor of the counters or the cost model that
    keeps these keeps the figures."""

    @pytest.mark.parametrize("figure", sorted(PINNED_ROWS))
    def test_rows_match_the_pinned_values(self, figure, tiny_series):
        if figure == "fig11":
            rows = fig11_hybrid(combinations=((1, 4), (2, 2), (4, 1)), series=tiny_series)
            got = {
                (row["series"], (row["processes"], row["threads"])):
                    (row["modelled_time_s"], row["communication_s"])
                for row in rows
            }
        else:
            make, counts = {
                "fig7": (fig7_strong_scaling_mpi, (1, 2, 4)),
                "fig8": (fig8_weak_scaling_mpi, (1, 4)),
                "fig9": (fig9_strong_scaling_omp, (1, 2, 4)),
                "fig10": (fig10_weak_scaling_omp, (1, 4)),
            }[figure]
            got = {
                (row["series"], row["tasks"]):
                    (row["modelled_time_s"], row["communication_s"], row["pages_fetched"])
                for row in make(counts=counts, series=tiny_series)
            }
        expected = PINNED_ROWS[figure]
        assert set(got) == set(expected)
        for key, values in expected.items():
            assert got[key] == pytest.approx(values, rel=1e-12, abs=0.0), key
