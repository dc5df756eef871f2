"""Property test: the ghost tail's place table is the searchsorted mapping.

``DenseImage.number`` puts the pushed halo rows at the tail's start and
moves only the rows they displace; ``ghost_index`` then maps a halo row
to its place with one ``take`` of a dense table.  The reference below is
the mapping the table replaced — the moved rows sorted, looked up with
``np.searchsorted`` — kept here to pin that the table reads the same
rows, over random numberings, renumberings and halo rows reserved after
a numbering (which sit at their own row).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memory.env import DenseImage

GHOST_BASE = 11


def reference_index(keys, vals, halo):
    """The searchsorted mapping: ``keys`` (sorted) moved to ``vals``."""
    if keys is None:
        return GHOST_BASE + halo
    at = np.searchsorted(keys, halo).clip(max=keys.size - 1)
    return GHOST_BASE + np.where(keys[at] == halo, vals[at], halo)


def reference_number(runs):
    """``(sorted keys, places)`` of a numbering, or ``(None, None)``."""
    pushed = np.concatenate([np.empty(0, dtype=np.intp), *runs])
    kept = np.zeros(pushed.size, dtype=bool)
    kept[pushed[pushed < pushed.size]] = True
    keys = np.concatenate([pushed, np.flatnonzero(~kept)])
    places = np.concatenate([np.arange(pushed.size), np.sort(pushed[pushed >= pushed.size])])
    order = np.argsort(keys)
    return (keys[order], places[order]) if keys.size else (None, None)


@st.composite
def numberings(draw, halo_rows):
    """Disjoint sorted runs of rows below ``halo_rows``, in any run order."""
    rows = draw(st.lists(st.integers(0, max(halo_rows - 1, 0)), unique=True,
                         max_size=halo_rows))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    return [np.array(sorted(rows[lo:hi]), dtype=np.intp)
            for lo, hi in zip([0, *cuts], [*cuts, len(rows)])]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), first=st.integers(0, 48),
       growths=st.lists(st.integers(0, 16), min_size=1, max_size=3))
def test_the_place_table_reads_the_rows_the_searchsorted_mapping_did(data, first, growths):
    image = DenseImage(1, np.float64)
    image.ghost_base, image.halo_rows = GHOST_BASE, first
    keys = vals = None
    for grow in growths:
        if data.draw(st.booleans(), label="renumber"):
            runs = data.draw(numberings(image.halo_rows), label="runs")
            image.number(runs)
            keys, vals = reference_number(runs)
        image.halo_rows += grow  # Buffer-only Blocks reserved after the numbering
        every = np.arange(image.halo_rows)
        assert np.array_equal(image.ghost_index(every), reference_index(keys, vals, every))
        some = np.array(data.draw(st.lists(st.integers(0, max(image.halo_rows - 1, 0)),
                                           max_size=min(image.halo_rows, 12)),
                                  label="halo"), dtype=np.intp)
        assert np.array_equal(image.ghost_index(some), reference_index(keys, vals, some))
        # A numbering is a permutation of the tail: pushed rows first.
        assert sorted(image.ghost_index(every).tolist()) == (GHOST_BASE + every).tolist()
