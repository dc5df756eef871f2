"""Bulk point location over the Env's data-holding Blocks.

:meth:`Env.locate_boxes <repro.memory.env.Env.locate_boxes>` answers,
for many addresses at once, which Block a root search would find: the
first Block in root search order whose box holds the address.  A
:class:`BoxGrid` makes that cost O(1) per address instead of O(Blocks):
the boxes' span is cut into equal cells, each listing the boxes that
meet it.  A cell every listed box covers whole is *pure*: its answer is
read from a table.  Only the addresses of the other cells — cut by a box
edge — are compared with the few boxes their cell lists.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["BoxGrid"]

#: Most cells a grid has per box it lists.
_CELLS_PER_BOX = 4
#: Most (address, listed box) pairs one comparison chunk holds.
_CHUNK_PAIRS = 1 << 16


class BoxGrid:
    """Equal cells over the boxes ``[lo, hi)`` (one row per box, listed in
    root search order; the first ``n_joint`` boxes are the data joint's).

    The cell is the median box extent, doubled until there are at most
    :data:`_CELLS_PER_BOX` cells per box, and the grid is aligned to the
    first box: a lattice of equal Blocks (SGrid, USGrid) makes every cell
    inside the lattice pure, one Block and the boundary boxes that span
    the domain.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, n_joint: int) -> None:
        self.lo, self.hi, self.n_joint = lo, hi, n_joint
        cell = np.maximum(np.median(hi - lo, axis=0).astype(np.int64), 1)
        low = lo.min(axis=0)
        while True:
            origin = lo[0] - -(-(lo[0] - low) // cell) * cell
            dims = np.maximum(-(-(hi.max(axis=0) - origin) // cell), 1)
            if math.prod(dims.tolist()) <= _CELLS_PER_BOX * len(lo):
                break
            cell *= 2
        self.origin, self.cell, self.dims = origin, cell, dims
        cells = np.arange(math.prod(dims.tolist())).reshape(dims.tolist())

        def span(first, end) -> np.ndarray:
            return cells[tuple(slice(a, b) for a, b in zip(first, end))].ravel()

        # Per box, the cells it meets and the cells it covers whole.
        meets = [span(f, e) for f, e in zip(((lo - origin) // cell).tolist(),
                                             ((hi - 1 - origin) // cell + 1).tolist())]
        covered = np.zeros(cells.size, dtype=np.intp)
        for f, e in zip((-((origin - lo) // cell)).tolist(), ((hi - origin) // cell).tolist()):
            covered[span(f, e)] += 1
        met = np.zeros(cells.size, dtype=np.intp)
        for cells_met in meets:
            met[cells_met] += 1
        #: Per cell, the boxes that meet it, ascending, padded with -1.
        self.listed = np.full((cells.size, max(int(met.max()), 1)), -1, dtype=np.intp)
        met[:] = 0
        for position, cells_met in enumerate(meets):
            self.listed[cells_met, met[cells_met]] = position
            met[cells_met] += 1
        #: Per cell: whether every box that meets it covers it whole, then
        #: its first box and how many of its boxes are the joint's / any.
        self.pure = met == covered
        self.first = self.listed[:, 0]
        self.in_joint = np.count_nonzero((self.listed >= 0) & (self.listed < n_joint), axis=1)
        self.met = met

    def locate(self, addresses: np.ndarray, contest_all: bool) -> Tuple[np.ndarray, np.ndarray]:
        """``(first, several)`` of an ``(n, ndim)`` address array: per
        address, the position of the first box holding it (-1: none), and
        whether more than one box holding it is contested — under the
        joint, or any box when ``contest_all``."""
        # Axis by axis (an (n, ndim) operand runs n inner loops of ndim):
        # the flat index of each address's cell, and whether it is off the grid.
        flat = np.zeros(len(addresses), dtype=np.intp)
        outside = np.zeros(len(addresses), dtype=bool)
        grid = zip(self.origin.tolist(), self.cell.tolist(), self.dims.tolist())
        for d, (origin, cell, n) in enumerate(grid):
            at = (addresses[:, d] - origin) // cell
            outside |= (at < 0) | (at >= n)
            flat *= n
            flat += np.clip(at, 0, n - 1, out=at)
        first = self.first[flat]
        count = (self.met if contest_all else self.in_joint)[flat]
        first[outside] = -1
        count[outside] = 0
        cut = np.flatnonzero(~(self.pure[flat] | outside))  # cells a box edge cuts
        contested = len(self.lo) if contest_all else self.n_joint
        chunk = max(1, _CHUNK_PAIRS // self.listed.shape[1])
        for s in range(0, cut.size, chunk):
            rows = cut[s : s + chunk]
            a, boxes = addresses[rows], self.listed[flat[rows]]
            hit = boxes >= 0
            for d in range(addresses.shape[1]):
                c = a[:, d, None]
                hit &= (self.lo[boxes, d] <= c) & (c < self.hi[boxes, d])
            # A cell lists its boxes in search order, unused slots (-1) last.
            held = hit.any(axis=1)
            first[rows] = np.where(held, boxes[np.arange(rows.size), hit.argmax(axis=1)], -1)
            count[rows] = np.count_nonzero(hit & (boxes < contested), axis=1)
        return first, count > 1
