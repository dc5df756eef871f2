"""DSL processing system for 2-D unstructured grids ("USGrid").

Unlike the structured grid, every cell of the unstructured grid stores
the *Global Addresses of its neighbours* as part of its data
(§V-B2): the kernel follows those indirections instead of computing
neighbour coordinates arithmetically.  Cell addresses are a 1-D global
index space, and the paper evaluates two layouts with identical
arithmetic but different memory behaviour:

* **CaseC** — consecutive layout with spatial locality (cell index is
  the row-major position, like the structured grid but with indirect
  references);
* **CaseR** — a pseudo-random permutation of the cell indices: no
  spatial locality, violating Assumption III (this is the case where
  MMAT and the platform's communication behave worst).

Cells outside the computational domain live at dedicated addresses
served by a :class:`~repro.memory.block.StaticDataBlock` (Dirichlet
data), exactly as described in the paper.

A cell's position in its Block carries no meaning here (Blocks only cut
the 1-D index space so that pages can travel and tasks share the work),
so batched kernels iterate :meth:`~repro.dsl.base.DslTarget.tile_kernels`
— one kernel per run of consecutive Blocks — and only the per-cell
reference loop, which addresses ``(Block, offset)``, ``block_kernels``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..memory.block import DataBlock, StaticDataBlock
from ..memory.env import Env
from .base import BlockSpec, DslTarget, evaluate_init

__all__ = ["USGrid2DTarget"]


def _case_r_permutation(count: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random permutation used for the CaseR layout."""
    rng = np.random.default_rng(seed)
    return rng.permutation(count)


class USGrid2DTarget(DslTarget):
    """DSL target for 2-D unstructured-grid applications.

    Configuration keys:

    ``region``
        Edge length of the (logically square) domain in cells (default 64).
    ``case``
        ``"C"`` (consecutive, default) or ``"R"`` (random layout).
    ``block_cells``
        Cells per Block in the 1-D cell-index space (default 256;
        the paper uses 256×256 cells per Block).
    ``page_elements``
        Elements per page (default 64).
    ``boundary_value``
        Value of out-of-domain cells (default 0.0).
    ``layout_seed``
        Seed of the CaseR permutation (default 20220329).
    ``init``
        Optional pure function ``(x, y) -> float`` for the initial field,
        under the same contract as :class:`~repro.dsl.sgrid.SGrid2DTarget`'s:
        tried once per Block on the int64 coordinates of its cells
        (integer arithmetic wraps as NumPy's does), called per point with
        Python ints when it cannot take arrays.
    """

    ACCESS_PATTERN = "contiguous"  # overridden to "random" for CaseR
    BYTES_PER_UPDATE = 5 * 8 + 4 * 8  # value reads + neighbour-index reads

    def __init__(self, config: Optional[dict] = None) -> None:
        super().__init__(config)
        self.region: int = int(self.config.get("region", 64))
        self.case: str = str(self.config.get("case", "C")).upper()
        if self.case not in ("C", "R"):
            raise ValueError(f"USGrid case must be 'C' or 'R', got {self.case!r}")
        self.block_cells: int = int(self.config.get("block_cells", 256))
        self.page_elements: int = int(self.config.get("page_elements", 64))
        self.boundary_value: float = float(self.config.get("boundary_value", 0.0))
        self.layout_seed: int = int(self.config.get("layout_seed", 20220329))
        self.init_fn = self.config.get("init")
        self.cell_count = self.region * self.region
        if self.cell_count % self.block_cells != 0:
            raise ValueError(
                f"total cells {self.cell_count} must be a multiple of block_cells "
                f"{self.block_cells}"
            )
        if self.case == "R":
            self.ACCESS_PATTERN = "random"
        #: Mapping grid position (x, y) -> cell index, layout dependent.
        self._cell_index: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def cell_index_map(self) -> np.ndarray:
        """Return the (region, region) array of cell indices for this layout."""
        if self._cell_index is None:
            rowmajor = np.arange(self.cell_count, dtype=np.int64).reshape(
                self.region, self.region
            )
            if self.case == "C":
                self._cell_index = rowmajor
            else:
                perm = _case_r_permutation(self.cell_count, self.layout_seed)
                self._cell_index = perm[rowmajor]
        return self._cell_index

    def boundary_address(self, x: int, y: int) -> int:
        """Cell index used for the out-of-domain neighbour at (x, y).

        The addresses start right after the interior cells; each ring
        position gets its own address (matching Fig. 5's distinct
        negative addresses) even though they all serve the same static
        Dirichlet value.
        """
        n = self.region
        # enumerate the ring positions deterministically
        if y < 0:
            k = x + 1
        elif y >= n:
            k = (n + 2) + x + 1
        elif x < 0:
            k = 2 * (n + 2) + y
        else:  # x >= n
            k = 2 * (n + 2) + n + y
        return self.cell_count + k

    @property
    def boundary_cells(self) -> int:
        return 2 * (self.region + 2) + 2 * self.region

    # ------------------------------------------------------------------
    # Env construction
    # ------------------------------------------------------------------
    def block_specs(self) -> List[BlockSpec]:
        n_blocks = self.cell_count // self.block_cells
        specs = []
        for b in range(n_blocks):
            specs.append(
                BlockSpec(
                    origin=(b * self.block_cells,),
                    shape=(self.block_cells,),
                    logical_key=("usgrid", self.case, b),
                    grid_coords=(b,),
                )
            )
        return specs

    def build_env(self) -> Env:
        env = self.make_env(name=f"usgrid{self.case}{self.region}")
        blocks = self.materialize_blocks(
            env,
            self.block_specs(),
            components=1,
            page_elements=self.page_elements,
        )
        static = StaticDataBlock(
            (self.cell_count,),
            (self.boundary_cells,),
            self.boundary_value,
            name="usgrid-static-boundary",
        )
        env.add_boundary_block(static)
        self._initialise_cells(blocks)
        return env

    def _initialise_cells(self, blocks: List[DataBlock]) -> None:
        """Fill values and neighbour tables of this rank's Data Blocks."""
        index_map = self.cell_index_map()
        n = self.region

        # Invert the layout: cell index -> (x, y).
        positions = np.empty((self.cell_count, 2), dtype=np.int64)
        xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        positions[index_map.reshape(-1)] = np.stack(
            [xs.reshape(-1), ys.reshape(-1)], axis=1
        )

        # Neighbour addresses of every cell from four shifted views of the
        # index map padded with the ring's boundary addresses (the corners
        # of the padding are never a neighbour).
        padded = np.zeros((n + 2, n + 2), dtype=np.int64)
        padded[1:-1, 1:-1] = index_map
        for k in range(n):
            padded[k + 1, 0] = self.boundary_address(k, -1)
            padded[k + 1, -1] = self.boundary_address(k, n)
            padded[0, k + 1] = self.boundary_address(-1, k)
            padded[-1, k + 1] = self.boundary_address(n, k)
        neighbour_of = np.empty((self.cell_count, 4), dtype=np.int64)
        neighbour_of[index_map.reshape(-1)] = np.stack(
            [
                padded[:-2, 1:-1].reshape(-1),  # (x - 1, y)
                padded[2:, 1:-1].reshape(-1),   # (x + 1, y)
                padded[1:-1, :-2].reshape(-1),  # (x, y - 1)
                padded[1:-1, 2:].reshape(-1),   # (x, y + 1)
            ],
            axis=1,
        )

        for block in blocks:
            if block.kind != "data":
                continue
            cells = slice(block.origin[0], block.origin[0] + block.shape[0])
            x, y = positions[cells].T
            values = evaluate_init(self.init_fn, x, y).reshape(-1, 1)
            neighbours = neighbour_of[cells].copy()
            for buf in block.buffer.buffers:
                buf.load_dense(values)
            block.static_fields["neighbors"] = neighbours

    # ------------------------------------------------------------------
    def local_field(self) -> np.ndarray:
        """Assemble this rank's cells back onto the (region, region) grid."""
        assert self.env is not None
        index_map = self.cell_index_map()
        field = np.full((self.region, self.region), np.nan, dtype=np.float64)
        flat = np.full(self.cell_count + self.boundary_cells, np.nan)
        for block in self.env.data_blocks():
            start = block.origin[0]
            count = block.shape[0]
            flat[start : start + count] = self.env.dense_read(block)[:, 0]
        field[...] = flat[index_map]
        return field

    def finalize(self) -> None:
        self.result = self.local_field()
