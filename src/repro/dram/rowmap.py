"""In-DRAM row address mappings (Section 2.3).

DRAM vendors internally remap memory-controller-visible (logical) row
addresses to physical rows for density/yield reasons, and keep the
mapping proprietary.  Physical adjacency — which determines RowHammer
victims — is therefore unknown to the controller.

We model three schemes:

* :class:`LinearRowMapping` — identity; logical row k is physical row k.
* :class:`MirroredRowMapping` — adjacent pairs swapped within blocks, a
  simplified version of the address mirroring used in real chips.
* :class:`ScrambledRowMapping` — an affine permutation
  ``phys = (a * logical + b) mod R`` with odd ``a``; invertible, cheap,
  and destroys logical adjacency, standing in for proprietary remapping.

Reactive-refresh mitigations need the logical neighbours of an
aggressor: on real systems that requires the proprietary mapping.  Each
mechanism is handed the :class:`RowMapping` it *assumes*.  By default
that is the device's true mapping (modeling vendor knowledge);
``SystemConfig.assumed_rowmap_kind`` names another kind instead, which
the row-map ablation uses to hand Graphene a linear mapping on a
scrambled chip and demonstrate the compatibility challenge.
BlockHammer never consults a mapping.

:data:`ROWMAP_KINDS` maps each kind name to its constructor; configs
validate against it when they are built.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.utils.validation import require


class RowMapping:
    """Base class: a bijection between logical and physical row IDs."""

    def __init__(self, rows: int) -> None:
        require(rows >= 2, "row mapping needs at least 2 rows")
        self.rows = rows

    def to_physical(self, logical: int) -> int:
        """Translate a logical row to its physical row."""
        raise NotImplementedError

    def to_logical(self, physical: int) -> int:
        """Translate a physical row back to its logical row."""
        raise NotImplementedError

    def physical_neighbors(self, logical: int, distance: int) -> list[int]:
        """Physical rows within ``distance`` of ``logical``'s physical row.

        Returns physical row IDs on both sides, clipped to the array.
        """
        p = self.to_physical(logical)
        out = []
        for k in range(1, distance + 1):
            if p - k >= 0:
                out.append(p - k)
            if p + k < self.rows:
                out.append(p + k)
        return out

    def logical_neighbors(self, logical: int, distance: int) -> list[int]:
        """Logical addresses of the physical neighbors of ``logical``.

        This is what a reactive-refresh mechanism must compute to refresh
        victims: it requires knowing the full mapping.
        """
        return [self.to_logical(p) for p in self.physical_neighbors(logical, distance)]


class LinearRowMapping(RowMapping):
    """Identity mapping: logical row == physical row."""

    def to_physical(self, logical: int) -> int:
        return logical

    def to_logical(self, physical: int) -> int:
        return physical


class MirroredRowMapping(RowMapping):
    """Swap odd/even row pairs inside fixed-size blocks.

    With ``block=2`` this swaps each even/odd pair (a common mirroring
    artifact); larger blocks reverse row order within each block.
    """

    def __init__(self, rows: int, block: int = 2) -> None:
        super().__init__(rows)
        require(block >= 2 and rows % block == 0, "block must divide rows")
        self.block = block

    def to_physical(self, logical: int) -> int:
        base = (logical // self.block) * self.block
        offset = logical - base
        return base + (self.block - 1 - offset)

    def to_logical(self, physical: int) -> int:
        # The block reversal is an involution.
        return self.to_physical(physical)


class ScrambledRowMapping(RowMapping):
    """Affine permutation ``phys = (a * logical + b) mod rows``.

    ``a`` is forced odd so the map is a bijection for power-of-two row
    counts (and we verify invertibility for general counts).
    """

    def __init__(self, rows: int, seed: int = 0xC0FFEE) -> None:
        super().__init__(rows)
        a = (seed % rows) | 1
        # Ensure gcd(a, rows) == 1 so the affine map is a bijection.
        while math.gcd(a, rows) != 1:
            a += 2
            if a >= rows:
                a = 1
        self._a = a
        self._b = (seed >> 16) % rows
        self._a_inv = pow(self._a, -1, rows)

    def to_physical(self, logical: int) -> int:
        return (self._a * logical + self._b) % self.rows

    def to_logical(self, physical: int) -> int:
        return ((physical - self._b) * self._a_inv) % self.rows


#: The one table of row-map kinds: kind -> constructor ``(rows, seed)``.
ROWMAP_KINDS: dict[str, Callable[[int, int], RowMapping]] = {
    "linear": lambda rows, seed: LinearRowMapping(rows),
    "mirrored": lambda rows, seed: MirroredRowMapping(rows),
    "scrambled": lambda rows, seed: ScrambledRowMapping(rows, seed=seed),
}


def check_rowmap_kind(kind: str, field: str = "rowmap_kind") -> None:
    """Raise ``ConfigError`` naming ``field`` unless ``kind`` is a key
    of :data:`ROWMAP_KINDS`."""
    require(
        kind in ROWMAP_KINDS, f"{field} must be one of {sorted(ROWMAP_KINDS)}: {kind!r}"
    )
