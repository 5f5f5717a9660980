"""CBT: Counter-Based Tree (Seyedzadeh et al., ISCA 2018).

CBT tracks activations with an adaptive tree of counters per bank.  The
root covers the whole bank; when a node's counter crosses its level
threshold the region splits in half (children inherit the count, which
keeps the bound conservative), concentrating counters on hot regions.
When a maximum-depth (leaf) counter reaches the final threshold, *all
rows of the leaf region* are refreshed and the counter resets — which is
why CBT's refresh cost grows as trees get hot.  All counters clear every
refresh window.

The paper's configuration is a six-level tree with 125 counters and
thresholds growing exponentially from 1K to the RowHammer threshold; the
depth and counter budget are configurable so perf experiments can use
deeper trees (smaller leaf regions) under scaled specs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mitigations.base import MitigationContext, MitigationMechanism
from repro.mitigations.common import effective_nrh


@dataclass
class _Node:
    start: int
    size: int
    level: int
    count: int = 0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class CounterBasedTree(MitigationMechanism):
    """CBT with configurable depth and counter budget."""

    name = "cbt"
    comprehensive_protection = True
    commodity_compatible = False
    scales_with_vulnerability = False
    deterministic_protection = True

    def __init__(
        self,
        levels: int = 6,
        counter_budget: int = 125,
        min_threshold: int | None = None,
        max_refresh_rows: int = 128,
    ) -> None:
        super().__init__()
        self.levels = levels
        self.counter_budget = counter_budget
        self._min_threshold_override = min_threshold
        self.max_refresh_rows = max_refresh_rows
        self._roots: dict[tuple[int, int], _Node] = {}
        self._counters_used: dict[tuple[int, int], int] = {}
        self._thresholds: list[int] = []
        self._next_reset = 0.0
        self.region_refreshes = 0

    def attach(self, context: MitigationContext) -> None:
        super().attach(context)
        final = max(2, int(effective_nrh(context) / 2))
        first = self._min_threshold_override or max(2, final // 32)
        first = min(first, final)
        # Exponential threshold ladder across levels (Section 7: "1K to
        # the RowHammer threshold").
        self._thresholds = []
        for level in range(self.levels):
            if self.levels == 1:
                ratio = 1.0
            else:
                ratio = level / (self.levels - 1)
            value = first * (final / first) ** ratio
            self._thresholds.append(max(2, int(round(value))))
        self._next_reset = context.spec.tREFW

    # ------------------------------------------------------------------
    def _root(self, rank: int, bank: int) -> _Node:
        key = (rank, bank)
        if key not in self._roots:
            self._roots[key] = _Node(0, self.context.spec.rows_per_bank, 0)
            self._counters_used[key] = 1
        return self._roots[key]

    def advance_to(self, now: float) -> float:
        while now >= self._next_reset:
            self._roots.clear()
            self._counters_used.clear()
            self._next_reset += self.context.spec.tREFW
        return self._next_reset

    def on_activate(self, rank: int, bank: int, row: int, thread: int, now: float) -> None:
        key = (rank, bank)
        node = self._root(rank, bank)
        while not node.is_leaf:
            mid = node.start + node.size // 2
            node = node.left if row < mid else node.right
        node.count += 1
        threshold = self._thresholds[min(node.level, self.levels - 1)]
        if node.count < threshold:
            return
        can_split = (
            node.level < self.levels - 1
            and node.size >= 2
            and self._counters_used.get(key, 0) + 2 <= self.counter_budget
        )
        if can_split:
            half = node.size // 2
            # Children inherit the parent count: conservative (an
            # aggressor's count never decreases on a split).
            node.left = _Node(node.start, half, node.level + 1, node.count)
            node.right = _Node(node.start + half, node.size - half, node.level + 1, node.count)
            self._counters_used[key] += 2
        else:
            self._refresh_region(rank, bank, node, now)
            node.count = 0

    def _refresh_region(self, rank: int, bank: int, node: _Node, now: float) -> None:
        """Refresh the leaf region's rows (bounded for simulation cost).

        CBT refreshes every row of the region; for very large regions we
        refresh an evenly-spaced bounded subset plus the region edges —
        the performance cost is modeled by the VREF commands either way.
        """
        rows = range(node.start, node.start + node.size)
        if node.size > self.max_refresh_rows:
            step = node.size // self.max_refresh_rows
            rows = range(node.start, node.start + node.size, step)
        for row in rows:
            self.queue_victim_refresh(rank, bank, row)
        self.region_refreshes += 1
        if self.probe is not None:
            self.probe(
                now,
                "region_refresh",
                self.obs_track,
                rank=rank,
                bank=bank,
                start=node.start,
                size=node.size,
            )
