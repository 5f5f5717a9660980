"""RowBlocker: blacklisting (RowBlocker-BL) plus recent-activation
gating (RowBlocker-HB), Section 3.1 and Figure 2.

An ACT is RowHammer-unsafe iff its row is *both* blacklisted (active CBF
estimate ≥ NBL) *and* recently activated (within tDelay, per the history
buffer).  Unsafe ACTs are delayed until the row's last activation ages
past tDelay, bounding every row's long-run activation rate below
NRH*/tREFW.

The class also measures what Section 8.4 reports: the false-positive
rate (activations delayed only because of Bloom aliasing) and the delay
distribution experienced by delayed activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import BlockHammerConfig
from repro.core.dcbf import DualCountingBloomFilter
from repro.core.history import ActivationHistoryBuffer
from repro.utils.rng import DeterministicRng


@dataclass
class DelayStats:
    """Delay accounting for Section 8.4."""

    total_acts: int = 0
    delayed_acts: int = 0
    false_positive_acts: int = 0
    delays_ns: list[float] = field(default_factory=list)
    false_positive_delays_ns: list[float] = field(default_factory=list)

    @property
    def false_positive_rate(self) -> float:
        """Mistakenly-delayed activations as a fraction of all ACTs."""
        return self.false_positive_acts / self.total_acts if self.total_acts else 0.0


class RowBlockerBL:
    """Per-bank blacklisting via a dual counting Bloom filter.

    Blacklist queries are memoized against a version counter that
    advances on every insertion and rotation: the scheduler re-queries
    the same head-of-queue row many times between activations of a bank,
    and the answer cannot change while the bank's filter is untouched.
    """

    def __init__(self, config: BlockHammerConfig, rng: DeterministicRng) -> None:
        self.config = config
        self.dcbf = DualCountingBloomFilter(
            size=config.cbf_size,
            epoch_ns=config.epoch_ns,
            hash_count=config.hash_count,
            counter_max=config.counter_max,
            rng=rng,
            track_exact=True,
        )
        self._version = 0
        self._memo: dict[int, tuple[int, bool]] = {}

    def maybe_rotate(self, now: float) -> None:
        if self.dcbf.maybe_rotate(now):
            self._version += 1
            self._memo.clear()

    def insert(self, row: int) -> None:
        self.dcbf.insert(row)
        self._version += 1

    def blacklisted(self, row: int) -> bool:
        """Active-filter estimate reached the blacklisting threshold."""
        cached = self._memo.get(row)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        result = self.dcbf.count(row) >= self.config.nbl
        self._memo[row] = (self._version, result)
        return result

    def truly_over_threshold(self, row: int) -> bool:
        """Exact (aliasing-free) count reached NBL — used to classify
        false positives for the Section 8.4 statistics."""
        return self.dcbf.exact_count(row) >= self.config.nbl


class RowBlocker:
    """The full RowBlocker: per-bank BLs plus per-rank history buffers."""

    #: Trace probe + Perfetto track (the channel), forwarded by
    #: BlockHammer.bind_probe when a telemetry bus is attached.  The
    #: rotation event is emitted here, not in the mechanism wrapper,
    #: because rotations also trigger inside ``allowed_at`` and
    #: ``on_activate`` — not only from the controller's time advance.
    probe = None
    obs_track = 0

    def __init__(
        self,
        config: BlockHammerConfig,
        num_ranks: int,
        banks_per_rank: int,
        rows_per_bank: int,
        rng: DeterministicRng | None = None,
    ) -> None:
        rng = rng or DeterministicRng(0)
        self.config = config
        self.rows_per_bank = rows_per_bank
        self.bls = [
            [
                RowBlockerBL(config, rng.fork(f"bl-{r}-{b}"))
                for b in range(banks_per_rank)
            ]
            for r in range(num_ranks)
        ]
        # Flat view indexed by rank * banks_per_rank + bank: allowed_at
        # runs once per scheduler candidate, where the double list hop
        # is measurable.
        self._banks_per_rank = banks_per_rank
        self._flat_bls = [bl for rank_bls in self.bls for bl in rank_bls]
        self.hbs = [
            ActivationHistoryBuffer(config.t_delay_ns, config.t_faw_ns)
            for _ in range(num_ranks)
        ]
        self.stats = DelayStats()
        # (rank, bank, row) -> (first-unsafe-query time, was-false-positive)
        self._blocked_since: dict[tuple[int, int, int], tuple[float, bool]] = {}
        self._next_rotate = config.epoch_ns
        #: Blocked-verdict epoch: advances on every D-CBF rotation, the
        #: only event that can invalidate verdicts en masse (blacklist
        #: entries expire; everything else is per-bank and reported
        #: through the controller's dirty-bank tracking).  The
        #: incremental scheduler's bank caches expire at the rotation
        #: *time* (``next_rotate`` via ``act_block_stable``); this
        #: counter exists so tests can observe rotations directly.
        self.verdict_epoch = 0

    # ------------------------------------------------------------------
    @property
    def next_rotate(self) -> float:
        """Next epoch-rotation deadline: until then, a blacklisted row
        stays blacklisted and its history entry cannot age out early, so
        blocked verdicts from :meth:`allowed_at` are stable — and a safe
        row can only turn unsafe through an ACT on its own bank (the
        per-bank Bloom filter is the only path to blacklisting)."""
        return self._next_rotate

    def _rank_row_id(self, bank: int, row: int) -> int:
        """Rank-unique row ID stored in the history buffer."""
        return bank * self.rows_per_bank + row

    def maybe_rotate(self, now: float) -> None:
        """Advance every bank's D-CBF epoch clock to ``now``.

        A single shared deadline gates the per-bank loop: all D-CBFs
        follow the same epoch schedule, so this is O(1) off-boundary.
        """
        if now < self._next_rotate:
            return
        for rank_bls in self.bls:
            for bl in rank_bls:
                bl.maybe_rotate(now)
        self._next_rotate = self.bls[0][0].dcbf.next_clear_at()
        self.verdict_epoch += 1
        if self.probe is not None:
            self.probe(
                now,
                "dcbf_rotate",
                self.obs_track,
                epoch=self.verdict_epoch,
                next_rotate=self._next_rotate,
            )

    # ------------------------------------------------------------------
    def allowed_at(self, rank: int, bank: int, row: int, thread: int, now: float) -> float:
        """Earliest RowHammer-safe issue time for this ACT (Figure 2).

        Safe immediately unless the row is blacklisted *and* recently
        activated; then safe once the last activation ages past tDelay.
        """
        if now >= self._next_rotate:
            self.maybe_rotate(now)
        bl = self._flat_bls[rank * self._banks_per_rank + bank]
        if not bl.blacklisted(row):
            return now
        allowed = self.hbs[rank].allowed_at(self._rank_row_id(bank, row), now)
        if allowed > now:
            key = (rank, bank, row)
            if key not in self._blocked_since:
                # Classify the block as a Bloom-aliasing false positive
                # at first-block time (Section 8.4 methodology).
                false_positive = not bl.truly_over_threshold(row)
                self._blocked_since[key] = (now, false_positive)
        return allowed

    def is_safe(self, rank: int, bank: int, row: int, thread: int, now: float) -> bool:
        """Convenience wrapper over :meth:`allowed_at`."""
        return self.allowed_at(rank, bank, row, thread, now) <= now

    def blacklist_occupancy(self) -> int:
        """Rows at/above the blacklisting threshold in the active D-CBF
        window, summed over banks (exact shadow counts, no aliasing)."""
        nbl = self.config.nbl
        return sum(bl.dcbf.exact_over(nbl) for bl in self._flat_bls)

    # ------------------------------------------------------------------
    def on_activate(self, rank: int, bank: int, row: int, now: float) -> bool:
        """Record an issued ACT; returns True if the row was blacklisted
        at issue time (feeds AttackThrottler's RHLI counters)."""
        if now >= self._next_rotate:
            self.maybe_rotate(now)
        bl = self._flat_bls[rank * self._banks_per_rank + bank]
        was_blacklisted = bl.blacklisted(row)
        bl.insert(row)
        self.hbs[rank].record(self._rank_row_id(bank, row), now)
        self.stats.total_acts += 1

        key = (rank, bank, row)
        blocked = self._blocked_since.pop(key, None)
        if blocked is not None:
            first_blocked, false_positive = blocked
            delay = now - first_blocked
            self.stats.delayed_acts += 1
            self.stats.delays_ns.append(delay)
            if false_positive:
                self.stats.false_positive_acts += 1
                self.stats.false_positive_delays_ns.append(delay)
        return was_blacklisted
