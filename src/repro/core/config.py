"""BlockHammer configuration and the paper's parameter derivations.

Implements the three governing equations:

* **Eq. 3 (many-sided attacks, Section 4)** — the effective threshold
  ``NRH* = NRH / (2 · Σ_{k=1..r_blast} c_k)`` with ``c_k = decay^(k-1)``;
  double-sided evaluation uses r_blast = 1 so NRH* = NRH / 2, and the
  paper's worst case (r_blast = 6, decay = 0.5) gives NRH* ≈ 0.2539·NRH.
* **Eq. 1 (Section 3.1.2)** — the blacklisted-row delay
  ``tDelay = (tCBF − NBL·tRC) / ((tCBF/tREFW)·NRH* − NBL)``,
  which evenly spreads the activations remaining after an NBL burst over
  the rest of a CBF lifetime (7.7 µs for the Table 1 configuration).
* **Eq. 2 (Section 3.2.1)** — the RHLI denominator
  ``NRH*·(tCBF/tREFW) − NBL``: the most additional activations a
  blacklisted row could receive in a CBF lifetime.

:meth:`BlockHammerConfig.for_nrh` reproduces Table 7's CBF-size/NBL
scaling rule (NBL = NRH/4; CBF grows as NRH shrinks to keep the false
positive rate low at reduced blacklisting thresholds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.dram.rowhammer import impact_sum
from repro.dram.spec import DramSpec
from repro.utils.units import MS
from repro.utils.validation import require


@dataclass(frozen=True)
class BlockHammerConfig:
    """All BlockHammer tunables plus the chip parameters they derive from.

    The six chip parameters BlockHammer needs are all publicly available
    (Section 9 property 2): tREFW, tRC, tFAW from datasheets; NRH, blast
    radius, and blast impact factors from characterization studies.
    """

    nrh: int = 32768
    blast_radius: int = 1
    blast_decay: float = 0.5
    t_refw_ns: float = 64.0 * MS
    t_rc_ns: float = 46.25
    t_faw_ns: float = 35.0
    t_cbf_ns: float = 64.0 * MS
    cbf_size: int = 1024
    nbl: int = 8192
    hash_count: int = 4
    base_quota: int = 16

    def __post_init__(self) -> None:
        require(self.nrh >= 2, "NRH must be >= 2")
        require(self.nbl >= 1, "NBL must be >= 1")
        require(self.cbf_size >= 2, "CBF size must be >= 2")
        require(self.hash_count >= 1, "need at least one hash function")
        require(self.t_cbf_ns > 0 and self.t_refw_ns > 0, "windows must be positive")
        require(self.nbl < self.nrh_star, "NBL must be below NRH*")
        budget = (self.t_cbf_ns / self.t_refw_ns) * self.nrh_star
        require(budget > self.nbl, "CBF lifetime activation budget must exceed NBL")

    # ------------------------------------------------------------------
    # Eq. 3: many-sided effective threshold.
    # ------------------------------------------------------------------
    @cached_property
    def nrh_star(self) -> float:
        """Effective per-row threshold after the many-sided correction."""
        return self.nrh / (2.0 * impact_sum(self.blast_radius, self.blast_decay))

    # ------------------------------------------------------------------
    # Eq. 1: blacklisted-row delay.
    # ------------------------------------------------------------------
    @cached_property
    def t_delay_ns(self) -> float:
        """Minimum spacing enforced between ACTs to a blacklisted row."""
        budget = (self.t_cbf_ns / self.t_refw_ns) * self.nrh_star - self.nbl
        return (self.t_cbf_ns - self.nbl * self.t_rc_ns) / budget

    @cached_property
    def epoch_ns(self) -> float:
        """Epoch length: half a CBF lifetime (each filter lives 2 epochs)."""
        return self.t_cbf_ns / 2.0

    # ------------------------------------------------------------------
    # Derived sizing.
    # ------------------------------------------------------------------
    @cached_property
    def history_entries(self) -> int:
        """RowBlocker-HB size: worst-case ACTs within tDelay (via tFAW)."""
        return max(1, math.ceil(4.0 * self.t_delay_ns / self.t_faw_ns))

    @cached_property
    def counter_bits(self) -> int:
        """CBF counter width: enough to count to NBL plus one spare bit."""
        return max(1, math.ceil(math.log2(self.nbl + 1))) + 1

    @cached_property
    def counter_max(self) -> int:
        """Saturation value of a CBF counter."""
        return (1 << self.counter_bits) - 1

    # ------------------------------------------------------------------
    # Eq. 2: RHLI normalization.
    # ------------------------------------------------------------------
    @cached_property
    def rhli_denominator(self) -> float:
        """Max blacklisted-row ACTs per CBF lifetime (Eq. 2 denominator)."""
        return self.nrh_star * (self.t_cbf_ns / self.t_refw_ns) - self.nbl

    @cached_property
    def throttler_counter_max(self) -> int:
        """AttackThrottler counters saturate at NRH*·(tCBF/tREFW)."""
        return max(1, int(self.nrh_star * (self.t_cbf_ns / self.t_refw_ns)))

    # ------------------------------------------------------------------
    # Table 7 presets and scaling.
    # ------------------------------------------------------------------
    @classmethod
    def for_nrh(
        cls,
        nrh: int,
        spec: DramSpec | None = None,
        blast_radius: int = 1,
        blast_decay: float = 0.5,
        base_quota: int = 16,
        max_cbf_size: int = 8192,
    ) -> "BlockHammerConfig":
        """Configuration for a given RowHammer threshold (Table 7 rule).

        ``NBL = NRH / 4`` and ``CBF size = max(1K, 8M / NRH)`` reproduce
        every row of Table 7: (32K → 1K/8K), (16K → 1K/4K), (8K → 1K/2K),
        (4K → 2K/1K), (2K → 4K/512), (1K → 8K/256).  ``max_cbf_size``
        caps the growth at the paper's largest configuration (relevant
        only to scaled-window simulations, whose per-epoch insert counts
        shrink with the window).
        """
        require(nrh >= 8, "NRH too small to configure BlockHammer")
        spec = spec or DramSpec()
        nbl = max(2, nrh // 4)
        cbf_size = min(max_cbf_size, max(1024, (8 * 1024 * 1024) // nrh))
        return cls(
            nrh=nrh,
            blast_radius=blast_radius,
            blast_decay=blast_decay,
            t_refw_ns=spec.tREFW,
            t_rc_ns=spec.tRC,
            t_faw_ns=spec.tFAW,
            t_cbf_ns=spec.tREFW,
            cbf_size=cbf_size,
            nbl=nbl,
            base_quota=base_quota,
        )

    def summary(self) -> dict[str, float]:
        """Table 1-style summary of configured and derived parameters."""
        return {
            "NRH": self.nrh,
            "NRH*": self.nrh_star,
            "NBL": self.nbl,
            "tCBF_ms": self.t_cbf_ns / MS,
            "tDelay_us": self.t_delay_ns / 1000.0,
            "CBF_size": self.cbf_size,
            "hash_count": self.hash_count,
            "history_entries": self.history_entries,
            "counter_bits": self.counter_bits,
        }
