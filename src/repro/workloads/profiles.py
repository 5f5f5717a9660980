"""Table 8: the 30 benign applications used in the paper's evaluation.

Each profile records the application's published MPKI (LLC misses per
kilo-instruction) and RBCPKI (row-buffer conflicts per kilo-instruction)
— RBCPKI being "an indicator of row activation rate, which is the key
workload property that triggers RowHammer mitigation mechanisms"
(Section 7) — plus generator knobs our synthesizer uses to hit that
operating point (working-set rows per bank, bank spread, write
fraction).

Applications whose MPKI column is "-" in Table 8 (non-temporal copies,
YCSB disk I/O, network accelerators) access memory directly; for those
we assign an effective MPKI consistent with their RBCPKI and access
nature (documented per entry).  These assignments are calibration
choices, validated by ``benchmarks/bench_table8_workloads.py``, which
regenerates the table from simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.utils.validation import ConfigError, require


class Category(enum.Enum):
    """Table 8 grouping by RBCPKI: L (<1), M (1..5), H (>5)."""

    L = "L"
    M = "M"
    H = "H"


@dataclass(frozen=True)
class WorkloadProfile:
    """One benign application's memory behaviour."""

    name: str
    suite: str
    category: Category
    mpki: float  # effective LLC-miss rate driving the generator
    rbcpki: float  # target row-buffer conflict rate
    table_mpki: float | None = None  # Table 8's MPKI column (None = "-")
    working_set_rows: int = 512  # distinct rows touched per bank
    banks_used: int = 16
    write_fraction: float = 0.2
    streaming: bool = False  # sequential row sweep (non-temporal copies)
    #: Pin the working set to one memory channel (None = spread rows
    #: across channels).  Channel-affine profiles model applications
    #: whose pages land on a single channel — the skewed-load scenarios
    #: a channel-sharded memory system must be exercised against.
    channel_affinity: int | None = None

    def __post_init__(self) -> None:
        require(self.mpki >= 0, f"{self.name}: mpki must be >= 0")
        require(self.rbcpki >= 0, f"{self.name}: rbcpki must be >= 0")
        require(self.working_set_rows >= 1, f"{self.name}: working_set_rows must be >= 1")
        require(self.banks_used >= 1, f"{self.name}: banks_used must be >= 1")
        require(
            0 <= self.write_fraction <= 1, f"{self.name}: write_fraction must be in [0, 1]"
        )
        require(
            self.channel_affinity is None or self.channel_affinity >= 0,
            f"{self.name}: channel_affinity must be None or >= 0",
        )

    def pinned_to(self, channel: int) -> "WorkloadProfile":
        """This profile with its working set confined to ``channel``
        (modulo the system's channel count at trace-build time)."""
        from dataclasses import replace

        return replace(self, channel_affinity=channel)

    @property
    def conflict_fraction(self) -> float:
        """Fraction of accesses that should open a new row."""
        if self.mpki <= 0.0:
            return 0.0
        return min(1.0, self.rbcpki / self.mpki)

    @property
    def gap_mean(self) -> float:
        """Mean compute instructions between accesses."""
        if self.mpki <= 0.0:
            return 1.0e9
        return max(0.0, 1000.0 / self.mpki - 1.0)


def _p(name, suite, cat, mpki, rbcpki, table_mpki, ws=512, banks=16, wf=0.2, stream=False):
    return WorkloadProfile(
        name=name,
        suite=suite,
        category=cat,
        mpki=mpki,
        rbcpki=rbcpki,
        table_mpki=table_mpki,
        working_set_rows=ws,
        banks_used=banks,
        write_fraction=wf,
        streaming=stream,
    )


#: The 30 applications of Table 8 with their published MPKI/RBCPKI.
#: For "-" MPKI rows the effective MPKI is chosen as follows:
#:   * movnti.rowmaj — streaming row-major copy: high bandwidth, almost
#:     all row hits (MPKI 40, RBCPKI 0.2).
#:   * movnti.colmaj — streaming column-major copy: every access opens a
#:     new row (MPKI ~= RBCPKI).
#:   * ycsb.* — disk I/O with moderate locality (MPKI ~= 2.5x RBCPKI).
#:   * freescale* — network accelerators: near-random rows, almost every
#:     access conflicts (MPKI ~= 1.05x RBCPKI).
TABLE8_PROFILES: tuple[WorkloadProfile, ...] = (
    # --- L: RBCPKI < 1 ------------------------------------------------
    _p("444.namd", "SPEC2006", Category.L, 0.1, 0.03, 0.1, ws=64),
    _p("481.wrf", "SPEC2006", Category.L, 0.1, 0.04, 0.1, ws=64),
    _p("435.gromacs", "SPEC2006", Category.L, 0.2, 0.04, 0.2, ws=64),
    _p("456.hmmer", "SPEC2006", Category.L, 0.1, 0.04, 0.1, ws=64),
    _p("464.h264ref", "SPEC2006", Category.L, 0.1, 0.05, 0.1, ws=96),
    _p("447.dealII", "SPEC2006", Category.L, 0.1, 0.05, 0.1, ws=96),
    _p("403.gcc", "SPEC2006", Category.L, 0.2, 0.1, 0.2, ws=128),
    _p("401.bzip2", "SPEC2006", Category.L, 0.3, 0.1, 0.3, ws=128),
    _p("445.gobmk", "SPEC2006", Category.L, 0.4, 0.1, 0.4, ws=128),
    _p("458.sjeng", "SPEC2006", Category.L, 0.3, 0.2, 0.3, ws=128),
    _p("movnti.rowmaj", "NonTempCopy", Category.L, 40.0, 0.2, None, ws=256, wf=0.5, stream=True),
    _p("ycsb.A", "YCSB", Category.L, 1.0, 0.4, None, ws=256, wf=0.5),
    # --- M: 1 <= RBCPKI <= 5 -------------------------------------------
    _p("ycsb.F", "YCSB", Category.M, 2.5, 1.0, None, ws=384, wf=0.5),
    _p("ycsb.C", "YCSB", Category.M, 2.5, 1.0, None, ws=384, wf=0.0),
    _p("ycsb.B", "YCSB", Category.M, 2.8, 1.1, None, ws=384, wf=0.1),
    _p("471.omnetpp", "SPEC2006", Category.M, 1.3, 1.2, 1.3, ws=384),
    _p("483.xalancbmk", "SPEC2006", Category.M, 8.5, 2.4, 8.5, ws=512),
    _p("482.sphinx3", "SPEC2006", Category.M, 9.6, 3.7, 9.6, ws=512),
    _p("436.cactusADM", "SPEC2006", Category.M, 16.5, 3.7, 16.5, ws=512),
    _p("437.leslie3d", "SPEC2006", Category.M, 9.9, 4.6, 9.9, ws=512),
    _p("473.astar", "SPEC2006", Category.M, 5.6, 4.8, 5.6, ws=512),
    # --- H: RBCPKI > 5 --------------------------------------------------
    _p("450.soplex", "SPEC2006", Category.H, 10.2, 7.1, 10.2, ws=768),
    _p("462.libquantum", "SPEC2006", Category.H, 26.9, 7.7, 26.9, ws=768),
    _p("433.milc", "SPEC2006", Category.H, 13.6, 10.9, 13.6, ws=1024),
    _p("459.GemsFDTD", "SPEC2006", Category.H, 20.6, 15.3, 20.6, ws=1024),
    _p("470.lbm", "SPEC2006", Category.H, 36.5, 24.7, 36.5, ws=1024),
    _p("429.mcf", "SPEC2006", Category.H, 201.7, 62.3, 201.7, ws=2048),
    _p("movnti.colmaj", "NonTempCopy", Category.H, 31.0, 30.9, None, ws=2048, wf=0.5, stream=True),
    _p("freescale1", "Network", Category.H, 354.0, 336.8, None, ws=4096, wf=0.3),
    _p("freescale2", "Network", Category.H, 389.0, 370.4, None, ws=4096, wf=0.3),
)


def profile_by_name(name: str) -> WorkloadProfile:
    """Look up a Table 8 profile by application name."""
    for profile in TABLE8_PROFILES:
        if profile.name == name:
            return profile
    raise ConfigError(f"unknown workload profile: {name!r}")
