"""System configuration (Table 5 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.address import MappingScheme
from repro.dram.rowhammer import DisturbanceProfile
from repro.dram.rowmap import ROWMAP_KINDS, RowMapping, check_rowmap_kind
from repro.dram.spec import DDR4_2400, DramSpec
from repro.cpu.core import CoreParams
from repro.mem.controller import ControllerConfig


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`~repro.sim.system.System`.

    Defaults mirror the paper's Table 5: 3.2 GHz 4-wide cores, 64-entry
    read/write queues with FR-FCFS and MOP address mapping, one rank of
    16 banks of DDR4.
    """

    #: ``spec.channels`` sets how many memory channels the system
    #: instantiates (one controller + DRAM device shard + mitigation
    #: instance per channel).
    spec: DramSpec = DDR4_2400
    mapping_scheme: MappingScheme = MappingScheme.MOP
    mop_run: int = 4
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    core: CoreParams = field(default_factory=CoreParams)
    disturbance: DisturbanceProfile = field(default_factory=DisturbanceProfile)
    rowmap_kind: str = "linear"  # a key of repro.dram.rowmap.ROWMAP_KINDS
    rowmap_seed: int = 0xC0FFEE
    #: The row-map kind the mitigation assumes when it looks up victims.
    #: ``None`` hands it the device's true mapping (vendor knowledge).
    assumed_rowmap_kind: str | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        check_rowmap_kind(self.rowmap_kind)
        if self.assumed_rowmap_kind is not None:
            check_rowmap_kind(self.assumed_rowmap_kind, "assumed_rowmap_kind")

    def build_rowmap(self, kind: str | None = None) -> RowMapping:
        """Instantiate the in-DRAM row mapping of ``kind`` (default: the
        configured ``rowmap_kind``)."""
        constructor = ROWMAP_KINDS[kind or self.rowmap_kind]
        return constructor(self.spec.rows_per_bank, self.rowmap_seed)
