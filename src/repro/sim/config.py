"""System configuration (Table 5 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.address import MappingScheme
from repro.dram.rowhammer import DisturbanceProfile
from repro.dram.rowmap import ROWMAP_KINDS, RowMapping, check_rowmap_kind
from repro.dram.spec import DDR4_2400, DramSpec
from repro.cpu.core import CoreParams
from repro.mem.controller import ControllerConfig
from repro.utils.validation import ConfigError


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`~repro.sim.system.System`.

    Defaults mirror the paper's Table 5: 3.2 GHz 4-wide cores, 64-entry
    read/write queues with FR-FCFS and MOP address mapping, one rank of
    16 banks of DDR4.
    """

    spec: DramSpec = DDR4_2400
    #: Memory channels the system instantiates (one controller + DRAM
    #: device shard + mitigation instance per channel).  ``None`` defers
    #: to ``spec.channels``; an explicit value overrides the spec.
    num_channels: int | None = None
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
        if self.num_channels is not None and self.num_channels < 1:
            raise ConfigError("num_channels must be >= 1")
        check_rowmap_kind(self.rowmap_kind)
        if self.assumed_rowmap_kind is not None:
            check_rowmap_kind(self.assumed_rowmap_kind, "assumed_rowmap_kind")

    @property
    def channels(self) -> int:
        """Effective channel count (explicit override, else the spec's)."""
        return self.num_channels if self.num_channels is not None else self.spec.channels

    def effective_spec(self) -> DramSpec:
        """The spec with the effective channel count applied, so the
        address mapping and the MemorySystem agree on channel bits."""
        return self.spec.with_channels(self.channels)

    def build_rowmap(self, kind: str | None = None) -> RowMapping:
        """Instantiate the in-DRAM row mapping of ``kind`` (default: the
        configured ``rowmap_kind``)."""
        constructor = ROWMAP_KINDS[kind or self.rowmap_kind]
        return constructor(self.spec.rows_per_bank, self.rowmap_seed)
