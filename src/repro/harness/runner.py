"""Workload runners with consistent scaled configuration.

A :class:`HarnessConfig` fixes the scaled DRAM spec
(:meth:`DramSpec.scaled`) and the *paper-scale* RowHammer threshold;
everything downstream — the disturbance model, every mechanism's
context, and BlockHammer's Table 7 configuration — sees the
consistently-scaled ``sim_nrh``.  The :class:`Runner` executes
single-application and multiprogrammed workloads; the alone runs behind
the multiprogram metrics are ``single`` jobs of
:mod:`repro.harness.parallel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.cpu.core import CoreParams
from repro.dram.address import AddressMapping
from repro.dram.rowhammer import DisturbanceProfile, impact_sum
from repro.dram.rowmap import check_rowmap_kind
from repro.dram.spec import DDR4_2400, DramSpec, scaled_threshold
from repro.energy.drampower import EnergyBreakdown, EnergyModel
from repro.mitigations.base import MitigationMechanism
from repro.mitigations.registry import build_mitigation
from repro.obs.probe import ObsConfig, TelemetryBus
from repro.os.governor import Governor
from repro.os.spec import GovernorSpec, build_governor
from repro.sim.config import SystemConfig
from repro.sim.stats import SimResult
from repro.sim.system import System
from repro.utils.validation import ConfigError, require
from repro.workloads.attacks import double_sided_attack
from repro.workloads.mixes import DEFAULT_MIX_THREADS, WorkloadMix, mix_row_offset
from repro.workloads.profiles import WorkloadProfile, profile_by_name

#: Attack threads replay a memory-level firehose trace (Section 7), not
#: a compute-bound core: deep MLP keeps the channel saturated.
ATTACKER_CORE_PARAMS = CoreParams(max_outstanding=48)


@dataclass(frozen=True)
class HarnessConfig:
    """Scaled experiment configuration.

    ``scale`` divides the refresh window; ``paper_nrh`` is the threshold
    the experiment models at full scale (e.g. 32K) and ``sim_nrh`` the
    consistently-scaled value the simulation uses.
    """

    scale: float = 128.0
    paper_nrh: int = 32768
    #: ``base_spec.channels`` is the memory channel count (one
    #: controller + device shard + mitigation instance per channel;
    #: requests interleave across channels at MOP-run granularity).
    base_spec: DramSpec = DDR4_2400
    instructions_per_thread: int = 120_000
    rowmap_kind: str = "linear"
    #: The row-map kind mitigations assume (``SystemConfig`` semantics:
    #: ``None`` = the device's true mapping).
    assumed_rowmap_kind: str | None = None
    seed: int = 1
    blast_radius: int = 1
    blast_decay: float = 0.5
    max_time_ns: float | None = None
    # Warmup before measurement (the paper fast-forwards 100M
    # instructions): long enough for an attacker to be blacklisted and
    # throttled, so measurements reflect steady state.
    warmup_ns: float = 50_000.0

    def __post_init__(self) -> None:
        require(self.scale >= 1, "scale must be >= 1")
        require(self.paper_nrh >= 1, "paper_nrh must be >= 1")
        require(
            self.instructions_per_thread >= 1, "instructions_per_thread must be >= 1"
        )
        require(self.warmup_ns >= 0, "warmup_ns must be >= 0")
        require(self.blast_radius >= 1, "blast_radius must be >= 1")
        require(0 < self.blast_decay <= 1, "blast_decay must be in (0, 1]")
        check_rowmap_kind(self.rowmap_kind)
        if self.assumed_rowmap_kind is not None:
            check_rowmap_kind(self.assumed_rowmap_kind, "assumed_rowmap_kind")
        require(
            self.max_time_ns is None or self.max_time_ns > 0,
            "max_time_ns must be None or > 0",
        )

    @property
    def sim_nrh(self) -> int:
        return scaled_threshold(self.paper_nrh, self.scale)

    @property
    def paper_nrh_effective(self) -> float:
        """Paper-scale NRH after the many-sided correction (Eq. 3)."""
        return self.paper_nrh / (2.0 * impact_sum(self.blast_radius, self.blast_decay))

    def mechanism_kwargs(self, name: str) -> dict:
        """Per-mechanism construction arguments for this configuration.

        Probabilistic mechanisms tune a *per-activation* probability
        from NRH; that probability must come from the paper-scale
        threshold, because shrinking the window (and NRH with it) does
        not change how often a real PARA fires per ACT.
        """
        if self.scale <= 1.0:
            return {}
        from repro.mitigations.para import Para

        para_p = Para.tuned_probability(self.paper_nrh_effective)
        if name == "para":
            return {"probability": para_p}
        if name == "mrloc":
            return {"base_probability": para_p / 2.0}
        if name == "cbt":
            # CBT's leaf regions are geometric (rows / 2^levels) and do
            # not shrink with scaled thresholds; deepen the tree by
            # log2(scale) so each leaf's activation capacity relative to
            # its threshold matches the full-scale design.
            extra = max(0, round(math.log2(self.scale)))
            return {"levels": 6 + extra, "counter_budget": 125 + 16 * extra}
        return {}

    def spec(self) -> DramSpec:
        return self.base_spec.scaled(self.scale)

    def with_nrh(self, paper_nrh: int) -> "HarnessConfig":
        return replace(self, paper_nrh=paper_nrh)

    def disturbance(self) -> DisturbanceProfile:
        return DisturbanceProfile(
            nrh=self.sim_nrh, blast_radius=self.blast_radius, decay=self.blast_decay
        )

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            spec=self.spec(),
            disturbance=self.disturbance(),
            rowmap_kind=self.rowmap_kind,
            assumed_rowmap_kind=self.assumed_rowmap_kind,
            seed=self.seed,
        )

    def mapping(self) -> AddressMapping:
        return AddressMapping(self.spec())


@dataclass
class RunOutcome:
    """One simulation's results plus derived energy and the per-channel
    mechanism instances."""

    result: SimResult
    energy: EnergyBreakdown
    #: One mitigation instance per memory channel (state is never shared
    #: across channels; aggregate with max/sum as the statistic demands).
    mechanisms: tuple[MitigationMechanism, ...]
    #: Per-channel DRAM command traces, only when the runner was built
    #: with ``capture_commands`` (differential scheduler testing).
    command_logs: tuple[list, ...] | None = None
    #: The OS governor this run executed under (None = no governor).
    governor: Governor | None = None
    #: The telemetry bus this run recorded into (None = unobserved).
    obs: TelemetryBus | None = None

    @property
    def mechanism(self) -> MitigationMechanism:
        """The channel-0 mechanism (the whole system on 1-channel runs)."""
        return self.mechanisms[0]

    @property
    def bitflips(self) -> int:
        return self.result.total_bitflips


class Runner:
    """Executes workloads under a fixed :class:`HarnessConfig`.

    ``policy`` overrides the scheduling policy for every system this
    runner builds (default FR-FCFS); ``capture_commands`` records every
    DRAM command each channel issues into ``RunOutcome.command_logs``.
    The differential scheduler harness uses both to prove the fast and
    the reference policy produce identical command streams.

    ``obs`` (an :class:`~repro.obs.probe.ObsConfig`) gives every system
    this runner builds a fresh telemetry bus (``RunOutcome.obs``).  It
    and ``capture_commands`` both claim the device command-log hook, so
    asking for both raises :class:`ConfigError`.
    """

    def __init__(
        self,
        hcfg: HarnessConfig,
        policy=None,
        capture_commands: bool = False,
        obs: ObsConfig | None = None,
    ) -> None:
        if obs is not None and capture_commands:
            raise ConfigError("Runner obs and capture_commands are mutually exclusive")
        self.hcfg = hcfg
        self.policy = policy
        self.capture_commands = capture_commands
        self.obs = obs

    # ------------------------------------------------------------------
    def _build_system(
        self,
        traces,
        mechanism_name: str,
        core_params_per_thread: list | None = None,
        governor: GovernorSpec | None = None,
    ) -> System:
        kwargs = self.hcfg.mechanism_kwargs(mechanism_name)
        return System(
            self.hcfg.system_config(),
            traces,
            # One fresh mechanism per channel: state is never shared.
            mitigation_factory=lambda: build_mitigation(mechanism_name, **kwargs),
            policy=self.policy,
            core_params_per_thread=core_params_per_thread,
            # One fresh governor and bus per system: both carry run state.
            governor=build_governor(governor),
            obs=TelemetryBus(self.obs) if self.obs is not None else None,
        )

    def run_traces(
        self,
        traces,
        mechanism_name: str = "none",
        targets: int | list[int | None] | None = None,
        core_params_per_thread: list | None = None,
        governor: GovernorSpec | None = None,
    ) -> RunOutcome:
        """Run arbitrary traces under a mechanism (optionally with an
        OS governor described by ``governor``)."""
        system = self._build_system(
            traces,
            mechanism_name,
            core_params_per_thread=core_params_per_thread,
            governor=governor,
        )
        logs: tuple[list, ...] | None = None
        if self.capture_commands:
            logs = tuple([] for _ in system.memsys.devices)
            for device, log in zip(system.memsys.devices, logs):
                device.command_log = log
        if targets is None:
            targets = self.hcfg.instructions_per_thread
        result = system.run(
            instructions_per_thread=targets,
            max_time_ns=self.hcfg.max_time_ns,
            warmup_ns=self.hcfg.warmup_ns,
        )
        return RunOutcome(
            result=result,
            energy=EnergyModel().energy_of(result),
            mechanisms=tuple(system.mitigations),
            command_logs=logs,
            governor=system.governor,
            obs=system.obs,
        )

    # ------------------------------------------------------------------
    def run_single(
        self,
        app_name: str,
        mechanism_name: str = "none",
        slot: int = 0,
        pinned: int | None = None,
        threads: int = DEFAULT_MIX_THREADS,
    ) -> RunOutcome:
        """Single-core run of one Table 8 application (Figure 4).

        ``slot`` seeds the trace as if the app occupied that mix slot,
        which is how the alone-IPC runs behind the multiprogram metrics
        are produced (the job layer runs them as ``single`` jobs).
        ``pinned`` confines the working set to one memory channel and
        ``threads`` is the width of the mix being mirrored (it sets the
        row-stripe stride) — together they make the alone run replay the
        mix slot's trace bit-exactly.
        """
        profile = profile_by_name(app_name)
        if pinned is not None:
            profile = profile.pinned_to(pinned)
        trace = self._benign_trace(profile, slot=slot, threads=threads)
        return self.run_traces([trace], mechanism_name)

    def run_mix(
        self,
        mix: WorkloadMix,
        mechanism_name: str = "none",
        governor: GovernorSpec | None = None,
    ) -> RunOutcome:
        """Multiprogrammed run (Figures 5/6).

        Attacker threads carry no instruction target (they hammer for as
        long as benign threads run, never gating completion) and use a
        deep-MLP core so the attack trace saturates the channel like the
        paper's firehose trace replay does.
        """
        spec = self.hcfg.spec()
        traces = mix.build_traces(spec, self.hcfg.mapping(), seed=self.hcfg.seed)
        targets: list[int | None] = [
            None if slot in mix.attacker_threads else self.hcfg.instructions_per_thread
            for slot in range(len(traces))
        ]
        per_thread = [
            ATTACKER_CORE_PARAMS if slot in mix.attacker_threads else None
            for slot in range(len(traces))
        ]
        return self.run_traces(
            traces,
            mechanism_name,
            targets,
            core_params_per_thread=per_thread,
            governor=governor,
        )

    def run_ablation(self, mechanism_name: str) -> RunOutcome:
        """The row-map ablation's fixed-duration workload: a double-sided
        attack on row 2048 in slot 0, on the attacker core, beside three
        benign apps in slots 1-3 (8-wide row stripes).  No thread has an
        instruction target, so ``hcfg.max_time_ns`` ends the run."""
        hcfg = self.hcfg
        attack = double_sided_attack(hcfg.spec(), hcfg.mapping(), victim_row=2048)
        benign = [
            self._benign_trace(profile_by_name(app), slot)
            for slot, app in enumerate(["473.astar", "450.soplex", "403.gcc"], start=1)
        ]
        return self.run_traces(
            [attack] + benign,
            mechanism_name,
            targets=[None] * (1 + len(benign)),
            core_params_per_thread=[ATTACKER_CORE_PARAMS] + [None] * len(benign),
        )

    # ------------------------------------------------------------------
    def _benign_trace(
        self, profile: WorkloadProfile, slot: int, threads: int = DEFAULT_MIX_THREADS
    ):
        from repro.workloads.generator import build_benign_trace

        spec = self.hcfg.spec()
        return build_benign_trace(
            profile,
            spec,
            self.hcfg.mapping(),
            seed=self.hcfg.seed + slot,
            # Mirror the mix's row-stripe layout so the alone run
            # replays the exact trace of the mix's ``slot`` thread.
            row_offset=mix_row_offset(spec, slot, threads),
        )
