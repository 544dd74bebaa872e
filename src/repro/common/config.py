"""Configuration objects for the simulated machines.

The classes here mirror Table 1 of the paper plus the knobs that the
evaluation sweeps (ROB size, issue-queue size, SLIQ size, number of
checkpoints, memory latency, and so on).  Every class is an immutable-ish
dataclass with a :meth:`validate` method; :func:`table1_baseline` builds
the exact configuration of Table 1 and the ``scaled_baseline`` /
``cooo_config`` helpers build the families of machines used by the
figures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from .errors import ConfigurationError


def _positive(name: str, value: int) -> None:
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")


def _non_negative(name: str, value: int) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")


def _power_of_two(name: str, value: int) -> None:
    if value <= 0 or value & (value - 1):
        raise ConfigurationError(f"{name} must be a power of two, got {value}")


@dataclass
class CacheConfig:
    """Geometry and latency of a single cache level.

    Parameters mirror Table 1: size in bytes, associativity, line size in
    bytes and the access latency in cycles.
    """

    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int
    name: str = "cache"

    def validate(self) -> None:
        _positive(f"{self.name}.size_bytes", self.size_bytes)
        _positive(f"{self.name}.assoc", self.assoc)
        _power_of_two(f"{self.name}.line_bytes", self.line_bytes)
        _non_negative(f"{self.name}.latency", self.latency)
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} is not a multiple of "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )
        _power_of_two(f"{self.name}.num_sets", self.num_sets)

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, associativity and line size."""
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass
class MemoryConfig:
    """The full memory hierarchy: IL1, DL1, unified L2 and main memory."""

    il1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, 32, 2, name="il1")
    )
    dl1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, 32, 2, name="dl1")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 4, 64, 10, name="l2")
    )
    memory_latency: int = 1000
    memory_ports: int = 2
    perfect_l2: bool = False
    perfect_dl1: bool = False
    prefetcher: str = "none"
    prefetch_degree: int = 2

    def validate(self) -> None:
        self.il1.validate()
        self.dl1.validate()
        self.l2.validate()
        _non_negative("memory_latency", self.memory_latency)
        _positive("memory_ports", self.memory_ports)
        if self.prefetcher not in ("none", "next_line", "stride"):
            raise ConfigurationError(f"unknown prefetcher {self.prefetcher!r}")
        _positive("prefetch_degree", self.prefetch_degree)


@dataclass
class BranchConfig:
    """Branch-predictor configuration (16K-history gshare in Table 1)."""

    kind: str = "gshare"
    history_entries: int = 16 * 1024
    penalty: int = 10
    btb_entries: int = 4096
    perfect: bool = False

    def validate(self) -> None:
        if self.kind not in ("gshare", "static_taken", "static_not_taken", "bimodal"):
            raise ConfigurationError(f"unknown branch predictor kind {self.kind!r}")
        _power_of_two("branch.history_entries", self.history_entries)
        _power_of_two("branch.btb_entries", self.btb_entries)
        _non_negative("branch.penalty", self.penalty)


@dataclass
class FunctionalUnitConfig:
    """Counts and latencies of the execution resources (Table 1)."""

    int_alu_count: int = 4
    int_alu_latency: int = 1
    int_mul_count: int = 2
    int_mul_latency: int = 3
    int_div_latency: int = 20
    fp_count: int = 4
    fp_latency: int = 2
    fp_div_latency: int = 20
    agen_latency: int = 1

    def validate(self) -> None:
        for name in ("int_alu_count", "int_mul_count", "fp_count"):
            _positive(f"fu.{name}", getattr(self, name))
        for name in (
            "int_alu_latency",
            "int_mul_latency",
            "int_div_latency",
            "fp_latency",
            "fp_div_latency",
            "agen_latency",
        ):
            _positive(f"fu.{name}", getattr(self, name))


@dataclass
class CoreConfig:
    """Window sizes and widths of the out-of-order core."""

    fetch_width: int = 4
    commit_width: int = 4
    issue_width: int = 4
    rob_size: int = 4096
    int_queue_size: int = 4096
    fp_queue_size: int = 4096
    lsq_size: int = 4096
    physical_registers: int = 4096
    fu: FunctionalUnitConfig = field(default_factory=FunctionalUnitConfig)

    def validate(self) -> None:
        for name in (
            "fetch_width",
            "commit_width",
            "issue_width",
            "rob_size",
            "int_queue_size",
            "fp_queue_size",
            "lsq_size",
            "physical_registers",
        ):
            _positive(f"core.{name}", getattr(self, name))
        self.fu.validate()


@dataclass
class CheckpointConfig:
    """Checkpoint-table parameters for the out-of-order-commit machine."""

    table_size: int = 8
    branch_threshold: int = 64
    instruction_threshold: int = 512
    store_threshold: int = 64
    policy: str = "paper"

    def validate(self) -> None:
        _positive("checkpoint.table_size", self.table_size)
        _positive("checkpoint.branch_threshold", self.branch_threshold)
        _positive("checkpoint.instruction_threshold", self.instruction_threshold)
        _positive("checkpoint.store_threshold", self.store_threshold)
        if self.policy not in ("paper", "every_n", "branch_only", "store_only"):
            raise ConfigurationError(f"unknown checkpoint policy {self.policy!r}")
        if self.instruction_threshold < self.branch_threshold:
            raise ConfigurationError(
                "checkpoint.instruction_threshold must be >= branch_threshold"
            )


@dataclass
class SLIQConfig:
    """Pseudo-ROB + Slow Lane Instruction Queue parameters."""

    enabled: bool = True
    size: int = 2048
    pseudo_rob_size: int = 128
    reinsert_width: int = 4
    reinsert_delay: int = 4

    def validate(self) -> None:
        _positive("sliq.size", self.size)
        _positive("sliq.pseudo_rob_size", self.pseudo_rob_size)
        _positive("sliq.reinsert_width", self.reinsert_width)
        _non_negative("sliq.reinsert_delay", self.reinsert_delay)


@dataclass
class RegisterAllocationConfig:
    """Late (virtual-tag) register allocation used by Figure 14.

    When ``late_allocation`` is false (the default) physical registers are
    allocated at rename, as in a conventional machine.  When true, rename
    hands out a *virtual tag* and the physical register is only claimed
    when the producing instruction writes back; ``virtual_tags`` then
    limits the number of in-flight destinations.
    """

    late_allocation: bool = False
    virtual_tags: int = 4096

    def validate(self) -> None:
        _positive("regalloc.virtual_tags", self.virtual_tags)


@dataclass(frozen=True)
class SamplingPlan:
    """How a sampled (fast-forward + detailed windows) run slices a trace.

    The trace is divided into periods of ``period`` dynamic instructions.
    Within each period the simulator runs ``warmup`` instructions in
    detailed mode to refill the pipeline (unmeasured), measures the next
    ``window`` instructions cycle-accurately, and *functionally
    fast-forwards* the remaining ``period - warmup - window``
    instructions — retiring them in program order while still driving
    the caches, prefetchers and branch predictors so the next detailed
    window starts warm.  ``seed`` deterministically randomizes where in
    the first period the first detailed window sits (0 keeps it at the
    period start), decorrelating the windows from periodic program
    structure.

    ``period == warmup + window`` leaves nothing to fast-forward: the
    run degenerates to one continuous detailed simulation whose result
    (cycles, IPC, every statistic) is bit-identical to the unsampled
    run, with per-window attribution layered on top.
    """

    period: int
    window: int
    warmup: int = 0
    seed: int = 0

    def validate(self) -> "SamplingPlan":
        _positive("sampling.period", self.period)
        _positive("sampling.window", self.window)
        _non_negative("sampling.warmup", self.warmup)
        _non_negative("sampling.seed", self.seed)
        if self.warmup + self.window > self.period:
            raise ConfigurationError(
                f"sampling: warmup + window ({self.warmup} + {self.window}) "
                f"must fit in the period ({self.period})"
            )
        return self

    @property
    def fast_forward_per_period(self) -> int:
        """Instructions functionally fast-forwarded in each full period."""
        return self.period - self.warmup - self.window

    @property
    def detail_fraction(self) -> float:
        """Fraction of the trace simulated in detailed (cycle-level) mode."""
        return (self.warmup + self.window) / self.period

    def first_window_offset(self) -> int:
        """Trace position where the first detailed region (warmup) starts.

        Deterministic in ``seed``: seed 0 pins the window to the period
        start; any other seed places it uniformly within the period's
        fast-forward slack.
        """
        slack = self.fast_forward_per_period
        if self.seed == 0 or slack == 0:
            return 0
        import random

        return random.Random(self.seed).randrange(slack + 1)

    def schedule(self, total: int) -> list:
        """Split ``total`` instructions into ``(skip, warmup, measure)`` triples.

        ``skip`` instructions are fast-forwarded, ``warmup`` run detailed
        but unmeasured, ``measure`` run detailed and measured.  The
        triples cover the trace exactly; a tail too short to hold a
        warmed window becomes a pure fast-forward segment.
        """
        self.validate()
        segments = []
        pos = 0
        next_detail = self.first_window_offset()
        while pos < total:
            skip = min(max(0, next_detail - pos), total - pos)
            remaining = total - pos - skip
            if remaining <= self.warmup:
                # Tail too short for a measured window: fast-forward it all.
                segments.append((skip + remaining, 0, 0))
                break
            warm = min(self.warmup, remaining)
            measure = min(self.window, remaining - warm)
            segments.append((skip, warm, measure))
            pos += skip + warm + measure
            next_detail += self.period
        return segments

    # -- serialization / identity ------------------------------------------
    def to_dict(self) -> Dict[str, int]:
        return {
            "period": self.period,
            "window": self.window,
            "warmup": self.warmup,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SamplingPlan":
        return cls(
            period=int(data["period"]),
            window=int(data["window"]),
            warmup=int(data.get("warmup", 0)),
            seed=int(data.get("seed", 0)),
        )

    #: Field names of the CLI form, in positional order.
    PARSE_FIELDS = ("period", "window", "warmup", "seed")

    @classmethod
    def parse(cls, spec: str) -> "SamplingPlan":
        """Parse the CLI form ``PERIOD:WINDOW[:WARMUP[:SEED]]``.

        Raises :class:`ConfigurationError` (a ``ValueError``) naming the
        offending field: too few/many ``:``-separated fields, a
        non-integer field, a non-positive period or window, a negative
        warmup or seed, or a window+warmup that overflows the period.
        """
        parts = spec.split(":")
        if not 2 <= len(parts) <= 4:
            raise ConfigurationError(
                f"sampling spec {spec!r} must be PERIOD:WINDOW[:WARMUP[:SEED]] "
                f"(2 to 4 ':'-separated integers, got {len(parts)} fields)"
            )
        numbers = []
        for name, part in zip(cls.PARSE_FIELDS, parts):
            try:
                numbers.append(int(part))
            except ValueError:
                raise ConfigurationError(
                    f"sampling spec {spec!r}: {name} must be an integer, "
                    f"got {part!r}"
                ) from None
        plan = cls(
            period=numbers[0],
            window=numbers[1],
            warmup=numbers[2] if len(numbers) > 2 else 0,
            seed=numbers[3] if len(numbers) > 3 else 0,
        )
        # validate() names the bad field too (e.g. "sampling.period must
        # be > 0"), so every rejection points at what to fix.
        return plan.validate()

    def describe(self) -> str:
        return (
            f"period={self.period} window={self.window} "
            f"warmup={self.warmup} seed={self.seed} "
            f"({100 * self.detail_fraction:.1f}% detailed)"
        )


@dataclass
class ProcessorConfig:
    """Complete description of one simulated machine.

    ``mode`` names a machine organization registered in
    :mod:`repro.core.registry_machines` — ``"baseline"`` and ``"cooo"``
    ship with the paper's two machines; ``repro list`` lists the rest,
    and :func:`~repro.core.registry_machines.register_machine` adds new
    ones without touching this module.
    """

    mode: str = "baseline"
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    branch: BranchConfig = field(default_factory=BranchConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    sliq: SLIQConfig = field(default_factory=SLIQConfig)
    regalloc: RegisterAllocationConfig = field(default_factory=RegisterAllocationConfig)
    deadlock_cycles: int = 2_000_000
    name: str = ""

    def validate(self) -> "ProcessorConfig":
        # The machine registry is the single source of truth for valid
        # modes; imported lazily so repro.common stays importable on its
        # own (the registry lives in repro.core, which imports us).
        from ..core.registry_machines import get_machine

        machine = get_machine(self.mode)  # raises, listing registered modes
        self.core.validate()
        self.memory.validate()
        self.branch.validate()
        self.checkpoint.validate()
        self.sliq.validate()
        self.regalloc.validate()
        _positive("deadlock_cycles", self.deadlock_cycles)
        if self.regalloc.late_allocation and not machine.supports_late_allocation:
            raise ConfigurationError(
                f"late register allocation is not modelled by machine "
                f"{self.mode!r} (the cooo family opts in via "
                f"supports_late_allocation)"
            )
        return self

    def describe(self) -> Dict[str, object]:
        """Flat dictionary view, convenient for result tables."""
        return {
            "name": self.name or self.mode,
            "mode": self.mode,
            "rob_size": self.core.rob_size,
            "iq_size": self.core.int_queue_size,
            "lsq_size": self.core.lsq_size,
            "physical_registers": self.core.physical_registers,
            "checkpoints": self.checkpoint.table_size,
            "sliq_size": self.sliq.size if self.sliq.enabled else 0,
            "pseudo_rob_size": self.sliq.pseudo_rob_size if self.sliq.enabled else 0,
            "memory_latency": self.memory.memory_latency,
            "perfect_l2": self.memory.perfect_l2,
            "virtual_tags": self.regalloc.virtual_tags,
            "late_allocation": self.regalloc.late_allocation,
        }

    def copy(self, **changes: object) -> "ProcessorConfig":
        """Return a deep copy with top-level fields replaced."""
        cfg = dataclasses.replace(self, **changes)  # type: ignore[arg-type]
        return _deep_copy_config(cfg)

    # -- serialization / identity ------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-dict view, round-trippable via :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProcessorConfig":
        """Rebuild a config from :meth:`to_dict` output (e.g. after JSON)."""
        core_data = dict(data["core"])
        core_data["fu"] = FunctionalUnitConfig(**core_data["fu"])
        memory_data = dict(data["memory"])
        for level in ("il1", "dl1", "l2"):
            memory_data[level] = CacheConfig(**memory_data[level])
        return cls(
            mode=data["mode"],
            core=CoreConfig(**core_data),
            memory=MemoryConfig(**memory_data),
            branch=BranchConfig(**data["branch"]),
            checkpoint=CheckpointConfig(**data["checkpoint"]),
            sliq=SLIQConfig(**data["sliq"]),
            regalloc=RegisterAllocationConfig(**data["regalloc"]),
            deadlock_cycles=data["deadlock_cycles"],
            name=data.get("name", ""),
        )

    def stable_hash(self) -> str:
        """Content hash of every field, stable across processes and runs.

        This is the config component of the sweep engine's persistent
        cache key: two configs hash equal iff every parameter (including
        ``name``) is equal.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __hash__(self) -> int:
        return hash(self.stable_hash())


def _deep_copy_config(cfg: ProcessorConfig) -> ProcessorConfig:
    return ProcessorConfig(
        mode=cfg.mode,
        core=replace(cfg.core, fu=replace(cfg.core.fu)),
        memory=replace(
            cfg.memory,
            il1=replace(cfg.memory.il1),
            dl1=replace(cfg.memory.dl1),
            l2=replace(cfg.memory.l2),
        ),
        branch=replace(cfg.branch),
        checkpoint=replace(cfg.checkpoint),
        sliq=replace(cfg.sliq),
        regalloc=replace(cfg.regalloc),
        deadlock_cycles=cfg.deadlock_cycles,
        name=cfg.name,
    )


def table1_baseline(memory_latency: int = 1000, perfect_l2: bool = False) -> ProcessorConfig:
    """The baseline machine of Table 1 (4096-entry everything)."""
    cfg = ProcessorConfig(
        mode="baseline",
        core=CoreConfig(),
        memory=MemoryConfig(memory_latency=memory_latency, perfect_l2=perfect_l2),
        branch=BranchConfig(),
        name=f"table1-baseline-lat{memory_latency}" + ("-perfectL2" if perfect_l2 else ""),
    )
    return cfg.validate()


def scaled_baseline(
    window: int,
    memory_latency: int = 1000,
    perfect_l2: bool = False,
    physical_registers: Optional[int] = None,
) -> ProcessorConfig:
    """Baseline with ROB, queues, LSQ and registers scaled to ``window``.

    This is the family of machines behind Figure 1 and the reference lines
    of Figures 9 and 11.
    """
    _positive("window", window)
    # Scale the register file with the window but keep the 64 architectural
    # mappings on top, so the ROB/queues (not renaming) are the limiter.
    regs = physical_registers if physical_registers is not None else window + 64
    cfg = ProcessorConfig(
        mode="baseline",
        core=CoreConfig(
            rob_size=window,
            int_queue_size=window,
            fp_queue_size=window,
            lsq_size=window,
            physical_registers=regs,
        ),
        memory=MemoryConfig(memory_latency=memory_latency, perfect_l2=perfect_l2),
        name=f"baseline-{window}-lat{memory_latency}" + ("-perfectL2" if perfect_l2 else ""),
    )
    return cfg.validate()


def cooo_config(
    iq_size: int = 128,
    sliq_size: int = 2048,
    checkpoints: int = 8,
    memory_latency: int = 1000,
    pseudo_rob_size: Optional[int] = None,
    reinsert_delay: int = 4,
    physical_registers: int = 4096,
    lsq_size: int = 4096,
    virtual_tags: Optional[int] = None,
    late_allocation: bool = False,
    perfect_l2: bool = False,
) -> ProcessorConfig:
    """The paper's Commit Out-of-Order machine.

    ``iq_size`` is both the general-purpose issue queue size and the
    pseudo-ROB size (the paper always sets them equal); ``sliq_size`` is
    the secondary buffer; ``checkpoints`` is the checkpoint-table size.
    """
    _positive("iq_size", iq_size)
    prob = pseudo_rob_size if pseudo_rob_size is not None else iq_size
    cfg = ProcessorConfig(
        mode="cooo",
        core=CoreConfig(
            rob_size=4096,  # unused by the cooo machine but kept for symmetry
            int_queue_size=iq_size,
            fp_queue_size=iq_size,
            lsq_size=lsq_size,
            physical_registers=physical_registers,
        ),
        memory=MemoryConfig(memory_latency=memory_latency, perfect_l2=perfect_l2),
        checkpoint=CheckpointConfig(table_size=checkpoints),
        sliq=SLIQConfig(
            enabled=True,
            size=sliq_size,
            pseudo_rob_size=prob,
            reinsert_delay=reinsert_delay,
        ),
        regalloc=RegisterAllocationConfig(
            late_allocation=late_allocation,
            virtual_tags=virtual_tags if virtual_tags is not None else 4096,
        ),
        name=f"cooo-iq{iq_size}-sliq{sliq_size}-ckpt{checkpoints}-lat{memory_latency}",
    )
    return cfg.validate()
