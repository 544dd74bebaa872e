"""The pluggable machine registry: one source of truth for ``config.mode``.

The paper is a comparison of machine *organizations*; this module makes
an organization a first-class, registrable thing instead of a hard-coded
string.  A machine is a :class:`~repro.core.pipeline.PipelineBase`
subclass registered under a mode name::

    from repro.core.pipeline import BaselinePipeline
    from repro.core.registry_machines import register_machine

    @register_machine("my-variant", description="baseline with a twist")
    class MyVariantPipeline(BaselinePipeline):
        ...

From that point on the variant behaves exactly like a built-in: a
``ProcessorConfig`` with ``mode="my-variant"`` validates, simulates
through :func:`repro.api.run`, sweeps through the sweep engine (with its
own cache keys), and shows up in ``repro list`` and the CLI's
``--machine`` choices — with zero edits to ``pipeline.py``,
``config.py`` or ``cli.py``.

``ProcessorConfig.validate`` and the CLI derive the set of valid modes
from this registry; :func:`create_pipeline` is the factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..common.errors import ConfigurationError

#: Builder turning CLI arguments into a ProcessorConfig for one machine.
#: Receives any object with the ``simulate`` subcommand's attributes
#: (window, iq_size, memory_latency, ...) plus the registered mode name.
CLIConfigFn = Callable[[object, str], "ProcessorConfig"]  # noqa: F821


@dataclass(frozen=True, slots=True)
class MachineSpec:
    """One registered machine organization."""

    name: str
    pipeline_class: type
    description: str
    cli_config: CLIConfigFn

    @property
    def supports_late_allocation(self) -> bool:
        """Whether the machine models Figure 14's late register allocation."""
        return bool(getattr(self.pipeline_class, "supports_late_allocation", False))

    def build_cli_config(self, args: object) -> "ProcessorConfig":  # noqa: F821
        """Translate parsed CLI arguments into this machine's config."""
        return self.cli_config(args, self.name)


_REGISTRY: Dict[str, MachineSpec] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Import the modules that register the shipped machines (idempotent)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Flag first to guard against reentrancy while the imports execute;
    # cleared again on failure so the real ImportError resurfaces on the
    # next query instead of a misleading empty registry.
    _BUILTINS_LOADED = True
    try:
        from . import machines, pipeline  # noqa: F401  (registration side effects)
    except BaseException:
        _BUILTINS_LOADED = False
        raise


# ---------------------------------------------------------------------------
# CLI configuration profiles
# ---------------------------------------------------------------------------

#: Default values of the ``simulate`` subcommand's machine knobs.  The
#: CLI parser and the profile builders below both read from here, so an
#: args object missing an attribute builds the same machine the CLI
#: would with that flag left at its default.
CLI_DEFAULTS: Dict[str, object] = {
    "window": 128,
    "iq_size": 128,
    "sliq_size": 2048,
    "checkpoints": 8,
    "memory_latency": 1000,
    "reinsert_delay": 4,
    "virtual_tags": None,
    "physical_registers": None,
    "perfect_l2": False,
    "late_allocation": False,
}


def _arg(args: object, name: str):
    return getattr(args, name, CLI_DEFAULTS[name])


def _retarget(config, mode: str):
    """Re-aim a helper-built config at a registered variant mode."""
    if config.mode == mode:
        return config
    return config.copy(mode=mode, name=f"{mode}:{config.name}" if config.name else mode)


def baseline_cli_config(args: object, mode: str):
    """``simulate`` arguments -> a baseline-family config (window knobs)."""
    from ..common.config import scaled_baseline

    config = _retarget(
        scaled_baseline(
            window=_arg(args, "window"),
            memory_latency=_arg(args, "memory_latency"),
            perfect_l2=_arg(args, "perfect_l2"),
        ),
        mode,
    )
    return config.validate()


def cooo_cli_config(args: object, mode: str):
    """``simulate`` arguments -> a checkpoint-machine config (cooo knobs)."""
    from ..common.config import cooo_config

    physical_registers = _arg(args, "physical_registers")
    config = _retarget(
        cooo_config(
            iq_size=_arg(args, "iq_size"),
            sliq_size=_arg(args, "sliq_size"),
            checkpoints=_arg(args, "checkpoints"),
            memory_latency=_arg(args, "memory_latency"),
            reinsert_delay=_arg(args, "reinsert_delay"),
            perfect_l2=_arg(args, "perfect_l2"),
            virtual_tags=_arg(args, "virtual_tags"),
            physical_registers=physical_registers if physical_registers is not None else 4096,
            late_allocation=_arg(args, "late_allocation"),
        ),
        mode,
    )
    return config.validate()


# ---------------------------------------------------------------------------
# Registration and lookup
# ---------------------------------------------------------------------------


def register_machine(
    name: str,
    *,
    description: str = "",
    cli_config: Optional[CLIConfigFn] = None,
) -> Callable[[type], type]:
    """Class decorator registering a pipeline class as machine ``name``.

    ``description`` is the one-liner shown by ``repro list``; when
    omitted, the first line of the class docstring is used.
    ``cli_config`` builds a config from ``repro simulate`` arguments and
    defaults to the baseline profile (window-style knobs).
    Re-registering the *same* class under the same name is a no-op;
    registering a different class under a taken name raises.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"machine name must be a non-empty string, got {name!r}")

    def decorator(cls: type) -> type:
        existing = _REGISTRY.get(name)
        if existing is not None:
            if existing.pipeline_class is cls:
                return cls  # idempotent re-import
            raise ConfigurationError(
                f"machine {name!r} is already registered to "
                f"{existing.pipeline_class.__name__}; unregister it first or pick "
                f"another name"
            )
        doc = (cls.__doc__ or "").strip().splitlines()
        cls.mode = name
        _REGISTRY[name] = MachineSpec(
            name=name,
            pipeline_class=cls,
            description=description or (doc[0] if doc else ""),
            cli_config=cli_config or baseline_cli_config,
        )
        return cls

    return decorator


def unregister_machine(name: str) -> None:
    """Remove a registered machine (primarily for tests and plugins)."""
    _ensure_builtins()
    if name not in _REGISTRY:
        raise KeyError(f"machine {name!r} is not registered")
    del _REGISTRY[name]


def machine_names() -> List[str]:
    """Sorted names of every registered machine."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def machine_specs() -> List[MachineSpec]:
    """Every registered machine, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_machine(name: str) -> MachineSpec:
    """The spec registered under ``name``; raises with the valid names."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown processor mode {name!r}; registered machines: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from exc


def create_pipeline(config, trace, stats=None, probes: Sequence = ()):
    """Build the registered machine selected by ``config.mode``, observed by ``probes``."""
    return get_machine(config.mode).pipeline_class(config, trace, stats, probes=probes)
