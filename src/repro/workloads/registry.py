"""The pluggable workload/suite registry: one source of truth for scenarios.

PR 2 made machine *organizations* first-class registrable things
(:mod:`repro.core.registry_machines`); this module does the same for
*workloads*.  A workload is a parameterized trace generator registered
under a name::

    from repro.workloads.registry import register_workload

    @register_workload(
        "zigzag",
        description="alternating hot/cold strided loads",
        base_size=2000,
        knobs={"stride": 4, "seed": 99},
    )
    def zigzag(size: int, stride: int = 4, seed: int = 99) -> Trace:
        ...

From that point on the workload behaves exactly like a built-in: it is
buildable by name through :func:`get_workload`/:func:`build_workload`,
appears in ``repro list`` and ``repro simulate --workload``, and
can be placed in registered suites — with zero edits to the engine, the
CLI, or the sweep pipeline.

Suites — ordered collections of workload members averaged by the
experiment harness, exactly as the paper averages over SPEC2000fp — are
registered the same way, either directly::

    register_suite(my_suite, description="...")

or by decorating a zero-argument factory::

    @register_suite(description="latency-hiding stress suite")
    def my_suite() -> Suite:
        return Suite("my-suite", [...])

Lookups by unknown name raise ``KeyError`` whose message lists every
registered name (as machine lookups do).  The sweep
engine's persistent cache keys are ``(config, suite name, workload
name, scale, version)`` — registration itself never invalidates caches,
but changing what a *registered name* generates would silently reuse
stale results, so generators must stay deterministic per name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, TYPE_CHECKING

from ..common.errors import ConfigurationError
from ..trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .suite import Suite

#: A workload generator: ``generator(size, **knobs) -> Trace`` where
#: ``size`` is the approximate dynamic instruction budget.
GeneratorFn = Callable[..., Trace]

#: Floor applied when scaling a base size, matching ``SuiteMember.build``.
MIN_SIZE = 16

_WORKLOADS: Dict[str, "WorkloadSpec"] = {}
_SUITES: Dict[str, "SuiteSpec"] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Import the modules that register the shipped workloads (idempotent)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Flag first to guard against reentrancy while the imports execute;
    # cleared on failure so the real ImportError resurfaces next query.
    _BUILTINS_LOADED = True
    try:
        # xl last: it derives its suites from the ones the others register.
        from . import catalog, scenarios, suite, xl  # noqa: F401  (registration side effects)
    except BaseException:
        _BUILTINS_LOADED = False
        raise


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered, parameterized workload generator.

    ``knobs`` documents the tunable parameters beyond size and their
    default values; :meth:`build` accepts overrides for any of them and
    rejects unknown names.  ``base_size`` is the size parameter handed
    to the generator at ``scale=1.0`` (its meaning — elements,
    iterations, hops — is the generator's primary size knob).
    """

    name: str
    generator: GeneratorFn
    description: str = ""
    base_size: int = 2000
    knobs: Mapping[str, object] = field(default_factory=dict)

    def build(
        self,
        size: Optional[int] = None,
        scale: float = 1.0,
        **overrides: object,
    ) -> Trace:
        """Generate the trace at an explicit ``size`` or a ``scale`` of base size."""
        unknown = sorted(set(overrides) - set(self.knobs))
        if unknown:
            raise KeyError(
                f"unknown knobs {unknown} for workload {self.name!r}; "
                f"tunable knobs: {sorted(self.knobs)}"
            )
        if size is None:
            size = max(MIN_SIZE, int(self.base_size * scale))
        parameters = dict(self.knobs)
        parameters.update(overrides)
        return self.generator(size, **parameters)


@dataclass(frozen=True)
class SuiteSpec:
    """One registered suite plus its catalog description."""

    name: str
    suite: "Suite"
    description: str = ""


# ---------------------------------------------------------------------------
# Workload registration and lookup
# ---------------------------------------------------------------------------


def register_workload(
    name: str,
    *,
    description: str = "",
    base_size: int = 2000,
    knobs: Optional[Mapping[str, object]] = None,
) -> Callable[[GeneratorFn], GeneratorFn]:
    """Function decorator registering a trace generator as workload ``name``.

    The decorated function keeps working as a plain callable.  When
    ``description`` is omitted the first line of the docstring is used.
    Re-registering the *same* function under the same name is a no-op;
    registering a different one under a taken name raises.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"workload name must be a non-empty string, got {name!r}")
    if base_size < 1:
        raise ConfigurationError(f"workload {name!r}: base_size must be positive, got {base_size}")

    def decorator(fn: GeneratorFn) -> GeneratorFn:
        existing = _WORKLOADS.get(name)
        if existing is not None:
            if existing.generator is fn:
                return fn  # idempotent re-import
            raise ConfigurationError(
                f"workload {name!r} is already registered; unregister it first "
                f"or pick another name"
            )
        doc = (fn.__doc__ or "").strip().splitlines()
        _WORKLOADS[name] = WorkloadSpec(
            name=name,
            generator=fn,
            description=description or (doc[0] if doc else ""),
            base_size=base_size,
            knobs=MappingProxyType(dict(knobs or {})),
        )
        return fn

    return decorator


def unregister_workload(name: str) -> None:
    """Remove a registered workload (primarily for tests and plugins)."""
    _ensure_builtins()
    if name not in _WORKLOADS:
        raise KeyError(f"workload {name!r} is not registered")
    del _WORKLOADS[name]


def workload_names() -> List[str]:
    """Sorted names of every registered workload."""
    _ensure_builtins()
    return sorted(_WORKLOADS)


def workload_specs() -> List[WorkloadSpec]:
    """Every registered workload, sorted by name."""
    _ensure_builtins()
    return [_WORKLOADS[name] for name in sorted(_WORKLOADS)]


def get_workload(name: str) -> WorkloadSpec:
    """The spec registered under ``name``; raises listing the valid names."""
    _ensure_builtins()
    try:
        return _WORKLOADS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown workload {name!r}; registered workloads: "
            f"{', '.join(sorted(_WORKLOADS))}"
        ) from exc


def build_workload(
    name: str,
    size: Optional[int] = None,
    scale: float = 1.0,
    **overrides: object,
) -> Trace:
    """Resolve ``name`` in the registry and build its trace."""
    return get_workload(name).build(size=size, scale=scale, **overrides)


# ---------------------------------------------------------------------------
# Suite registration and lookup
# ---------------------------------------------------------------------------


def register_suite(suite=None, *, description: str = ""):
    """Register a suite, directly or by decorating a zero-arg factory.

    ``register_suite(suite_obj, description=...)`` registers the object
    and returns it; ``@register_suite(description=...)`` above a factory
    function calls the factory once and registers its result, leaving
    the factory usable.  The suite's own ``name`` is the registry key.
    """
    if suite is None:
        return lambda target: register_suite(target, description=description)
    from .suite import Suite

    if isinstance(suite, Suite):
        built, returned = suite, suite
    elif callable(suite):
        built, returned = suite(), suite
        if not isinstance(built, Suite):
            raise ConfigurationError(
                f"suite factory {getattr(suite, '__name__', suite)!r} returned "
                f"{type(built).__name__}, expected a Suite"
            )
    else:
        raise ConfigurationError(f"cannot register {suite!r} as a suite")
    existing = _SUITES.get(built.name)
    if existing is not None:
        if existing.suite is built:
            return returned  # idempotent re-import
        raise ConfigurationError(
            f"suite {built.name!r} is already registered; unregister it first "
            f"or pick another name"
        )
    doc = ""
    if callable(suite) and not isinstance(suite, Suite):
        doc_lines = (suite.__doc__ or "").strip().splitlines()
        doc = doc_lines[0] if doc_lines else ""
    _SUITES[built.name] = SuiteSpec(
        name=built.name,
        suite=built,
        description=description or doc or built.description,
    )
    return returned


def unregister_suite(name: str) -> None:
    """Remove a registered suite (primarily for tests and plugins)."""
    _ensure_builtins()
    if name not in _SUITES:
        raise KeyError(f"suite {name!r} is not registered")
    del _SUITES[name]


def suite_names() -> List[str]:
    """Sorted names of every registered suite."""
    _ensure_builtins()
    return sorted(_SUITES)


def suite_specs() -> List[SuiteSpec]:
    """Every registered suite, sorted by name."""
    _ensure_builtins()
    return [_SUITES[name] for name in sorted(_SUITES)]


def get_suite_spec(name: str) -> SuiteSpec:
    """The suite spec registered under ``name``; raises listing valid names."""
    _ensure_builtins()
    try:
        return _SUITES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown suite {name!r}; registered suites: {', '.join(sorted(_SUITES))}"
        ) from exc


def get_suite(name: str) -> "Suite":
    """The suite registered under ``name``; raises listing the valid names."""
    return get_suite_spec(name).suite
