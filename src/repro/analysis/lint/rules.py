"""Rule framework: the visitor base classes and the rule registry.

Two kinds of rules exist:

* a :class:`Rule` examines one file at a time (``check(ctx)``);
* a :class:`ProjectRule` sees every parsed file plus the linted root at
  once (``check_project(ctxs, root)``) — this is where cross-module
  passes like cache-key purity and the semantic-fingerprint manifest
  live.

Rules self-register through :func:`register`; the engine runs whatever
is in the registry, so adding a rule is: write the class, decorate it,
document it in the catalog (docs/architecture.md), add fixtures.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Type

from .context import ModuleContext
from .findings import ERROR, Finding

#: Packages (top-level directories under src/repro) whose code produces
#: result bits: anything here feeds cycles/IPC/statistics and therefore
#: the persistent result cache.  The determinism rules scope to these.
RESULT_PACKAGES: Set[str] = {"core", "branch", "memory", "trace", "isa", "workloads", "common"}

#: Packages whose classes sit on the per-instruction/per-cycle hot path
#: (the PR 4 ``__slots__`` overhaul); the hot-path hygiene rules scope here.
HOTPATH_PACKAGES: Set[str] = {"core", "memory", "branch"}


class Rule:
    """Base per-file rule; subclass and implement :meth:`check`."""

    id: str = ""
    name: str = ""
    description: str = ""
    severity: str = ERROR

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, line: int, symbol: str, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            file=ctx.rel,
            line=line,
            symbol=symbol,
            message=message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """Cross-module rule; sees every file of the run plus the root."""

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_project(
        self, ctxs: Sequence[ModuleContext], root: Path
    ) -> Iterable[Finding]:
        raise NotImplementedError


#: The registry the engine runs, in registration order.
RULES: List[Rule] = []
_RULE_IDS: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (ids must be unique)."""
    if not cls.id or not cls.name:
        raise ValueError(f"rule {cls.__name__} needs an id and a name")
    if cls.id in _RULE_IDS:
        raise ValueError(f"duplicate rule id {cls.id}")
    _RULE_IDS[cls.id] = cls
    RULES.append(cls())
    return cls


def rule_ids() -> List[str]:
    return sorted(_RULE_IDS)


def rule_catalog() -> List[Dict[str, str]]:
    """Machine-readable rule listing (id, name, description)."""
    return [
        {"id": rule.id, "name": rule.name, "description": rule.description}
        for rule in sorted(RULES, key=lambda r: r.id)
    ]


# ---------------------------------------------------------------------------
# Shared AST helpers used by several rule modules
# ---------------------------------------------------------------------------


def class_declares_slots(node: ast.ClassDef) -> bool:
    """True if the class body assigns ``__slots__`` or the dataclass
    decorator passes ``slots=True``."""
    for statement in node.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def dataclass_field_names(node: ast.ClassDef) -> List[str]:
    """Field names of a dataclass body (annotated assignments), in order.

    ClassVar annotations are not dataclass fields and are skipped.
    """
    names: List[str] = []
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            annotation = ast.dump(statement.annotation)
            if "ClassVar" in annotation:
                continue
            names.append(statement.target.id)
    return names


def base_names(node: ast.ClassDef) -> List[str]:
    """Textual base-class names ("Probe", "core.Probe" -> last segment)."""
    out: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            out.append(base.id)
        elif isinstance(base, ast.Attribute):
            out.append(base.attr)
    return out
