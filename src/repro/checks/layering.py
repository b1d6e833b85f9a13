"""Layering rules: the declarative import DAG of the package.

The architecture contract (see DESIGN.md "Layering"):

* the simulation core (``core``, ``simulation``, ``faults``, ``topologies``,
  ``clocksource``, ``clocktree``, ``multiplication``) imports nothing from
  the execution/orchestration layers above it;
* ``engines`` builds on the core (plus the ``adversary`` value objects) and is
  the only execution surface;
* ``campaign``, ``experiments`` and ``bench`` build on ``engines``;
* ``cli`` (and the root facade) sit on top and may import anything;
* ``obs`` is a leaf importable only from approved layers (``engines``,
  ``campaign``, ``experiments``, ``bench``, ``cli``) -- the simulation core
  and ``analysis`` must stay observable-free so enabling instrumentation can
  never change results;
* ``stream`` (bounded-memory accumulators) is a dependency-free leaf below
  even ``obs``: ``analysis``, ``obs``, ``campaign``, ``experiments`` and
  ``bench`` may import it without cycles;
* ``checks.schemas`` (the artifact-schema registry) is a dependency-free
  foundation leaf importable from anywhere; the rest of ``checks`` is a
  top-layer tool.

``L001`` flags any import edge the DAG does not allow; ``L002`` flags source
packages missing from the DAG entirely, so new subsystems must declare their
layer before they can import anything.  Exceptions are waived inline with
``# repro: allow-import[reason]`` and therefore stay visible in diffs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator

from repro.checks.findings import Finding
from repro.checks.registry import CheckContext, register_rule

__all__ = ["LAYER_DAG", "FOUNDATION_MODULES", "package_of"]

#: Modules importable from anywhere (dependency-free foundation leaves).
FOUNDATION_MODULES: FrozenSet[str] = frozenset({"checks.schemas"})

#: The allowed import edges: source package -> packages it may import.
#: ``"*"`` means "anything" (top-layer entry points and the analysis tool
#: itself); the empty-string key is the root ``repro`` facade.
LAYER_DAG: Dict[str, FrozenSet[str]] = {
    # -- simulation core ------------------------------------------------
    "core": frozenset({"faults"}),
    "faults": frozenset({"core", "topologies"}),
    "topologies": frozenset({"core"}),
    "clocksource": frozenset({"core"}),
    "clocktree": frozenset({"core"}),
    "multiplication": frozenset({"core"}),
    "simulation": frozenset({"core", "faults"}),
    # -- adversary value objects (consumed by engines and campaigns) ----
    "adversary": frozenset({"core", "faults", "simulation", "topologies"}),
    # -- streaming accumulators are a dependency-free leaf --------------
    "stream": frozenset(),
    # -- analysis stays obs-free (lazy artifact loaders are waived); it
    # reads engine results (``engines.base.RunResult``) but never runs them
    "analysis": frozenset({"core", "engines", "faults", "simulation", "stream", "topologies"}),
    # -- observability sits on the stream leaf only ---------------------
    # (covers every repro.obs submodule: none imports anything outside the
    # package beyond stream + the checks.schemas foundation leaf)
    "obs": frozenset({"stream"}),
    # -- execution layer ------------------------------------------------
    "engines": frozenset(
        {
            "adversary",
            "clocksource",
            "clocktree",
            "core",
            "faults",
            "obs",
            "simulation",
            "topologies",
        }
    ),
    # -- orchestration layers -------------------------------------------
    "campaign": frozenset(
        {
            "adversary",
            "analysis",
            "clocksource",
            "core",
            "engines",
            "faults",
            "obs",
            "simulation",
            "stream",
            "topologies",
        }
    ),
    "experiments": frozenset(
        {
            "adversary",
            "analysis",
            "campaign",
            "clocksource",
            "clocktree",
            "core",
            "engines",
            "faults",
            "obs",
            "simulation",
            "stream",
            "topologies",
        }
    ),
    "bench": frozenset(
        {
            "analysis",
            "campaign",
            "clocksource",
            "core",
            "engines",
            "experiments",
            "faults",
            "obs",
            "stream",
            "topologies",
        }
    ),
    # -- top layer -------------------------------------------------------
    "checks": frozenset({"*"}),
    "cli": frozenset({"*"}),
    "__main__": frozenset({"cli"}),
    "": frozenset({"*"}),  # the root facade re-exports the public surface
}


def package_of(module: str) -> str:
    """The layer name of a dotted module path.

    ``repro.engines.base`` -> ``engines``; the bare root -> ``""``; foundation
    leaves keep their full sub-path (``repro.checks.schemas`` ->
    ``checks.schemas``) so they can be layered independently of their parent
    package.
    """
    _, _, rest = module.partition(".")
    if rest in FOUNDATION_MODULES:
        return rest
    return rest.split(".", 1)[0] if rest else ""


@register_rule(
    id="L001",
    name="layering-dag",
    severity="error",
    waiver="import",
    doc=(
        "Imports must follow the declarative layer DAG: the simulation core "
        "imports nothing from engines/campaign/bench/obs, engines build on the "
        "core, orchestration builds on engines, and only approved layers may "
        "import repro.obs.  Waive deliberate exceptions with "
        "# repro: allow-import[reason]."
    ),
)
def check_layering(context: CheckContext) -> Iterator[Finding]:
    """Flag every project-internal import edge the DAG does not allow."""
    for module in context.modules:
        source_package = package_of(module.module)
        allowed = LAYER_DAG.get(source_package)
        if allowed is None:
            # L002 reports the undeclared package; avoid double-reporting
            # every import it contains.
            continue
        for line, target in module.repro_imports():
            target_package = package_of(target)
            if target_package in FOUNDATION_MODULES:
                continue
            if target_package == source_package or "*" in allowed:
                continue
            if target_package in allowed:
                continue
            yield Finding(
                rule="L001",
                severity="error",
                path=module.rel_path,
                line=line,
                message=(
                    f"layer {source_package or 'repro'!r} may not import "
                    f"{target!r} (layer {target_package or 'repro'!r}); allowed: "
                    f"{', '.join(sorted(allowed)) or '(nothing)'} -- move the "
                    "dependency down a layer, or waive with "
                    "# repro: allow-import[reason]"
                ),
            )


@register_rule(
    id="L002",
    name="layering-undeclared",
    severity="error",
    doc=(
        "Every package must be declared in the layer DAG "
        "(repro.checks.layering.LAYER_DAG) before it can ship: an undeclared "
        "package has no import budget, so new subsystems pick their layer "
        "explicitly and reviewably."
    ),
)
def check_declared(context: CheckContext) -> Iterator[Finding]:
    """Flag modules whose package has no entry in the layer DAG."""
    seen = set()
    for module in context.modules:
        source_package = package_of(module.module)
        if source_package in LAYER_DAG or source_package in FOUNDATION_MODULES:
            continue
        if source_package in seen:
            continue
        seen.add(source_package)
        yield Finding(
            rule="L002",
            severity="error",
            path=module.rel_path,
            line=1,
            message=(
                f"package {source_package!r} is not declared in the layer DAG; "
                "add it to repro.checks.layering.LAYER_DAG with the set of "
                "layers it may import"
            ),
        )
