"""Content-key stability rules: the serialized-spec compatibility contract.

Content keys (truncated SHA-256 over :func:`repro.engines.base.canonical_json`)
name every run, sweep cell and campaign on disk.  Two things can silently
rename the whole corpus:

* a defaulted field leaking into the canonical JSON (every *existing* spec's
  key changes even though nothing about it changed), or a non-default field
  being dropped (two different specs collide on one key);
* any byte-level change to the canonical serialization itself.

``K001`` checks the omit-at-default contract by actually constructing the spec
classes and probing their ``to_json_dict`` output; ``K002`` pins the content
keys of a small spec corpus to golden values.  Both rules are *semi-static*:
they import the live classes rather than pattern-matching source, so any code
path that changes the serialization trips them no matter how it is written.

Neither rule is waivable inline -- an intentional key migration must edit the
manifests/golden corpus here, which is exactly the reviewable diff we want.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.checks.findings import Finding
from repro.checks.registry import CheckContext, register_rule

__all__ = [
    "OmissionManifest",
    "OMISSION_MANIFESTS",
    "GOLDEN_SPECS",
    "omission_findings",
    "golden_key_findings",
]


@dataclass
class OmissionManifest:
    """The omit-at-default contract of one serializable spec class.

    Attributes
    ----------
    name:
        Class name, for messages.
    anchor:
        Package-root-relative path of the defining module; findings are
        anchored to the ``class`` statement there.
    build_default:
        Zero-argument constructor of an all-defaults instance.
    omitted:
        Fields that must be *absent* from ``to_json_dict()`` at default.
    probes:
        ``field -> builder`` map: each builder returns an instance where that
        field is non-default, and the field must then be *present*.
    """

    name: str
    anchor: str
    build_default: Callable[[], Any]
    omitted: Tuple[str, ...]
    probes: Dict[str, Callable[[], Any]] = field(default_factory=dict)


def _build_omission_manifests() -> List[OmissionManifest]:
    # Imported lazily: the rule bodies need the live classes, but merely
    # loading the rule registry (e.g. for `check --list`) should not drag in
    # the whole runtime.
    from repro.adversary.schedule import FaultSchedule
    from repro.campaign.spec import CampaignSpec, RunTask, SweepSpec
    from repro.engines.base import RunSpec
    from repro.experiments.soak import SoakSpec

    def default_task() -> RunTask:
        campaign = CampaignSpec(
            name="k001", cells=(SweepSpec(layers=(2,), width=(4,), runs=1),)
        )
        return next(iter(campaign.tasks()))

    def task_with(**cell_overrides: Any) -> RunTask:
        campaign = CampaignSpec(
            name="k001",
            cells=(SweepSpec(layers=(2,), width=(4,), runs=1, **cell_overrides),),
        )
        return next(iter(campaign.tasks()))

    burst = FaultSchedule.burst(time=5.0, count=2)
    return [
        OmissionManifest(
            name="RunSpec",
            anchor="engines/base.py",
            build_default=RunSpec,
            omitted=("topology", "fault_schedule", "initial_states"),
            probes={
                "topology": lambda: RunSpec(topology="torus"),
                "fault_schedule": lambda: RunSpec(fault_schedule=burst),
                "initial_states": lambda: RunSpec(
                    kind="multi_pulse", initial_states="clean"
                ),
            },
        ),
        OmissionManifest(
            name="SweepSpec",
            anchor="campaign/spec.py",
            build_default=SweepSpec,
            omitted=(
                "delay_model",
                "fault_schedule",
                "topology",
                "initial_states",
            ),
            probes={
                "delay_model": lambda: SweepSpec(delay_model=("uniform",)),
                # Dynamic schedules only execute on the DES engine.
                "fault_schedule": lambda: SweepSpec(
                    engine=("des",), fault_schedule=(burst,)
                ),
                "topology": lambda: SweepSpec(topology=("torus",)),
                "initial_states": lambda: SweepSpec(
                    kind="multi_pulse", initial_states="clean"
                ),
            },
        ),
        OmissionManifest(
            name="RunTask",
            anchor="campaign/spec.py",
            build_default=default_task,
            omitted=("delay_model", "fault_schedule", "topology", "initial_states"),
            probes={
                "delay_model": lambda: task_with(delay_model=("uniform",)),
                "fault_schedule": lambda: task_with(
                    engine=("des",), fault_schedule=(burst,)
                ),
                "topology": lambda: task_with(topology=("torus",)),
                "initial_states": lambda: task_with(
                    kind="multi_pulse", num_pulses=2, initial_states="clean"
                ),
            },
        ),
        OmissionManifest(
            name="SoakSpec",
            anchor="experiments/soak.py",
            build_default=SoakSpec,
            omitted=("fault_type", "initial_states"),
            probes={
                "fault_type": lambda: SoakSpec(fault_type="fail_silent"),
                "initial_states": lambda: SoakSpec(initial_states="clean"),
            },
        ),
    ]


#: Lazy accessor so import stays cheap; memoised after first build.
_MANIFEST_CACHE: List[OmissionManifest] = []


def OMISSION_MANIFESTS() -> List[OmissionManifest]:
    """The omit-at-default manifests of the real spec classes."""
    if not _MANIFEST_CACHE:
        _MANIFEST_CACHE.extend(_build_omission_manifests())
    return _MANIFEST_CACHE


def _anchor_line(context: CheckContext, manifest: OmissionManifest) -> int:
    """Line of the ``class`` statement in the anchoring module (1 if unknown)."""
    module = context.module(manifest.anchor)
    if module is None:
        return 1
    import ast

    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef) and node.name == manifest.name:
            return node.lineno
    return 1


def omission_findings(
    context: CheckContext, manifests: List[OmissionManifest]
) -> Iterator[Finding]:
    """The K001 check body, reusable against fixture manifests in tests."""
    for manifest in manifests:
        line = _anchor_line(context, manifest)

        def finding(message: str) -> Finding:
            return Finding(
                rule="K001",
                severity="error",
                path=manifest.anchor,
                line=line,
                message=message,
            )

        try:
            document = manifest.build_default().to_json_dict()
        except Exception as error:  # pragma: no cover - manifest rot
            yield finding(
                f"{manifest.name}: default construction failed ({error}); "
                "fix the omission manifest in repro.checks.contentkeys"
            )
            continue
        for name in manifest.omitted:
            if name in document:
                yield finding(
                    f"{manifest.name}.to_json_dict() serializes defaulted field "
                    f"{name!r}; the omit-at-default contract keeps content keys "
                    "stable across spec-schema growth -- omit the field when it "
                    "holds its default value"
                )
        for name, probe in manifest.probes.items():
            try:
                probed = probe().to_json_dict()
            except Exception as error:  # pragma: no cover - manifest rot
                yield finding(
                    f"{manifest.name}: probe for {name!r} failed ({error}); "
                    "fix the omission manifest in repro.checks.contentkeys"
                )
                continue
            if name not in probed:
                yield finding(
                    f"{manifest.name}.to_json_dict() drops non-default field "
                    f"{name!r}; two different specs would collide on one "
                    "content key"
                )


def _build_golden_specs() -> Dict[str, Tuple[Callable[[], str], str]]:
    from repro.adversary.schedule import FaultSchedule
    from repro.campaign.spec import CampaignSpec, SweepSpec
    from repro.engines.base import RunSpec, content_key
    from repro.experiments.soak import SoakCheckpoint, SoakSpec
    from repro.stream import StreamSummary

    def soak_variant() -> SoakSpec:
        return SoakSpec(
            layers=4,
            width=5,
            num_pulses=100,
            pulses_per_epoch=25,
            faults=1,
            fault_type="fail_silent",
            heal_fraction=0.5,
            epsilon=0.01,
            exact_cap=16,
            seed=7,
            initial_states="clean",
        )

    def soak_checkpoint_key() -> str:
        # A fully-deterministic checkpoint (no simulation, fixed streams);
        # pins the accumulator serialization and the state_key contract.
        skew = StreamSummary(epsilon=0.01, exact_cap=4)
        skew.extend([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        skew.flush()
        recovery = StreamSummary(epsilon=0.01, exact_cap=4)
        recovery.extend([10.0, 20.0])
        return SoakCheckpoint(
            spec=soak_variant(),
            epochs_completed=2,
            pulses_completed=50,
            faults_injected=2,
            faults_healed=2,
            recoveries=2,
            skew=skew,
            recovery_s=recovery,
            pulses_per_s=123.0,
            rss_bytes=456,
            wall_time_s=7.5,
        ).state_key()

    def sweep() -> SweepSpec:
        return SweepSpec(
            layers=(2,),
            width=(4,),
            scenario=("uniform_dmax",),
            num_faults=(0, 1),
            runs=2,
        )

    def campaign() -> CampaignSpec:
        return CampaignSpec(name="golden", cells=(sweep(),))

    def array_sweep() -> SweepSpec:
        # The canonical array-engine comparison cell: engine axis pairing the
        # solver with the dense frontier under the deterministic delay
        # models.  Pins the engine name's spelling in the axis.
        return SweepSpec(
            layers=(8,),
            width=(8,),
            engine=("solver", "array"),
            delay_model=("constant", "max_skew"),
            runs=2,
        )

    return {
        "runspec-default": (
            lambda: RunSpec().key(),
            "60a9251e456992a49f9b2c0d81f1e31f",
        ),
        "runspec-variant": (
            lambda: RunSpec(
                layers=3,
                width=8,
                scenario="ramp",
                num_faults=1,
                entropy=42,
                run_index=7,
            ).key(),
            "81fab27cb2ef0ddbf3fd5079499ff373",
        ),
        "runspec-burst": (
            lambda: RunSpec(
                fault_schedule=FaultSchedule.burst(time=5.0, count=2)
            ).key(),
            "f4979a4ce74f95469a90cb1610bfc3f1",
        ),
        "sweepspec-basic": (
            lambda: content_key(sweep().to_json_dict()),
            "a259c4583f6f0a024e12877acd4e1318",
        ),
        "runspec-array-constant": (
            lambda: RunSpec(
                layers=64,
                width=64,
                delay_model="constant",
                entropy=2013,
                run_index=0,
            ).key(),
            "6006a46d90e6431c3524bfd4302b4fe2",
        ),
        "sweepspec-array": (
            lambda: content_key(array_sweep().to_json_dict()),
            "4055c0cbfec142bc3fa83ade36ea86a4",
        ),
        "campaign-golden": (
            lambda: campaign().key(),
            "630b1361902572fe87adbdb885284490",
        ),
        "runtask-first": (
            lambda: next(iter(campaign().tasks())).key(),
            "39721fef9039ba98682b3bef730dbca5",
        ),
        "fault-schedule-burst": (
            lambda: FaultSchedule.burst(time=5.0, count=2).key(),
            "13301e508aec9a1d9dfd226ca119e961",
        ),
        "soakspec-default": (
            lambda: SoakSpec().key(),
            "e4a86ddc1cdcfa60e9beaf1a171a2dcb",
        ),
        "soakspec-variant": (
            lambda: soak_variant().key(),
            "175e84bbaaa9f9a523663024a2794bc7",
        ),
        "soak-checkpoint": (
            soak_checkpoint_key,
            "c4e3a2c2a174d7d54159f0406d329dad",
        ),
    }


def GOLDEN_SPECS() -> Dict[str, Tuple[Callable[[], str], str]]:
    """``name -> (compute_key, expected_key)`` golden spec corpus."""
    return _build_golden_specs()


def golden_key_findings(
    corpus: Dict[str, Tuple[Callable[[], str], str]],
    anchor: str = "engines/base.py",
) -> Iterator[Finding]:
    """The K002 check body: recompute each corpus key and diff against gold."""
    for name in sorted(corpus):
        compute, expected = corpus[name]
        try:
            actual = compute()
        except Exception as error:
            yield Finding(
                rule="K002",
                severity="error",
                path=anchor,
                line=1,
                message=(
                    f"golden spec {name!r} no longer constructs ({error}); "
                    "a spec-API break renames the on-disk corpus -- restore "
                    "compatibility or migrate the golden corpus in "
                    "repro.checks.contentkeys with a documented key migration"
                ),
            )
            continue
        if actual != expected:
            yield Finding(
                rule="K002",
                severity="error",
                path=anchor,
                line=1,
                message=(
                    f"content key of golden spec {name!r} changed: expected "
                    f"{expected}, got {actual}; every stored record/campaign "
                    "key derived from this shape is now unreachable -- revert "
                    "the serialization change or migrate the golden corpus "
                    "deliberately"
                ),
            )


@register_rule(
    id="K001",
    name="contentkey-default-omission",
    severity="error",
    doc=(
        "Defaulted spec fields (RunSpec topology/fault_schedule/initial_states; "
        "SweepSpec delay_model/fault_schedule/topology/initial_states; "
        "RunTask delay_model/fault_schedule/topology/"
        "initial_states; SoakSpec fault_type/initial_states) must be omitted "
        "from canonical JSON at their default "
        "and present otherwise, so adding a defaulted field never renames "
        "existing records.  Not waivable: key migrations edit the manifest in "
        "repro.checks.contentkeys instead."
    ),
)
def check_default_omission(context: CheckContext) -> Iterator[Finding]:
    return omission_findings(context, OMISSION_MANIFESTS())


@register_rule(
    id="K002",
    name="contentkey-golden-corpus",
    severity="error",
    doc=(
        "Content keys of a pinned spec corpus (RunSpec default/variant/burst/"
        "array-constant, SweepSpec basic/array-exact, CampaignSpec, RunTask, "
        "FaultSchedule.burst, SoakSpec "
        "default/variant and a SoakCheckpoint state key) must match "
        "their golden values byte-for-byte; any canonical-JSON or hashing "
        "change shows up as a key diff.  Not waivable: deliberate migrations "
        "update the corpus in repro.checks.contentkeys."
    ),
)
def check_golden_keys(context: CheckContext) -> Iterator[Finding]:
    return golden_key_findings(GOLDEN_SPECS())
