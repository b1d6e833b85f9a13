"""Golden outputs of the Section 4.4 stabilization verdict.

The golden campaign corpus holds one small cylinder multi-pulse cell and the
golden DES corpus pins firings, not how they are binned into pulses or judged
against ``sigma(f, l)``.  This corpus pins the verdict itself:

* ``campaign`` -- the canonical-record sha256 of a multi-pulse DES campaign
  on a 6x5 grid: scenarios (i) and (iii), 6 pulses, 2 runs per point, the
  cylinder, torus, patch and one degraded topology, skew-bound choices
  ``C in {0, 1, 3}``, fault-free and with one Byzantine or fail-silent fault
  (144 records; their stabilization times range over several pulses and
  include runs that never stabilize);
* ``stability`` -- :func:`repro.experiments.stability.run_stabilization_point`
  at the quick configuration with ``f = 2`` and ``C in {0, 3}``: the task keys
  (which carry the explicit timeouts), the record digests and the
  stabilization times;
* ``recovery`` -- :func:`repro.experiments.recovery.run` at the default 50x20
  configuration, 2 runs, bursts 1/2/4: per-run recovery pulses and
  during-burst violation flags;
* ``skew_series`` -- ``pulse_skew_series`` of one cylinder and one patch run.

Floats are stored as JSON numbers (exact ``repr`` round trip), ``NaN`` as
``null``.  An intended output change shows up as an edit of
``data/golden_stabilization.json``; regenerate it with::

    PYTHONPATH=src python tests/test_golden_stabilization.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import pytest

from repro.analysis.stabilization import pulse_skew_series
from repro.campaign import CampaignRunner, CampaignSpec, RunRecord, SweepSpec
from repro.checks.schemas import schema
from repro.engines import RunSpec, get_engine
from repro.experiments import recovery, stability
from repro.experiments.config import ExperimentConfig

MANIFEST = Path(__file__).resolve().parent / "data" / "golden_stabilization.json"
SCHEMA = schema("golden-stabilization")

TOPOLOGIES = ("cylinder", "torus", "patch", "degraded:nodes=2,seed=3")


def _floats(values: Sequence[float]) -> List[Optional[float]]:
    """JSON-ready floats: ``NaN`` becomes ``None``."""
    return [None if math.isnan(float(v)) else float(v) for v in values]


def _digest(record: RunRecord) -> str:
    return hashlib.sha256(record.canonical_json().encode("utf-8")).hexdigest()


def campaign_spec() -> CampaignSpec:
    """The pinned multi-pulse campaign (144 records)."""
    cells = []
    for skew_choice in (0, 1, 3):
        for num_faults, fault_types in ((0, ("byzantine",)), (1, ("byzantine", "fail_silent"))):
            cells.append(
                SweepSpec(
                    layers=6, width=5, scenario=("i", "iii"), num_faults=num_faults,
                    fault_type=fault_types, topology=TOPOLOGIES, engine="des",
                    kind="multi_pulse", num_pulses=6, runs=2, seed_salt=11,
                    skew_choice=skew_choice,
                )
            )
    return CampaignSpec(name="golden-stabilization", seed=2013, cells=tuple(cells))


def compute_campaign() -> Dict[str, Any]:
    records = CampaignRunner(campaign_spec()).run().records
    return {
        "records": {
            f"{r.cell_index}/{r.point_index}/{r.run_index}": _digest(r) for r in records
        },
        "stabilization_times": _floats([r.stabilization_time for r in records]),
    }


class _RecordingRunner(CampaignRunner):
    """A :class:`CampaignRunner` that keeps every campaign it ran."""

    results: List[Any] = []

    def run(self, *args, **kwargs):
        result = super().run(*args, **kwargs)
        _RecordingRunner.results.append(result)
        return result


def compute_stability() -> Dict[str, Any]:
    config = ExperimentConfig.quick()
    computed: Dict[str, Any] = {}
    original = stability.CampaignRunner
    stability.CampaignRunner = _RecordingRunner
    try:
        for skew_choice in (0, 3):
            _RecordingRunner.results = []
            point = stability.run_stabilization_point(
                config, "iii", 2, skew_choice=skew_choice
            )
            (campaign,) = _RecordingRunner.results
            computed[f"C={skew_choice}"] = {
                "keys": [r.key for r in campaign.records],
                "records": [_digest(r) for r in campaign.records],
                "stabilization_times": _floats(point.stabilization_times),
            }
    finally:
        stability.CampaignRunner = original
    return computed


def compute_recovery() -> Dict[str, Any]:
    experiment = recovery.run(ExperimentConfig(), runs=2)
    return {
        f"f={point.num_faults}": {
            "recovery": _floats(point.recovery),
            "violated_during": [bool(v) for v in point.violated_during],
        }
        for point in experiment.points
    }


def compute_skew_series() -> Dict[str, Any]:
    engine = get_engine("des")
    computed: Dict[str, Any] = {}
    for index, topology in enumerate(("cylinder", "patch")):
        spec = RunSpec(
            kind="multi_pulse", layers=6, width=5, scenario="iii", num_faults=1,
            num_pulses=6, topology=topology, entropy=2013, run_index=index,
        )
        computed[topology] = _floats(pulse_skew_series(engine.run(spec)))
    return computed


SECTIONS = {
    "campaign": compute_campaign,
    "stability": compute_stability,
    "recovery": compute_recovery,
    "skew_series": compute_skew_series,
}


def load_manifest() -> Dict[str, Any]:
    payload = json.loads(MANIFEST.read_text())
    assert payload["schema"] == SCHEMA
    return payload["sections"]


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_section_matches_golden(section):
    assert SECTIONS[section]() == load_manifest()[section]


def test_campaign_pin_is_sensitive():
    """The pinned campaign spans several stabilization times and some NaNs."""
    times = load_manifest()["campaign"]["stabilization_times"]
    assert len(times) == campaign_spec().num_tasks == 144
    assert None in times
    assert len({t for t in times if t is not None}) >= 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the manifest from the current code"
    )
    args = parser.parse_args(argv)
    computed = {name: compute() for name, compute in SECTIONS.items()}
    if args.write:
        MANIFEST.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": SCHEMA, "sections": computed}
        MANIFEST.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(computed)} sections to {MANIFEST}")
        return 0
    manifest = load_manifest()
    stale = [name for name, value in computed.items() if manifest.get(name) != value]
    print(f"{len(computed) - len(stale)}/{len(computed)} sections match; stale: {stale}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
