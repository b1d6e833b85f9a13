"""Golden canonical-record digests of one mixed campaign, serial and pooled.

The serial == parallel tests elsewhere compare the two execution paths with
each other, so a change that shifts both the same way passes them.  This
corpus pins what a campaign *produces*: the sha256 of every record's
canonical JSON, for one campaign that mixes

* solver and DES single-pulse cells, fault-free and with Byzantine faults;
* array single-pulse cells (the array engine runs fault-free only);
* one DES multi-pulse (stabilization) cell,

replayed in-process (``workers=1``, batched chunks) and on a two-worker
pool (``workers=2``), each with and without a store (with one, pool workers
encode the canonical text the parent stores and serves).  The manifest
lives in ``data/golden_campaign.json``; an intended output change shows up
as an edit of it.  Regenerate with::

    PYTHONPATH=src python tests/test_golden_campaign.py --write
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, RunRecord, SweepSpec
from repro.checks.schemas import schema

MANIFEST = Path(__file__).resolve().parent / "data" / "golden_campaign.json"
SCHEMA = schema("golden-campaign")


def golden_spec() -> CampaignSpec:
    """The pinned mixed campaign (22 tasks, under a second serially)."""
    return CampaignSpec(
        name="golden-campaign",
        seed=2013,
        cells=(
            SweepSpec(
                layers=8, width=6, scenario=("i", "iii"), num_faults=(0, 2),
                engine=("solver", "des"), runs=2, seed_salt=5,
            ),
            SweepSpec(
                layers=8, width=6, scenario=("i", "iii"), num_faults=0,
                engine="array", runs=2, seed_salt=6,
            ),
            SweepSpec(
                layers=6, width=4, scenario="i", num_faults=1, engine="des",
                kind="multi_pulse", num_pulses=4, runs=2, seed_salt=7,
            ),
        ),
    )


def record_digests(records: Sequence[RunRecord]) -> Dict[str, str]:
    """``"cell/point/run" -> sha256(canonical JSON)`` of every record."""
    return {
        f"{r.cell_index}/{r.point_index}/{r.run_index}": hashlib.sha256(
            r.canonical_json().encode("utf-8")
        ).hexdigest()
        for r in records
    }


def _load_manifest() -> Dict[str, str]:
    payload = json.loads(MANIFEST.read_text())
    assert payload["schema"] == SCHEMA
    return payload["records"]


@pytest.mark.parametrize(
    "workers, stored",
    [
        pytest.param(1, False, id="1"),
        pytest.param(2, False, id="2"),
        pytest.param(1, True, id="1-store"),
        pytest.param(2, True, id="2-store"),
    ],
)
def test_campaign_records_match_golden(workers, stored, tmp_path):
    store = tmp_path if stored else None
    result = CampaignRunner(golden_spec(), workers=workers, store=store).run()
    if stored:
        # Every record arrives holding the text its store line was framed
        # from (encoded in the pool worker when workers > 1), and that text
        # equals a fresh encode of its fields.
        for r in result.records:
            assert r._canonical is not None
            assert r.canonical_json() == dataclasses.replace(r).canonical_json()
    assert record_digests(result.records) == _load_manifest()


def test_manifest_covers_every_task():
    spec = golden_spec()
    kinds = {(task.kind, task.engine, task.num_faults > 0) for task in spec.tasks()}
    assert ("single_pulse", "solver", True) in kinds
    assert ("single_pulse", "des", True) in kinds
    assert ("single_pulse", "array", False) in kinds
    assert any(kind == "multi_pulse" for kind, _, _ in kinds)
    assert len(_load_manifest()) == spec.num_tasks


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the manifest from a serial run"
    )
    args = parser.parse_args(argv)
    computed = record_digests(CampaignRunner(golden_spec()).run().records)
    if args.write:
        MANIFEST.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": SCHEMA, "records": computed}
        MANIFEST.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(computed)} record digests to {MANIFEST}")
        return 0
    stale = [key for key, value in computed.items() if _load_manifest().get(key) != value]
    print(f"{len(computed) - len(stale)}/{len(computed)} records match; stale: {stale}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
