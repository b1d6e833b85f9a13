"""Flat, JSON-serializable per-run results and their aggregation.

A :class:`RunRecord` is the unit the campaign runner produces, the on-disk
store persists and the analysis layer aggregates.  Records are deliberately
*flat* (scalars, strings and two float64 arrays) so they round-trip through
JSON lines and pickling without custom machinery, and *deterministic* given
their task -- with the single exception of :attr:`RunRecord.wall_time_s`,
which measures the host.  The canonical form (:meth:`RunRecord.canonical_dict`)
therefore excludes the wall time; two executions of the same task -- serial or
parallel, today or after a resume -- yield byte-identical canonical JSON.

Aggregation mirrors the paper's pooling discipline: statistics are computed
over the union of all per-run skew samples of a point (not averages of
per-run statistics), which requires the dense trigger-time matrices; campaigns
keep them by default (``CampaignSpec.keep_times``).

The dense payloads are float64 numpy arrays, also after a JSON round trip.
Serialization maps non-finite floats to the sentinel strings ``"NaN"`` /
``"Infinity"`` / ``"-Infinity"`` so record files are *strict* RFC 8259 JSON
lines (bare ``NaN`` tokens would be rejected by ``jq`` and most non-Python
parsers); ``np.asarray(..., dtype=float)`` parses them back, and a ragged or
non-numeric payload fails to load.

A record holds its canonical text (:attr:`RunRecord._canonical`) once it has
one: :meth:`RunRecord.canonical_json` keeps what its first call encodes, and
a record decoded from a verified campaign-store line
(:meth:`StoredRecord.decode`) arrives with its stored text.  Later calls
return the held text instead of re-encoding every float.  The rule that
keeps the text true: a record's text is fixed at its first encode or load, so
a record is changed with :func:`dataclasses.replace` (which drops the held
text, so the copy encodes afresh) and never by assigning to the fields of a
record that may already hold text.  The held text is private and never
compared; only :attr:`RunRecord.wall_time_s`, which the canonical form
excludes, may be assigned at any time.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.skew import SkewStatistics, collect_inter_values, collect_intra_values
from repro.checks.schemas import schema
from repro.core.topology import HexGrid, NodeId
from repro.engines.base import shared_grid
from repro.faults.models import FaultModel, NodeFault
from repro.topologies import DEFAULT_TOPOLOGY, topology_column_wrap

__all__ = [
    "RunRecord",
    "StoredRecord",
    "stand_in_fault_model",
    "record_mask",
    "pooled_statistics",
    "group_by_point",
    "stabilization_times",
]

#: Schema tag written into every serialized record.
SCHEMA = schema("run-record")

#: Sentinel strings for non-finite floats in strict-JSON serialization.
_NONFINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _encode_json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats by their sentinel strings."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, dict):
        return {key: _encode_json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_json_safe(item) for item in value]
    return value


def _dense_to_json(values: Optional[np.ndarray]) -> Optional[list]:
    """Nested lists of a float array, non-finite entries as sentinel strings."""
    if values is None:
        return None
    array = np.asarray(values, dtype=float)
    nested = array.tolist()
    for position in zip(*np.nonzero(~np.isfinite(array))):
        target = nested
        for index in position[:-1]:
            target = target[index]
        target[position[-1]] = _encode_json_safe(float(array[position]))
    return nested


def _dense_from_json(values: Any, ndim: int) -> Optional[np.ndarray]:
    """Inverse of :func:`_dense_to_json`; raises ``ValueError`` on a malformed payload."""
    if values is None:
        return None
    array = np.asarray(values, dtype=float)
    if array.ndim != ndim:
        raise ValueError(f"dense payload has {array.ndim} dimension(s), expected {ndim}")
    return array


def _decode_json_safe(value: Any) -> Any:
    """Inverse of :func:`_encode_json_safe` (sentinel strings back to floats).

    Dict keys and other strings are interned: the JSON decoder gives every
    record its own copy of each ``params`` / ``skew`` key and of values such
    as the engine name, which a loaded store would otherwise hold thousands
    of times over.
    """
    if isinstance(value, str):
        return _NONFINITE[value] if value in _NONFINITE else sys.intern(value)
    if isinstance(value, dict):
        return {sys.intern(key): _decode_json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_json_safe(item) for item in value]
    return value


def _intern_strings(mapping: Dict[str, Any]) -> Dict[str, Any]:
    """:func:`_decode_json_safe` of a sentinel-free dict, one level deep (no decoding)."""
    return {
        sys.intern(key): sys.intern(item) if type(item) is str else item
        for key, item in mapping.items()
    }


@dataclass
class RunRecord:
    """The outcome of one executed :class:`~repro.campaign.spec.RunTask`.

    Attributes
    ----------
    key:
        The task's content hash (cache identity).
    kind:
        ``"single_pulse"`` or ``"multi_pulse"``.
    cell_index, point_index, run_index:
        Position of the run within its campaign.
    params:
        Flat copy of the task parameters (grid, scenario, faults, engine,
        seed-derivation coordinates) for self-describing result files.
    skew:
        Per-run skew summary row (``hops = 0``); single-pulse runs only.
    faulty_nodes:
        The ``(layer, column)`` positions of the run's faulty nodes.
    trigger_times:
        Dense ``(L + 1, W)`` trigger-time matrix (``inf`` for never-fired,
        ``nan`` for faulty nodes) as a float64 array; ``None`` when the
        campaign dropped dense payloads.
    layer0_times:
        The layer-0 firing times of the run (single-pulse, dense payload,
        float64 array).
    stabilization_time:
        Estimated stabilization pulse (1-based; ``NaN`` when the run did not
        stabilize); multi-pulse runs only.
    total_firings:
        Total firings across all correct nodes; multi-pulse runs only.
    wall_time_s:
        Host execution time; excluded from the canonical form.
    _canonical:
        The record's canonical text, returned verbatim by
        :meth:`canonical_json`: kept from its first call, or the stored text
        of a record decoded from a verified store line (see
        :meth:`from_json_dict` and :meth:`StoredRecord.decode`); ``None``
        until then.
    """

    key: str
    kind: str
    cell_index: int
    point_index: int
    run_index: int
    params: Dict[str, Any] = field(default_factory=dict)
    skew: Optional[Dict[str, float]] = None
    faulty_nodes: Tuple[Tuple[int, int], ...] = ()
    trigger_times: Optional[np.ndarray] = None
    layer0_times: Optional[np.ndarray] = None
    stabilization_time: Optional[float] = None
    total_firings: Optional[int] = None
    wall_time_s: float = 0.0
    _canonical: Optional[str] = field(default=None, init=False, compare=False, repr=False)

    # ------------------------------------------------------------------
    # dense-payload accessors
    # ------------------------------------------------------------------
    def trigger_matrix(self) -> np.ndarray:
        """The trigger-time matrix as a float array."""
        if self.trigger_times is None:
            raise ValueError(
                "record carries no dense trigger times (campaign ran with keep_times=False)"
            )
        return np.asarray(self.trigger_times, dtype=float)

    def make_grid(self) -> HexGrid:
        """The grid the run used (reconstructed from the recorded parameters).

        Honours the recorded ``topology`` parameter; its absence means the
        cylinder (records written before the topology layer existed carry no
        such key).  The instance is :func:`~repro.engines.base.shared_grid`'s,
        shared with every record and engine batch on the same grid -- treat
        it as immutable.
        """
        return shared_grid(
            self.params.get("topology", DEFAULT_TOPOLOGY),
            int(self.params["layers"]),
            int(self.params["width"]),
        )

    def column_wrap(self) -> bool:
        """Whether the record's topology wraps the column axis."""
        return topology_column_wrap(self.params.get("topology", DEFAULT_TOPOLOGY))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """Full JSON-serializable representation (including wall time)."""
        payload = self.canonical_dict()
        payload["wall_time_s"] = self.wall_time_s
        return payload

    def canonical_dict(self) -> Dict[str, Any]:
        """The deterministic part of the record (drops :attr:`wall_time_s`).

        Strict-JSON safe: dense arrays become nested lists and non-finite
        floats their sentinel strings.
        """
        return {
            "schema": SCHEMA,
            "key": self.key,
            "kind": self.kind,
            "cell_index": self.cell_index,
            "point_index": self.point_index,
            "run_index": self.run_index,
            "params": _encode_json_safe(dict(self.params)),
            "skew": _encode_json_safe(dict(self.skew)) if self.skew is not None else None,
            "faulty_nodes": [list(node) for node in self.faulty_nodes],
            "trigger_times": _dense_to_json(self.trigger_times),
            "layer0_times": _dense_to_json(self.layer0_times),
            "stabilization_time": _encode_json_safe(self.stabilization_time),
            "total_firings": self.total_firings,
        }

    def canonical_json(self) -> str:
        """Canonical JSON line; byte-identical across re-executions of the task.

        The first call encodes and keeps the text; later calls, and a record
        loaded with its stored canonical text, return the held text.
        """
        if self._canonical is None:
            self._canonical = json.dumps(
                self.canonical_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
            )
        return self._canonical

    @classmethod
    def from_json_dict(
        cls, payload: Dict[str, Any], canonical: Optional[str] = None
    ) -> "RunRecord":
        """Rebuild a record from its (canonical or full) JSON representation.

        ``canonical`` is the record's canonical JSON text as stored, held
        for :meth:`canonical_json`; the caller vouches that it encodes
        ``payload`` under the current :data:`SCHEMA` and fields (a verified
        store line does, see :class:`StoredRecord`).  Text free of sentinel
        strings and escapes skips the recursive sentinel decode of ``params``
        and ``skew`` (it would change nothing).
        """
        plain = canonical is not None and not (
            '"NaN"' in canonical or 'Infinity"' in canonical or "\\" in canonical
        )
        decode = _intern_strings if plain else _decode_json_safe
        skew = payload.get("skew")
        record = cls(
            key=payload["key"],
            kind=payload["kind"],
            cell_index=int(payload["cell_index"]),
            point_index=int(payload["point_index"]),
            run_index=int(payload["run_index"]),
            params=decode(dict(payload.get("params", {}))),
            skew=decode(dict(skew)) if skew is not None else None,
            faulty_nodes=tuple(
                (int(layer), int(column)) for layer, column in payload.get("faulty_nodes", [])
            ),
            trigger_times=_dense_from_json(payload.get("trigger_times"), 2),
            layer0_times=_dense_from_json(payload.get("layer0_times"), 1),
            stabilization_time=_decode_json_safe(payload.get("stabilization_time")),
            total_firings=payload.get("total_firings"),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
        )
        record._canonical = canonical
        return record


class StoredRecord(NamedTuple):
    """A record as a verified campaign-store line holds it, not yet decoded.

    ``text`` is the record's canonical JSON and ``wall_time_s`` its stored
    wall time.  Writing the record again copies ``text``
    (:meth:`canonical_json`); :meth:`decode` builds the :class:`RunRecord`,
    which holds ``text`` for its own :meth:`RunRecord.canonical_json`.
    """

    text: str
    wall_time_s: float

    def canonical_json(self) -> str:
        """The stored canonical text, as :meth:`RunRecord.canonical_json` would return it."""
        return self.text

    def decode(self) -> RunRecord:
        """The record the text encodes, holding the text."""
        payload = json.loads(self.text)
        payload["wall_time_s"] = self.wall_time_s
        return RunRecord.from_json_dict(payload, canonical=self.text)


# ----------------------------------------------------------------------
# aggregation helpers (feeding repro.analysis)
# ----------------------------------------------------------------------
def stand_in_fault_model(grid: HexGrid, positions: Iterable[NodeId]) -> Optional[FaultModel]:
    """A placement-only fault model rebuilt from recorded fault positions.

    Records do not persist per-link fault behaviour (it influenced the
    simulation, not the analysis); correctness and h-hop exclusion masks
    depend only on *where* the faults sat, so a fail-silent stand-in produces
    masks identical to the original model's.
    """
    faults = [NodeFault.fail_silent(grid, node) for node in positions]
    if not faults:
        return None
    return FaultModel(grid, faults)


def record_mask(record: RunRecord, hops: int = 0) -> Optional[np.ndarray]:
    """The inclusion mask of one record for a given fault-exclusion radius."""
    if not record.faulty_nodes:
        return None
    # Aggregation-only dependency: loaded by the first faulty record pooled.
    from repro.analysis.locality import inclusion_mask

    grid = record.make_grid()
    return inclusion_mask(grid, stand_in_fault_model(grid, record.faulty_nodes), hops=hops)


def pooled_statistics(records: Sequence[RunRecord], hops: int = 0) -> SkewStatistics:
    """Pooled skew statistics over a set of single-pulse records.

    This is the paper's set-level aggregation: all per-run intra-/inter-layer
    samples are pooled before the operators are applied, in record order, as
    :meth:`~repro.analysis.skew.SkewStatistics.from_runs` pools a run set.
    """
    if not records:
        raise ValueError("at least one record is required")
    # Pool with each record's own wrap flag: a record list mixing topologies
    # (e.g. records_for(cell_index=...) across a topology axis) must drop the
    # wrap-around pair for its patch runs while keeping it for the cylinders.
    intra_chunks = []
    inter_chunks = []
    for record in records:
        times = record.trigger_matrix()
        mask = record_mask(record, hops=hops)
        wrap = record.column_wrap()
        intra_chunks.append(collect_intra_values([times], [mask], wrap=wrap))
        inter_chunks.append(collect_inter_values([times], [mask], wrap=wrap))
    return SkewStatistics.from_values(
        np.concatenate(intra_chunks), np.concatenate(inter_chunks), num_runs=len(records)
    )


def group_by_point(records: Iterable[RunRecord]) -> Dict[Tuple[int, int], List[RunRecord]]:
    """Records grouped by ``(cell_index, point_index)``."""
    grouped: Dict[Tuple[int, int], List[RunRecord]] = {}
    for record in records:
        grouped.setdefault((record.cell_index, record.point_index), []).append(record)
    return grouped


def stabilization_times(records: Sequence[RunRecord]) -> np.ndarray:
    """Per-run stabilization estimates of a set of multi-pulse records."""
    times = np.full(len(records), np.nan, dtype=float)
    for index, record in enumerate(records):
        if record.stabilization_time is not None:
            times[index] = float(record.stabilization_time)
    return times
