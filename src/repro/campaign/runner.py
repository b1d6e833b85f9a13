"""Campaign execution: serial or process-pool fan-out over run tasks.

:func:`execute_task_batch` is the one executor: it turns a chunk of
:class:`~repro.campaign.spec.RunTask` objects of one ``(kind, engine)`` into
:class:`~repro.campaign.records.RunRecord` objects with a single
``engine.run_batch`` call.  The engine comes from the registry
(:func:`repro.engines.get_engine`) and reproduces the historical per-run
bodies exactly -- same generator, same draw order (layer-0 times, fault
placement, fault behaviour, link delays for single-pulse runs; fault
placement, pulse schedule, simulation draws for multi-pulse runs).  Because a
task rebuilds its generator from ``(entropy, run_index)`` alone, and the
engine contract keeps ``run_batch`` bit-identical to per-spec ``run`` calls,
the records do not depend on which process executes a task, in which order or
in which chunk: a campaign run with ``workers=8`` produces canonically
byte-identical records to a serial run.

:class:`CampaignRunner` expands a spec, consults the optional on-disk store
for already-completed tasks (``resume=True``), executes the remainder,
persists results as they complete (so an interrupted campaign resumes where
it stopped) and returns the records in deterministic task order.  A cache
hit from a verified store line whose coordinates and params are the task's
stays the line's canonical text until :attr:`CampaignResult.records` is
read, so a resume that only writes ``--out`` decodes none of it.

Both execution paths cut the pending tasks into the same chunks: runs of
consecutive tasks of one ``(kind, engine)``.  A single-pulse chunk holds at
most :data:`BATCH_SIZE` tasks in process and
``min(BATCH_SIZE, ceil(pending / (4 * workers)))`` on the pool, so same-grid
sweep cells amortize topology construction and the solver's plan-compiled
sweep.  A multi-pulse chunk holds one task, so each slow discrete-event
record is persisted before the next task starts.

The pool is a :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker
runs its chunk under a fresh in-memory observability session
(:class:`repro.obs.worker_session`) and returns ``(records, spans,
metrics)`` on the one result channel; the parent folds the telemetry into
its own trace and registry (:func:`repro.obs.absorb_worker`) and appends the
records to the store.  When the runner has a store, each worker encodes its
records' canonical text before returning them (:meth:`RunRecord.canonical_json`
keeps it), so every record is encoded once, in the process that ran it, and
the parent's store append and ``--out`` write only copy strings.  A worker
that dies (killed by a signal or the OOM killer) breaks the pool: the runner
keeps every record that did come back and raises a :class:`RuntimeError`
naming the lost tasks, so a ``resume`` run finishes them instead of the
campaign hanging.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import obs
from repro.analysis.skew import SkewStatistics
from repro.campaign.progress import ProgressReporter
from repro.campaign.records import (
    RunRecord,
    StoredRecord,
    group_by_point,
    pooled_statistics,
    stabilization_times,
)
from repro.campaign.spec import CampaignSpec, RunTask, executing_engine, task_key
from repro.campaign.store import CampaignStore
from repro.clocksource.scenarios import parse_scenario, scenario_layer0_spread

__all__ = [
    "BATCH_SIZE",
    "execute_task_batch",
    "CampaignResult",
    "CampaignRunner",
]

#: Most single-pulse tasks one ``engine.run_batch`` call executes; the pool
#: cuts smaller chunks when that keeps its workers balanced.
BATCH_SIZE = 32


def _record(task: RunTask, result) -> RunRecord:
    """The campaign record of one engine result."""
    fault_model = result.fault_model
    faulty = tuple(fault_model.faulty_nodes()) if fault_model is not None else ()
    params = task.to_json_dict()
    record = RunRecord(
        key=task_key(params),
        kind=task.kind,
        cell_index=task.cell_index,
        point_index=task.point_index,
        run_index=task.run_index,
        params=params,
        faulty_nodes=faulty,
    )
    if task.kind == "single_pulse":
        mask = fault_model.correctness_mask() if fault_model is not None else None
        # The clock-tree engine reports a sink-array matrix whose shape differs
        # from the hex grid's; its rows/columns are plain physical adjacency, so
        # the (wrapping) default applies.  Hex grids report their own wrap flag.
        wrap = bool(getattr(result.grid, "column_wrap", True))
        record.skew = SkewStatistics.from_times(result.trigger_times, mask, wrap=wrap).as_row()
        if task.keep_times:
            record.trigger_times = result.trigger_times
            record.layer0_times = result.layer0_times
        return record

    # Stabilization analysis: only multi-pulse records load it.
    from repro.analysis.stabilization import sigma_bound, stabilization_time

    grid = result.grid
    timing = result.timing
    layer0_spread = scenario_layer0_spread(parse_scenario(task.scenario), grid.width, timing)
    estimate = stabilization_time(
        result,
        sigma_bound(
            grid, timing, task.skew_choice, task.num_faults, layer0_spread=layer0_spread
        ),
    )
    record.stabilization_time = float(estimate) if estimate is not None else float("nan")
    record.total_firings = result.total_firings()
    return record


def execute_task_batch(tasks: Sequence[RunTask]) -> List[RunRecord]:
    """Execute a chunk of same-``(kind, engine)`` tasks in one engine call.

    The one executor of campaign tasks: it resolves the engine once (through
    :func:`~repro.campaign.spec.executing_engine`, so an unknown
    ``task.engine`` fails with the list of registered engines before any
    simulation work starts, and multi-pulse tasks run on ``"des"``)
    and hands the whole chunk to ``engine.run_batch``, so same-grid sweep
    cells share topology construction and the solver's plan-compiled fast
    path.  The engine contract keeps batched results bit-identical to
    per-spec ``run`` calls, and every task rebuilds its generator from its
    seed coordinates, so the records are deterministic given the tasks,
    whatever process runs them and however they are chunked.  Only
    :attr:`RunRecord.wall_time_s` -- which the canonical form excludes --
    depends on the chunk: it is stamped as the chunk's per-task average.
    """
    if not tasks:
        return []
    kind, engine_name = tasks[0].kind, tasks[0].engine
    for task in tasks:
        if (task.kind, task.engine) != (kind, engine_name):
            raise ValueError(
                "execute_task_batch needs tasks of one kind and engine; got "
                f"kind={task.kind!r} engine={task.engine!r} in a "
                f"{kind!r}/{engine_name!r} batch"
            )
    start = time.perf_counter()
    with obs.span(
        "campaign.task_batch", engine=engine_name, kind=kind, size=len(tasks)
    ) as batch_span:
        usage = obs.resources.snapshot() if obs.enabled() else None
        engine = executing_engine(kind, engine_name)
        results = engine.run_batch([task.to_run_spec() for task in tasks])
        records = [_record(task, result) for task, result in zip(tasks, results)]
        if usage is not None:
            batch_span.set(**obs.resources.delta_attrs(usage))
    share = (time.perf_counter() - start) / len(tasks)
    for record in records:
        record.wall_time_s = share
    obs.inc("campaign.batches")
    obs.inc("campaign.tasks_executed", len(tasks))
    return records


WorkerResult = Tuple[List[RunRecord], List[Dict[str, Any]], Optional[Dict[str, Any]]]


def _execute_chunk_in_worker(
    tasks: Sequence[RunTask], telemetry: Optional[obs.WorkerTelemetry], encode: bool
) -> WorkerResult:
    """Pool entry point: one chunk's ``(records, spans, metrics snapshot)``.

    With ``encode`` every record encodes its canonical text here, in the
    worker; the text travels back with the record, so the parent's store
    append and ``--out`` write copy it instead of encoding.
    """
    with obs.worker_session(telemetry) as session:
        records = execute_task_batch(tasks)
        if encode:
            for record in records:
                record.canonical_json()
    return records, session.spans, session.metrics


def _chunks(
    pending: Sequence[Tuple[int, RunTask]], size: int
) -> Iterator[List[Tuple[int, RunTask]]]:
    """Cut ``pending`` into runs of consecutive same-``(kind, engine)`` tasks.

    Single-pulse chunks hold at most ``size`` tasks; a multi-pulse chunk
    holds one, so each slow DES record is persisted before the next starts.
    """
    chunk: List[Tuple[int, RunTask]] = []
    for index, task in pending:
        if chunk:
            last = chunk[-1][1]
            limit = size if last.kind == "single_pulse" else 1
            if len(chunk) >= limit or (task.kind, task.engine) != (last.kind, last.engine):
                yield chunk
                chunk = []
        chunk.append((index, task))
    if chunk:
        yield chunk


def _format_indices(indices: Sequence[int]) -> str:
    """``[0, 1, 2, 5, 7, 8]`` -> ``"0-2, 5, 7-8"``."""
    ranges: List[List[int]] = []
    for index in sorted(indices):
        if ranges and index == ranges[-1][1] + 1:
            ranges[-1][1] = index
        else:
            ranges.append([index, index])
    return ", ".join(f"{lo}-{hi}" if hi > lo else str(lo) for lo, hi in ranges)


_PARAMS = ',"params":'
_DECODER = json.JSONDecoder()


def _in_place(text: str, task: RunTask, params: Dict[str, Any]) -> bool:
    """Whether a stored canonical ``text`` has the task's coordinates and params.

    The check of a verbatim hit, made on the text: the record's sorted keys
    put ``cell_index`` first and ``point_index``, ``run_index`` right after
    ``params``, so only the ``params`` object is decoded.
    """
    if not text.startswith(f'{{"cell_index":{task.cell_index},'):
        return False
    start = text.index(_PARAMS) + len(_PARAMS)
    stored, end = _DECODER.raw_decode(text, start)
    return stored == params and text.startswith(
        f',"point_index":{task.point_index},"run_index":{task.run_index},', end
    )


@dataclass
class CampaignResult:
    """The outcome of a campaign run.

    Attributes
    ----------
    spec:
        The executed specification.
    records:
        One record per task, in deterministic task order (cells, then points,
        then run indices).  Cache hits served verbatim are kept as their
        stored text and decoded the first time this is read.
    executed, cached:
        How many tasks were simulated vs served from the store.
    wall_time_s:
        End-to-end campaign wall time.
    """

    spec: CampaignSpec
    executed: int = 0
    cached: int = 0
    wall_time_s: float = 0.0
    _entries: List[Union[RunRecord, StoredRecord]] = field(
        default_factory=list, init=False, repr=False
    )
    _decoded: bool = field(default=False, init=False, repr=False)

    @property
    def records(self) -> List[RunRecord]:
        """The records in task order, verbatim hits decoded on the first read."""
        if not self._decoded:
            self._entries = [
                entry.decode() if type(entry) is StoredRecord else entry
                for entry in self._entries
            ]
            self._decoded = True
        return self._entries

    def canonical_texts(self) -> Iterator[str]:
        """Each record's canonical JSON in task order, without decoding a verbatim hit."""
        return (entry.canonical_json() for entry in self._entries)

    def records_for(
        self, cell_index: Optional[int] = None, point_index: Optional[int] = None
    ) -> List[RunRecord]:
        """Records filtered by cell and/or point index."""
        return [
            record
            for record in self.records
            if (cell_index is None or record.cell_index == cell_index)
            and (point_index is None or record.point_index == point_index)
        ]

    def point_statistics(
        self, cell_index: int, point_index: int, hops: int = 0
    ) -> SkewStatistics:
        """Pooled skew statistics of one grid point (single-pulse campaigns)."""
        return pooled_statistics(self.records_for(cell_index, point_index), hops=hops)

    def point_stabilization_times(self, cell_index: int, point_index: int) -> np.ndarray:
        """Per-run stabilization estimates of one point (multi-pulse campaigns)."""
        return stabilization_times(self.records_for(cell_index, point_index))

    def grouped(self) -> Dict[Tuple[int, int], List[RunRecord]]:
        """Records grouped by ``(cell_index, point_index)``."""
        return group_by_point(self.records)

    def wall_time_summary(self) -> Dict[str, float]:
        """Roll the per-task wall times up into a per-campaign summary.

        Aggregates the :attr:`RunRecord.wall_time_s` every record carries
        (workers stamp theirs, so the parallel path aggregates too; cached
        records keep the wall time of their original execution).  Keys:
        ``tasks``, ``executed``, ``cached``, ``task_total_s``,
        ``task_mean_s``, ``task_median_s``, ``task_p95_s``, ``tasks_per_s``
        (executed tasks per second of campaign wall time) and
        ``wall_time_s``.
        """
        times = sorted(
            entry.wall_time_s
            for entry in self._entries
            if entry.wall_time_s and math.isfinite(entry.wall_time_s)
        )
        # One quantile/moment implementation for campaigns and soak runs
        # (repro.stream).  exact_cap=None keeps the accumulator exact, so
        # total/median/p95 stay bit-identical to the historical
        # float(sum(...)) / np.median / np.percentile(..., 95) spellings.
        from repro.stream import StreamingMoments, StreamingQuantiles

        moments = StreamingMoments()
        quantiles = StreamingQuantiles(exact_cap=None)
        for value in times:
            moments.add(value)
            quantiles.add(value)
        total = moments.total
        summary = {
            "tasks": float(len(self._entries)),
            "executed": float(self.executed),
            "cached": float(self.cached),
            "task_total_s": total,
            "task_mean_s": total / len(times) if times else 0.0,
            "task_median_s": quantiles.median() if times else 0.0,
            "task_p95_s": quantiles.quantile(0.95) if times else 0.0,
            "tasks_per_s": (
                self.executed / self.wall_time_s if self.wall_time_s > 0 else 0.0
            ),
            "wall_time_s": float(self.wall_time_s),
        }
        return summary


class CampaignRunner:
    """Expand a campaign spec and execute it, serially or on a process pool.

    Parameters
    ----------
    spec:
        The campaign to run.
    workers:
        Number of worker processes; ``1`` executes in-process (no pool).
    store:
        Optional on-disk result cache -- a :class:`CampaignStore` or a
        directory path.  Completed records are appended as they arrive, so an
        interrupted campaign leaves a valid shard behind.
    resume:
        Reuse records already present in the store instead of re-simulating
        them.  Without ``resume`` an existing shard is overwritten.
    progress:
        ``True`` for a stderr progress/ETA line, a ready-made
        :class:`ProgressReporter`, or ``None``/``False`` for silence.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 1,
        store: Optional[Union[CampaignStore, str]] = None,
        resume: bool = False,
        progress: Union[bool, ProgressReporter, None] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers = workers
        if store is not None and not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        self.store = store
        if resume and store is None:
            raise ValueError("resume=True requires a store")
        self.resume = resume
        if progress is True:
            progress = ProgressReporter(total=spec.num_tasks, label=spec.name)
        elif progress is False:
            progress = None
        self.progress = progress

    def run(self) -> CampaignResult:
        """Execute the campaign and return its ordered records."""
        with obs.span(
            "campaign.run", campaign=self.spec.name, workers=self.workers
        ):
            return self._run()

    def _run(self) -> CampaignResult:
        start = time.perf_counter()
        with obs.span("campaign.expand") as span:
            tasks = self.spec.tasks()
            span.set(tasks=len(tasks))

        cached: Dict[str, Union[StoredRecord, RunRecord]] = {}
        unsummed: Set[str] = set()
        if self.store is not None and self.resume:
            cached = self.store.load(self.spec, unsummed)

        by_index: Dict[int, Union[StoredRecord, RunRecord]] = {}
        pending: List[Tuple[int, RunTask]] = []
        reframed: List[RunRecord] = []
        verbatim = 0
        for index, task in enumerate(tasks):
            # Hashing every task is only worthwhile when there is a cache to
            # probe; the executor stamps record keys itself.
            hit = key = None
            if cached:
                params = task.to_json_dict()
                key = task_key(params)
                hit = cached.get(key)
            if hit is None:
                pending.append((index, task))
            elif type(hit) is StoredRecord and _in_place(hit.text, task, params):
                # Unmoved, from a verified line: serve the stored text, decoded
                # only when the records are read.  Coordinates are unique per
                # task, so no other task takes this path for the same line.
                by_index[index] = hit
                verbatim += 1
            else:
                # Re-encoded: a hit moved by a spec revision, a twin of a cell
                # differing only in label, or one from a line that did not
                # verify.  It is served as an independent copy with the
                # *current* campaign coordinates; ``replace`` drops any stored
                # text, so the copy re-encodes.
                if type(hit) is StoredRecord:
                    hit = hit.decode()
                record = by_index[index] = dataclasses.replace(
                    hit,
                    cell_index=task.cell_index,
                    point_index=task.point_index,
                    run_index=task.run_index,
                    params=params,
                )
                if key in unsummed:
                    # A line with no sum (an older writer): frame it anew
                    # once the shard is open, so the next resume serves it
                    # verbatim.
                    unsummed.discard(key)
                    reframed.append(record)

        if self.progress is not None:
            self.progress.start(cached=len(by_index))
        obs.inc("campaign.cache_hits", len(by_index))
        obs.inc("campaign.hits_verbatim", verbatim)
        obs.inc("campaign.hits_reencoded", len(by_index) - verbatim)
        obs.inc("campaign.tasks", len(tasks))

        result = CampaignResult(spec=self.spec, cached=len(by_index))
        writer_ctx = (
            self.store.open_writer(self.spec, append=self.resume)
            if self.store is not None
            else None
        )
        try:
            for record in reframed:
                writer_ctx.append(record)
            for index, record in self._execute_pending(pending):
                by_index[index] = record
                result.executed += 1
                if writer_ctx is not None:
                    writer_ctx.append(record)
                if self.progress is not None:
                    self.progress.advance()
        finally:
            if writer_ctx is not None:
                writer_ctx.close()
            if self.progress is not None:
                self.progress.finish()

        result._entries = [by_index[index] for index in range(len(tasks))]
        result.wall_time_s = time.perf_counter() - start
        if obs.metrics_enabled():
            summary = result.wall_time_summary()
            for key in ("task_total_s", "task_median_s", "task_p95_s", "tasks_per_s"):
                obs.gauge(f"campaign.{key}", summary[key])
            if result.wall_time_s > 0:
                # Fraction of the worker-seconds budget spent inside tasks;
                # ~1.0 means the pool (or the serial loop) ran saturated.
                obs.gauge(
                    "campaign.worker_utilization",
                    summary["task_total_s"] / (self.workers * result.wall_time_s),
                )
            # Orchestrator-process resource accounting; worker CPU/RSS arrives
            # separately through the worker.* metrics fan-in.
            for name, value in obs.resources.usage_gauges("campaign").items():
                obs.gauge(name, value)
        return result

    def _execute_pending(self, pending: Sequence[Tuple[int, RunTask]]):
        """Yield ``(index, record)`` pairs as tasks complete."""
        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for chunk in _chunks(pending, BATCH_SIZE):
                records = execute_task_batch([task for _, task in chunk])
                yield from zip((index for index, _ in chunk), records)
            return
        # Imported here: serial runs (and resumes, and soaks) never pay for
        # loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.workers, len(pending))
        size = min(BATCH_SIZE, math.ceil(len(pending) / (workers * 4)))
        telemetry = obs.worker_telemetry()
        # A campaign with a store serializes every record it executes, so its
        # workers encode; one without a store may never serialize.
        encode = self.store is not None
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                pool.submit(
                    _execute_chunk_in_worker, [task for _, task in chunk], telemetry, encode
                ): [index for index, _ in chunk]
                for chunk in _chunks(pending, size)
            }
            lost: List[int] = []
            for future in as_completed(futures):
                indices = futures[future]
                try:
                    records, spans, metrics = future.result()
                except BrokenProcessPool:
                    lost.extend(indices)
                    continue
                obs.absorb_worker(spans, metrics)
                yield from zip(indices, records)
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        if lost:
            hint = (
                "; the records that came back are in the store, rerun with "
                "resume to finish the rest"
                if self.store is not None
                else ""
            )
            raise RuntimeError(
                f"campaign {self.spec.name!r}: a pool worker died and {len(lost)} "
                f"task(s) were lost (task indices {_format_indices(lost)}){hint}"
            )
