"""The ``sweep`` verb of ``hex-repro``.

:mod:`repro.campaign` imports this module with the rest of the package, so
building a campaign spec loads every module a sweep runs (see DESIGN.md
"Start-up"); :mod:`repro.cli` reaches it only when ``sweep`` is dispatched.
"""

from __future__ import annotations

import argparse
from typing import List

import numpy as np

from repro import obs
from repro.campaign.records import pooled_statistics, stabilization_times
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.clocksource.scenarios import scenario_label
from repro.engines import get_engine
from repro.faults.models import FaultType

__all__ = ["DEFAULT_STORE_DIR", "sweep_command"]

#: Default directory of the ``sweep`` result cache.
DEFAULT_STORE_DIR = ".hex-campaigns"

#: Sweep flags that conflict with --spec, with their argparse defaults.
_SPEC_EXCLUSIVE_FLAGS = {
    "--name": ("name", "sweep"),
    "--layers": ("layers", [50]),
    "--width": ("width", [20]),
    "--scenarios": ("scenarios", ["i"]),
    "--faults": ("faults", [0]),
    "--fault-type": ("fault_type", FaultType.BYZANTINE.value),
    "--engine": ("engine", ["solver"]),
    "--delay-model": ("delay_model", ["default"]),
    "--fault-schedule": ("fault_schedule", None),
    "--topology": ("topology", ["cylinder"]),
    "--runs": ("runs", 10),
    "--seed": ("seed", 2013),
    "--salt": ("salt", 0),
}


def _sweep_spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    if args.spec is not None:
        # The spec file is authoritative; reject grid flags rather than
        # silently ignoring them (e.g. --spec f.json --runs 250).
        overridden = [
            flag
            for flag, (attr, default) in _SPEC_EXCLUSIVE_FLAGS.items()
            if getattr(args, attr) != default
        ]
        if overridden:
            raise ValueError(
                f"--spec is exclusive with {', '.join(overridden)}; "
                "edit the spec file instead"
            )
        return CampaignSpec.from_file(args.spec)
    for engine in args.engine:
        # Fail before the campaign is built so a typo surfaces as a one-line
        # CLI error listing the registered engines.
        get_engine(engine)
    if args.fault_schedule is not None:
        from repro.adversary.cli import load_schedule_axis

        schedule_axis = load_schedule_axis(args.fault_schedule)
    else:
        schedule_axis = (None,)
    cell = SweepSpec(
        layers=tuple(args.layers),
        width=tuple(args.width),
        scenario=tuple(args.scenarios),
        num_faults=tuple(args.faults),
        fault_type=args.fault_type,
        engine=tuple(args.engine),
        delay_model=tuple(args.delay_model),
        fault_schedule=schedule_axis,
        topology=tuple(args.topology),
        runs=args.runs,
        seed_salt=args.salt,
    )
    return CampaignSpec(name=args.name, seed=args.seed, cells=(cell,))


def _render_sweep_summary(result: CampaignResult) -> str:
    """Per-point summary table of a finished campaign."""
    # repro: allow-import[the summary table, loaded only when it is printed]
    from repro.experiments.report import format_table

    single_rows: List[List[object]] = []
    multi_rows: List[List[object]] = []
    for (cell_index, point_index), records in result.grouped().items():
        params = records[0].params
        label = [
            cell_index,
            point_index,
            f"{params['layers']}x{params['width']}",
            params.get("topology", "cylinder"),
            scenario_label(params["scenario"]),
            params["num_faults"],
            params.get("fault_type") or "-",
            params["engine"],
            len(records),
        ]
        if records[0].kind == "single_pulse" and records[0].trigger_times is not None:
            row = pooled_statistics(records).as_row()
            single_rows.append(
                label
                + [row["intra_avg"], row["intra_q95"], row["intra_max"], row["inter_max"]]
            )
        elif records[0].kind == "multi_pulse":
            times = stabilization_times(records)
            finite = times[np.isfinite(times)]
            multi_rows.append(
                label
                + [
                    float(finite.mean()) if finite.size else float("nan"),
                    int(finite.size),
                ]
            )
        else:  # summary-only records (keep_times=False)
            single_rows.append(label + [float("nan")] * 4)
    parts: List[str] = []
    if single_rows:
        headers = [
            "cell", "pt", "grid", "topology", "scenario", "f", "fault_type", "engine", "runs",
            "intra_avg", "intra_q95", "intra_max", "inter_max",
        ]
        parts.append(format_table(headers, single_rows, title=f"Campaign {result.spec.name}"))
    if multi_rows:
        headers = [
            "cell", "pt", "grid", "topology", "scenario", "f", "fault_type", "engine", "runs",
            "stab_avg", "stabilized",
        ]
        parts.append(
            format_table(headers, multi_rows, title=f"Campaign {result.spec.name} (stabilization)")
        )
    return "\n\n".join(parts)


def sweep_command(args: argparse.Namespace) -> int:
    store = args.store
    if store is None and args.resume:
        store = DEFAULT_STORE_DIR
    # Flags -> validated spec; validation imports the swept engines.
    with obs.span("cli.parse"):
        spec = _sweep_spec_from_args(args)
    runner = CampaignRunner(
        spec,
        workers=args.workers,
        store=store,
        resume=args.resume,
        progress=not args.quiet,
    )
    result = runner.run()

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            for text in result.canonical_texts():
                handle.write(text + "\n")

    if not args.quiet:
        print(_render_sweep_summary(result))
        print()
        print(
            f"{spec.num_tasks} tasks: {result.executed} simulated, "
            f"{result.cached} from cache, {result.wall_time_s:.2f}s wall time"
            + (f", records -> {args.out}" if args.out is not None else "")
        )
        times = result.wall_time_summary()
        print(
            f"task wall time: total {times['task_total_s']:.2f}s, "
            f"median {times['task_median_s'] * 1e3:.1f}ms, "
            f"p95 {times['task_p95_s'] * 1e3:.1f}ms, "
            f"{times['tasks_per_s']:.1f} tasks/s"
        )
    return 0
