"""The ``adversary`` verb of ``hex-repro``, and the schedule-file loader
that ``sweep --fault-schedule`` shares with it.

:mod:`repro.cli` imports this module only when ``adversary`` is dispatched
(see DESIGN.md "Start-up").
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.adversary.schedule import BUILTIN_GENERATORS, FaultSchedule
from repro.core.topology import HexGrid

__all__ = ["adversary_command", "load_schedule_axis"]


def load_schedule_axis(path: str) -> tuple:
    """Load one schedule (object) or several (top-level list) from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, list):
        if not payload:
            raise ValueError(f"{path}: schedule list must not be empty")
        return tuple(FaultSchedule.from_json_dict(item) for item in payload)
    return (FaultSchedule.from_json_dict(payload),)


def adversary_command(args: argparse.Namespace) -> int:
    if args.action == "list":
        print("Built-in fault-schedule generators (repro.adversary.FaultSchedule):")
        for name, (_factory, description, example) in sorted(BUILTIN_GENERATORS.items()):
            print(f"  {name:18s} {description}")
            print(f"  {'':18s}   e.g. FaultSchedule.{name}({_format_kwargs(example)})")
        print()
        print(
            "Schedule files are JSON: "
            '{"schema": "hex-repro/fault-schedule/v1", "label": "...", '
            '"directives": [{"kind": "burst", "time": 100.0, "count": 3, ...}, ...]}'
        )
        print("Directive kinds: inject, heal, crash, flip_behavior, burst, cluster,")
        print("intermittent_link, mobile.  See repro.adversary.schedule for fields.")
        return 0

    if args.file is None:
        raise ValueError(f"'adversary {args.action}' requires a schedule FILE argument")
    schedules = load_schedule_axis(args.file)
    for index, schedule in enumerate(schedules):
        label = schedule.label or f"#{index}"
        print(
            f"schedule {label}: {len(schedule.directives)} directive(s), "
            f"key {schedule.key(16)}"
        )
        if args.action == "preview":
            grid = HexGrid(layers=args.layers, width=args.width)
            adversary = schedule.materialize(
                grid, np.random.default_rng(args.seed)
            )
            print(
                f"  materialized on a {args.layers}x{args.width} grid "
                f"(seed {args.seed}): {adversary.num_actions} action(s)"
            )
            for line in adversary.describe():
                print(f"  {line}")
    if args.action == "validate":
        print(f"{args.file}: OK")
    return 0


def _format_kwargs(example: dict) -> str:
    return ", ".join(f"{key}={value!r}" for key, value in example.items())
