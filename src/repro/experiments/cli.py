"""The ``list``, ``run`` and ``simulate`` verbs of ``hex-repro``.

:mod:`repro.cli` imports this module only when one of these verbs is
dispatched (see DESIGN.md "Start-up").
"""

from __future__ import annotations

import argparse
import inspect
from typing import List

from repro import obs
from repro.campaign.records import pooled_statistics
from repro.clocksource.scenarios import scenario_label
from repro.engines import available_engines
from repro.experiments import EXPERIMENTS, load_experiment
from repro.experiments.config import ExperimentConfig
from repro.faults.models import FaultType

__all__ = ["list_command", "run_command", "simulate_command"]

_LOGGER = obs.get_logger("cli")


def _experiment_config(args: argparse.Namespace):
    if getattr(args, "paper", False):
        config = ExperimentConfig.paper()
    elif getattr(args, "quick", False):
        config = ExperimentConfig.quick()
    else:
        config = ExperimentConfig()
    # Compare against None explicitly: 0 is a *given* (invalid) value that must
    # surface a validation error, not silently fall back to the default.
    if getattr(args, "runs", None) is not None:
        config = config.with_runs(args.runs)
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    return config


def _run_experiment(name: str, args: argparse.Namespace) -> str:
    try:
        module = load_experiment(name)
    except KeyError as error:
        # Surface as a user-input error (main presents ValueError cleanly).
        raise ValueError(error.args[0]) from None
    config = _experiment_config(args)
    # Experiments differ slightly in their run() signatures; pass what they accept.
    signature = inspect.signature(module.run)
    kwargs = {}
    if "config" in signature.parameters:
        kwargs["config"] = config
    if "runs" in signature.parameters and args.runs is not None:
        kwargs["runs"] = args.runs
    if getattr(args, "workers", 1) != 1:
        if "workers" in signature.parameters:
            kwargs["workers"] = args.workers
        else:
            _LOGGER.warning("note: %s does not support --workers; running serially", name)
    result = module.run(**kwargs)
    render = getattr(result, "render", None)
    if callable(render):
        return render()
    return repr(result)


def list_command(args: argparse.Namespace) -> int:
    print("Available experiments:")
    for name in sorted(EXPERIMENTS):
        module = load_experiment(name)
        doc = (module.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:10s} {summary}")
    print()
    print("Execution engines: " + ", ".join(available_engines()) + " (see 'hex-repro engines')")
    return 0


def run_command(args: argparse.Namespace) -> int:
    names: List[str]
    if args.experiment.lower() == "all":
        names = sorted(EXPERIMENTS)
    else:
        names = [args.experiment]
    for name in names:
        print(f"=== {name} ===")
        print(_run_experiment(name, args))
        print()
    return 0


def simulate_command(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_kv
    from repro.experiments.single_pulse import run_scenario_set

    config = ExperimentConfig(
        layers=args.layers, width=args.width, runs=args.runs, seed=args.seed
    )
    fault_type = FaultType.FAIL_SILENT if args.fail_silent else FaultType.BYZANTINE
    records = run_scenario_set(
        config,
        args.scenario,
        num_faults=args.faults,
        fault_type=fault_type,
        engine=args.engine,
        topology=args.topology,
        workers=args.workers,
    )
    stats = pooled_statistics(records)
    header = (
        f"{args.runs} runs on a {args.layers}x{args.width} {args.topology} grid, "
        f"scenario {scenario_label(args.scenario)}, "
        f"{args.faults} {fault_type.value} fault(s), engine {args.engine}"
    )
    print(format_kv(stats.as_row(), title=header))
    return 0
