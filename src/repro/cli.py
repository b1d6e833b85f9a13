"""Command-line interface: ``python -m repro`` / ``hex-repro``.

Subcommands
-----------
``list``
    List all reproducible experiments (tables and figures).
``engines``
    List the registered execution engines and their capabilities
    (``--json`` for machine-readable output).
``topologies``
    List the registered grid topologies with node/link counts on a
    reference grid, their Condition-1 fault capacity and which engines
    support each (``--json`` for machine-readable output).
``run <experiment> [...]``
    Run one experiment and print its text report; ``all`` runs every one.
``simulate [...]``
    Run a one-off single-pulse simulation and print its skew statistics
    (a quick way to explore grid sizes / scenarios / fault counts).
``sweep [...]``
    Run a declarative parameter-sweep campaign (grid sizes x scenarios x
    fault counts x engines x delay models x fault schedules), serially or on
    a worker pool, with an optional resumable on-disk result cache.
``adversary <list|validate|preview> [...]``
    Work with dynamic fault schedules: list the built-in generator families,
    validate a schedule JSON file, or preview its materialized action
    timeline on a concrete grid and seed.
``bench [...]``
    Run the unified benchmark suites (``repro.bench``), emit the
    schema-versioned ``BENCH_*.json`` artifacts, and optionally gate
    against committed baselines (``--compare`` / ``--tolerance``); the
    regression gate's exit codes are 0 (pass), 1 (regression) and 3
    (missing/incomparable baseline).  A failed case check is recorded in
    its suite's JSON, the other suites and the comparison still run, and
    the command exits 1 (unless the comparison already exits non-zero).
``soak [...]``
    Long-horizon streaming soak run (``repro.experiments.soak``): millions
    of pulses under continuous per-epoch fault churn, with bounded-memory
    streaming telemetry and resumable ``hex-repro/soak/v1`` checkpoints.
``trace summarize <file>``
    Summarize an observability artifact -- a ``hex-repro/trace/v1`` JSONL
    trace, a ``hex-repro/metrics/v1`` snapshot or a ``hex-repro/soak/v1``
    checkpoint -- written with ``--trace`` / ``--metrics-out`` / ``--store``.
    ``--by-worker`` adds the per-worker rollup table of a parallel-campaign
    trace.

Observability (``repro.obs``) is off by default; ``--trace FILE`` records
nested spans (plus per-event DES capture with ``--trace-events``) and
``--metrics-out FILE`` snapshots the counters/gauges/timers of the command.
Both cross process boundaries: under ``--workers N`` each pool worker sends
its spans and counters back with its records, so worker spans land in FILE
under the ``campaign.run`` span (tagged with the worker pid) and worker
counters under ``worker.*`` provenance.  Enabling either never changes
results: instrumentation reads state, it never draws randomness.  A global
``-v`` raises log verbosity; ``--version`` reports the installed package
version.

Examples
--------
::

    hex-repro --version
    hex-repro list
    hex-repro engines --json
    hex-repro topologies --json
    hex-repro run table1 --runs 50 --workers 8
    hex-repro run recovery --quick
    hex-repro run topology-scaling --quick
    hex-repro simulate --layers 30 --width 16 --scenario iv --faults 2 --seed 7
    hex-repro simulate --engine des --runs 5
    hex-repro simulate --topology torus --runs 5
    hex-repro sweep --layers 20,50 --scenarios i,iii --faults 0,1,2 \\
        --runs 25 --workers 4 --out sweep.jsonl
    hex-repro sweep --engine solver,des,clocktree --runs 10
    hex-repro sweep --topology cylinder,torus,patch --runs 10
    hex-repro sweep --engine des --fault-schedule burst.json --runs 10
    hex-repro sweep --spec campaign.json --workers 8 --store .hex-campaigns --resume
    hex-repro adversary list
    hex-repro adversary validate burst.json
    hex-repro adversary preview burst.json --layers 20 --width 10 --seed 7
    hex-repro bench --list
    hex-repro bench --quick --suite batch
    hex-repro bench --quick --out bench-out \\
        --compare benchmarks/baselines --tolerance 25
    hex-repro bench --quick --suite campaign --metrics --metrics-out bench-metrics.json
    hex-repro sweep --runs 5 --trace sweep-trace.jsonl --metrics-out sweep-metrics.json
    hex-repro simulate --engine des --runs 2 --trace run.jsonl --trace-events
    hex-repro sweep --runs 5 --workers 2 --trace par-trace.jsonl --metrics-out par-metrics.json
    hex-repro trace summarize sweep-trace.jsonl
    hex-repro trace summarize sweep-metrics.json --json
    hex-repro trace summarize sweep-trace.jsonl --top 5
    hex-repro trace summarize par-trace.jsonl --by-worker
    hex-repro soak --quick --store soak-artifacts
    hex-repro soak --layers 10 --width 6 --pulses 1000000 --store soak-artifacts --resume
    hex-repro trace summarize soak-artifacts/soak-<key>.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any, List, Optional, Sequence

import numpy as np

# Module level holds only the campaign layer that ``sweep``, ``simulate`` and
# ``run`` share; every other subsystem is imported by the handler of the verb
# that runs it, so start-up loads what the invoked verb executes.
from repro import obs
from repro.campaign.records import pooled_statistics, stabilization_times
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.clocksource.scenarios import scenario_label
from repro.core.topology import HexGrid
from repro.engines import available_engines, get_engine
from repro.engines.base import DELAY_MODELS
from repro.faults.models import FaultType

__all__ = ["main", "build_parser"]

#: Default directory of the ``sweep`` result cache.
DEFAULT_STORE_DIR = ".hex-campaigns"

_LOGGER = obs.get_logger("cli")


def _version() -> str:
    """The installed package version (``pyproject.toml`` metadata).

    Falls back to ``repro.__version__`` for source-tree (PYTHONPATH) use
    where no distribution metadata exists.
    """
    try:
        from importlib.metadata import version

        return version("hex-repro")
    except Exception:
        import repro

        return repro.__version__


class _VersionAction(argparse.Action):
    """``--version``: print the version and exit, resolving it only then.

    The distribution-metadata lookup of :func:`_version` takes a noticeable
    share of interpreter start, so parsers built for other flags skip it.
    """

    def __init__(
        self, option_strings: Sequence[str], dest: str = argparse.SUPPRESS, **kwargs: Any
    ) -> None:
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(
        self,
        parser: argparse.ArgumentParser,
        namespace: argparse.Namespace,
        values: Any,
        option_string: Optional[str] = None,
    ) -> None:
        sys.stdout.write(f"{parser.prog} {_version()}\n")
        parser.exit()


def _int_list(text: str) -> List[int]:
    """Parse a comma-separated integer list (``"0,1,2"``)."""
    try:
        return [int(item) for item in text.split(",") if item.strip() != ""]
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from error


def _str_list(text: str) -> List[str]:
    """Parse a comma-separated string list (``"i,iii"``)."""
    return [item.strip() for item in text.split(",") if item.strip() != ""]


def _topology_list(text: str) -> List[str]:
    """Parse a comma-separated topology-spec list.

    Topology specs themselves use commas between parameters
    (``degraded:nodes=2,seed=3``), so a bare ``key=value`` segment binds to
    the preceding spec instead of starting a new one:
    ``"cylinder,degraded:nodes=2,seed=3"`` is two specs, not three.
    """
    result: List[str] = []
    for item in _str_list(text):
        if result and "=" in item and ":" not in item:
            result[-1] = f"{result[-1]},{item}"
        else:
            result.append(item)
    return result


def _add_observability_flags(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace`` / ``--metrics-out`` flags (repro.obs)."""
    group = subparser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a hex-repro/trace/v1 JSONL span trace of this command "
        "(summarize with 'hex-repro trace summarize FILE')",
    )
    group.add_argument(
        "--trace-events",
        action="store_true",
        help="also capture every DES simulation event into the trace "
        "(requires --trace; meant for single-run forensics)",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a hex-repro/metrics/v1 snapshot of the command's "
        "counters/gauges/timers",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="hex-repro",
        description="Reproduce the HEX clock-distribution paper (Dolev et al., SPAA'13/JCSS'16).",
    )
    parser.add_argument(
        "--version", action=_VersionAction, help="show program's version number and exit"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise log verbosity (repeatable; default shows info, -v shows debug)",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list all reproducible experiments")

    engines_parser = subparsers.add_parser(
        "engines", help="list the registered execution engines and their capabilities"
    )
    engines_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (one capability record per engine)",
    )

    topologies_parser = subparsers.add_parser(
        "topologies", help="list the registered grid topologies and which engines support each"
    )
    topologies_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (one record per topology family)",
    )
    topologies_parser.add_argument(
        "--layers", type=int, default=10, help="reference grid length L for the counts"
    )
    topologies_parser.add_argument(
        "--width", type=int, default=8, help="reference grid width W for the counts"
    )

    check_parser = subparsers.add_parser(
        "check",
        help="run the contract checks (layering, determinism, content keys, schemas)",
    )
    check_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the hex-repro/check-findings/v1 document instead of text",
    )
    check_parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule (repeatable); skips the stale-waiver pass",
    )
    check_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_rules",
        help="list the registered rules and exit",
    )
    check_parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="package directory to scan (default: the installed repro package)",
    )
    check_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the JSON findings document to this path",
    )

    adversary_parser = subparsers.add_parser(
        "adversary", help="list, validate or preview dynamic fault schedules"
    )
    adversary_parser.add_argument(
        "action",
        choices=("list", "validate", "preview"),
        help="list built-in generators, validate a schedule file, or preview its timeline",
    )
    adversary_parser.add_argument(
        "file",
        nargs="?",
        default=None,
        metavar="FILE",
        help="fault-schedule JSON file (required for validate/preview)",
    )
    adversary_parser.add_argument(
        "--layers", type=int, default=20, help="preview grid length L"
    )
    adversary_parser.add_argument(
        "--width", type=int, default=10, help="preview grid width W"
    )
    adversary_parser.add_argument(
        "--seed", type=int, default=0, help="preview materialization seed"
    )

    bench_parser = subparsers.add_parser(
        "bench", help="run the unified benchmark suites and gate against baselines"
    )
    bench_parser.add_argument(
        "--list", action="store_true", help="list the registered suites and cases"
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: fewer Monte Carlo runs per data point",
    )
    bench_parser.add_argument(
        "--paper",
        action="store_true",
        help="use the full paper-scale configuration (hours; excludes --quick)",
    )
    bench_parser.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this suite (repeatable; default: all registered suites)",
    )
    bench_parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help="Monte Carlo runs per data point (default: set by the mode)",
    )
    bench_parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="artifact directory for the BENCH_<suite>.json files "
        "(default: the current directory)",
    )
    bench_parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline BENCH JSON file or directory to gate medians against "
        "(exit 1 on regression, 3 on missing baseline)",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=25.0,
        metavar="PCT",
        help="tolerated median slowdown in percent (default: 25)",
    )
    bench_parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the cases' scientific shape checks (timing only)",
    )
    bench_parser.add_argument(
        "--metrics",
        action="store_true",
        help="record repro.obs counter deltas alongside each case's times "
        "(slightly perturbs timings; keep off for gated --compare runs)",
    )
    bench_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the aggregated hex-repro/metrics/v1 snapshot of the "
        "bench run (implies --metrics)",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="work with observability artifacts (traces, metrics snapshots)"
    )
    trace_parser.add_argument(
        "action",
        choices=("summarize",),
        help="summarize a trace, metrics snapshot or soak checkpoint",
    )
    trace_parser.add_argument(
        "file", metavar="FILE", help="hex-repro/trace/v1 JSONL or hex-repro/metrics/v1 JSON"
    )
    trace_parser.add_argument(
        "--json", action="store_true", help="machine-readable summary output"
    )
    trace_parser.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show only the N span names with the largest total time "
        "(trace summaries only)",
    )
    trace_parser.add_argument(
        "--by-worker",
        action="store_true",
        help="add the per-worker rollup table of a parallel-campaign trace "
        "(trace summaries only)",
    )

    soak_parser = subparsers.add_parser(
        "soak",
        help="long-horizon streaming soak run: bounded-memory telemetry under "
        "continuous fault churn",
    )
    soak_parser.add_argument(
        "--layers", type=int, default=10, help="grid length L (default: 10)"
    )
    soak_parser.add_argument(
        "--width", type=int, default=6, help="grid width W (default: 6)"
    )
    soak_parser.add_argument(
        "--pulses",
        type=int,
        default=1_000_000,
        help="total pulses to soak through (default: 1000000)",
    )
    soak_parser.add_argument(
        "--pulses-per-epoch",
        type=int,
        default=512,
        help="pulses per epoch; bounds peak memory (default: 512)",
    )
    soak_parser.add_argument(
        "--faults",
        type=int,
        default=2,
        help="faults injected (and healed) per epoch; 0 disables churn",
    )
    soak_parser.add_argument(
        "--fault-type",
        choices=tuple(ft.value for ft in (FaultType.BYZANTINE, FaultType.FAIL_SILENT)),
        default=FaultType.BYZANTINE.value,
        help="fault type of the per-epoch burst",
    )
    soak_parser.add_argument(
        "--heal-fraction",
        type=float,
        default=0.6,
        help="epoch-span fraction at which the burst heals (default: 0.6)",
    )
    soak_parser.add_argument("--seed", type=int, default=2013, help="base seed")
    soak_parser.add_argument(
        "--epsilon",
        type=float,
        default=0.005,
        help="quantile-sketch rank-error bound (default: 0.005)",
    )
    soak_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized preset: 10000 pulses on a 5x4 grid, 1 fault per epoch "
        "(explicit flags still win)",
    )
    soak_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="checkpoint directory (hex-repro/soak/v1 artifacts; no "
        "checkpoints without it)",
    )
    soak_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the spec's checkpoint in --store when one exists",
    )
    soak_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="EPOCHS",
        help="checkpoint period in epochs (default: a quarter of the run)",
    )
    soak_parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-epoch progress lines"
    )
    soak_parser.add_argument(
        "--json", action="store_true", help="machine-readable result output"
    )
    _add_observability_flags(soak_parser)

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id (see 'list'), or 'all'")
    run_parser.add_argument("--runs", type=int, default=None, help="runs per data point")
    run_parser.add_argument("--seed", type=int, default=None, help="base seed")
    run_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for campaign-backed experiments"
    )
    run_parser.add_argument(
        "--quick", action="store_true", help="use the small quick configuration (20x10 grid)"
    )
    run_parser.add_argument(
        "--paper", action="store_true", help="use the full paper-scale configuration (250 runs)"
    )
    _add_observability_flags(run_parser)

    sim_parser = subparsers.add_parser("simulate", help="one-off single-pulse simulation")
    sim_parser.add_argument("--layers", type=int, default=50, help="grid length L")
    sim_parser.add_argument("--width", type=int, default=20, help="grid width W")
    sim_parser.add_argument(
        "--scenario", default="i", help="layer-0 scenario: i, ii, iii, iv (or zero/ramp/...)"
    )
    sim_parser.add_argument("--faults", type=int, default=0, help="number of Byzantine nodes")
    sim_parser.add_argument(
        "--fail-silent", action="store_true", help="use fail-silent instead of Byzantine faults"
    )
    sim_parser.add_argument("--runs", type=int, default=10, help="number of runs")
    sim_parser.add_argument("--seed", type=int, default=1, help="base seed")
    sim_parser.add_argument(
        "--engine",
        choices=available_engines(),
        default="solver",
        help="execution engine (see 'hex-repro engines')",
    )
    sim_parser.add_argument(
        "--topology",
        default="cylinder",
        help="grid topology spec (see 'hex-repro topologies'), e.g. torus or "
        "degraded:nodes=3,seed=7",
    )
    sim_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for the run set"
    )
    _add_observability_flags(sim_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="parameter-sweep / Monte Carlo campaign over the simulation entry points"
    )
    sweep_parser.add_argument(
        "--spec", default=None, metavar="FILE", help="campaign spec JSON file (overrides the grid flags)"
    )
    sweep_parser.add_argument(
        "--name", default="sweep", help="campaign name (cache shard identity and report title)"
    )
    sweep_parser.add_argument(
        "--layers", type=_int_list, default=[50], help="comma-separated grid lengths L"
    )
    sweep_parser.add_argument(
        "--width", type=_int_list, default=[20], help="comma-separated grid widths W"
    )
    sweep_parser.add_argument(
        "--scenarios", type=_str_list, default=["i"], help="comma-separated scenarios (i,ii,iii,iv)"
    )
    sweep_parser.add_argument(
        "--faults", type=_int_list, default=[0], help="comma-separated fault counts"
    )
    sweep_parser.add_argument(
        "--fault-type",
        choices=tuple(ft.value for ft in (FaultType.BYZANTINE, FaultType.FAIL_SILENT)),
        default=FaultType.BYZANTINE.value,
        help="fault type for faulty runs",
    )
    sweep_parser.add_argument(
        "--engine",
        type=_str_list,
        default=["solver"],
        help="comma-separated engines (see 'hex-repro engines')",
    )
    sweep_parser.add_argument(
        "--delay-model",
        type=_str_list,
        default=["default"],
        help=f"comma-separated delay models / adversaries ({','.join(DELAY_MODELS)})",
    )
    sweep_parser.add_argument(
        "--topology",
        type=_topology_list,
        default=["cylinder"],
        help="comma-separated topology specs swept as a campaign axis "
        "(see 'hex-repro topologies'); key=value parameters bind to the "
        "preceding spec, e.g. cylinder,degraded:nodes=2,seed=3",
    )
    sweep_parser.add_argument(
        "--fault-schedule",
        default=None,
        metavar="FILE",
        help=(
            "fault-schedule JSON file swept as a campaign axis (a top-level list "
            "sweeps several schedules; requires --engine des)"
        ),
    )
    sweep_parser.add_argument("--runs", type=int, default=10, help="Monte Carlo runs per point")
    sweep_parser.add_argument("--seed", type=int, default=2013, help="base seed")
    sweep_parser.add_argument("--salt", type=int, default=0, help="seed salt of the sweep cell")
    sweep_parser.add_argument("--workers", type=int, default=1, help="worker processes")
    sweep_parser.add_argument(
        "--out", default=None, metavar="FILE", help="write canonical record JSONL to this file"
    )
    sweep_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=f"result-cache directory (default with --resume: {DEFAULT_STORE_DIR})",
    )
    sweep_parser.add_argument(
        "--resume", action="store_true", help="reuse cached records instead of re-simulating"
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress the progress line and summary"
    )
    _add_observability_flags(sweep_parser)
    return parser


@contextlib.contextmanager
def _observability(args: argparse.Namespace):
    """Enable ``repro.obs`` for one command when its flags ask for it.

    Yields the :class:`repro.obs.ObsSession` (or ``None`` when every flag is
    off -- the zero-overhead default).  The metrics snapshot is written when
    the command body finishes, even on error, so a crashed sweep still
    leaves its artifacts behind.
    """
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace is None and metrics_out is None:
        if getattr(args, "trace_events", False):
            raise ValueError("--trace-events requires --trace FILE")
        yield None
        return
    if getattr(args, "trace_events", False) and trace is None:
        raise ValueError("--trace-events requires --trace FILE")
    session = obs.enable(
        metrics=True,
        trace=trace,
        des_events=getattr(args, "trace_events", False),
    )
    try:
        yield session
    finally:
        if metrics_out is not None:
            session.write_metrics(metrics_out)
        obs.disable()
        for label, path in (("trace", trace), ("metrics", metrics_out)):
            if path is not None:
                _LOGGER.info("%s -> %s (hex-repro trace summarize %s)", label, path, path)


def _experiment_config(args: argparse.Namespace):
    from repro.experiments.config import ExperimentConfig

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
    from repro.experiments import load_experiment

    try:
        module = load_experiment(name)
    except KeyError as error:
        # Surface as a user-input error (main presents ValueError cleanly).
        raise ValueError(error.args[0]) from None
    config = _experiment_config(args)
    # Experiments differ slightly in their run() signatures; pass what they accept.
    import inspect

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


def _cmd_list() -> int:
    from repro.experiments import EXPERIMENTS, load_experiment

    print("Available experiments:")
    for name in sorted(EXPERIMENTS):
        module = load_experiment(name)
        doc = (module.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:10s} {summary}")
    print()
    print("Execution engines: " + ", ".join(available_engines()) + " (see 'hex-repro engines')")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        payload = [
            {"name": name, **get_engine(name).capabilities.to_json_dict()}
            for name in available_engines()
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("Registered execution engines:")
    for name in available_engines():
        capabilities = get_engine(name).capabilities
        print(f"  {name:10s} [{capabilities.summary()}]  {capabilities.description}")
    return 0


def _cmd_topologies(args: argparse.Namespace) -> int:
    from repro.topologies import (
        available_topologies,
        build_topology,
        condition1_fault_capacity,
        get_topology,
    )

    layers, width = args.layers, args.width
    entries = []
    for name in available_topologies():
        family = get_topology(name)
        entry = {
            "name": name,
            "description": family.description,
            "min_layers": family.min_layers,
            "min_width": family.min_width,
            "params": dict(family.param_defaults),
            "engines": [
                engine
                for engine in available_engines()
                if get_engine(engine).capabilities.supports_topology(name)
            ],
        }
        try:
            grid = build_topology(name, layers, width)
            entry.update(
                reference_grid=f"{layers}x{width}",
                num_nodes=int(getattr(grid, "num_present_nodes", grid.num_nodes)),
                num_links=int(grid.num_links()),
                condition1_fault_capacity=int(condition1_fault_capacity(grid)),
            )
        except ValueError as error:
            entry["error"] = str(error)
        entries.append(entry)
    if getattr(args, "json", False):
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    print(f"Registered grid topologies (counts on a {layers}x{width} reference grid):")
    for entry in entries:
        print(f"  {entry['name']:10s} {entry['description']}")
        if "error" in entry:
            print(f"  {'':10s}   not buildable at {layers}x{width}: {entry['error']}")
        else:
            print(
                f"  {'':10s}   {entry['num_nodes']} nodes, {entry['num_links']} links, "
                f"Condition-1 capacity >= {entry['condition1_fault_capacity']}, "
                f"engines: {', '.join(entry['engines'])}"
            )
        if entry["params"]:
            params = ", ".join(f"{key}={value}" for key, value in sorted(entry["params"].items()))
            print(f"  {'':10s}   parameters (defaults): {params}")
    print()
    print(
        "Topology specs are 'family' or 'family:key=value,...' strings, e.g. "
        "'torus' or 'degraded:base=patch,nodes=3,links=2,seed=7'."
    )
    return 0


def _load_schedule_axis(path: str) -> tuple:
    """Load one schedule (object) or several (top-level list) from a JSON file."""
    from repro.adversary.schedule import FaultSchedule

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, list):
        if not payload:
            raise ValueError(f"{path}: schedule list must not be empty")
        return tuple(FaultSchedule.from_json_dict(item) for item in payload)
    return (FaultSchedule.from_json_dict(payload),)


def _cmd_adversary(args: argparse.Namespace) -> int:
    if args.action == "list":
        from repro.adversary.schedule import BUILTIN_GENERATORS

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
    schedules = _load_schedule_axis(args.file)
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


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily: loading the suites pulls in the whole experiments
    # layer, which the other subcommands do not need.
    from repro import bench

    bench.load_builtin_suites()
    if args.list:
        print("Registered benchmark suites:")
        for suite in bench.available_suites():
            names = ", ".join(case.name for case in bench.cases_in_suite(suite))
            print(f"  {suite:10s} {names}")
        return 0

    settings = bench.BenchSettings(quick=args.quick, runs=args.runs, paper=args.paper)
    out_dir = bench.bench_output_dir(args.out)
    with_metrics = args.metrics or args.metrics_out is not None
    session = obs.enable(metrics=True) if with_metrics else None
    try:
        payloads = bench.run_suites(
            suites=args.suite,
            settings=settings,
            out=str(out_dir),
            check=not args.no_check,
            log=_LOGGER.info,
        )
    finally:
        if session is not None:
            if args.metrics_out is not None:
                session.write_metrics(args.metrics_out)
            obs.disable()
    print(f"{len(payloads)} suite(s) in {settings.mode} mode -> {out_dir}")
    if args.metrics_out is not None:
        print(f"metrics -> {args.metrics_out}")
    code = 0
    if args.compare is not None:
        baseline = bench.load_baseline(args.compare)
        if args.suite:
            # An explicit --suite selection is a deliberate subset: compare
            # only the selected suites instead of flagging the rest as missing.
            baseline = {
                suite: payload for suite, payload in baseline.items() if suite in args.suite
            }
        report = bench.compare_payloads(payloads, baseline, tolerance_pct=args.tolerance)
        print(report.render())
        code = report.exit_code()
    failed = bench.failed_checks(payloads)
    if failed:
        print(f"{len(failed)} case check(s) failed: {', '.join(failed)}")
        code = code or 1
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    names: List[str]
    if args.experiment.lower() == "all":
        names = sorted(EXPERIMENTS)
    else:
        names = [args.experiment]
    with _observability(args):
        for name in names:
            print(f"=== {name} ===")
            print(_run_experiment(name, args))
            print()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.report import format_kv
    from repro.experiments.single_pulse import run_scenario_set

    config = ExperimentConfig(
        layers=args.layers, width=args.width, runs=args.runs, seed=args.seed
    )
    fault_type = FaultType.FAIL_SILENT if args.fail_silent else FaultType.BYZANTINE
    with _observability(args):
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
    schedule_axis = (
        _load_schedule_axis(args.fault_schedule)
        if args.fault_schedule is not None
        else (None,)
    )
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    store = args.store
    if store is None and args.resume:
        store = DEFAULT_STORE_DIR
    with _observability(args):
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
            for record in result.records:
                handle.write(record.canonical_json() + "\n")

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


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.summary import render_summary, summarize_file, summary_to_json

    summary = summarize_file(args.file)
    if args.json:
        print(summary_to_json(summary))
    else:
        print(render_summary(summary, top=args.top, by_worker=args.by_worker))
    return 0


#: The ``soak --quick`` preset, applied only to flags still at their
#: argparse defaults (an explicit flag always wins, mirroring the
#: ``--spec``-exclusivity convention of ``sweep``).
_SOAK_QUICK_PRESET = {
    "layers": (10, 5),
    "width": (6, 4),
    "pulses": (1_000_000, 10_000),
    "pulses_per_epoch": (512, 500),
    "faults": (2, 1),
}


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.experiments.soak import SoakSpec, run_soak

    if args.quick:
        for attr, (default, quick_value) in _SOAK_QUICK_PRESET.items():
            if getattr(args, attr) == default:
                setattr(args, attr, quick_value)
    spec = SoakSpec(
        layers=args.layers,
        width=args.width,
        num_pulses=args.pulses,
        pulses_per_epoch=args.pulses_per_epoch,
        faults=args.faults,
        fault_type=args.fault_type,
        heal_fraction=args.heal_fraction,
        epsilon=args.epsilon,
        seed=args.seed,
    )

    def progress(stats) -> None:
        print(
            f"  epoch {int(stats['epoch'])}/{int(stats['epochs'])}: "
            f"{int(stats['pulses'])} pulses, {stats['pulses_per_s']:.0f}/s, "
            f"skew p50 {stats['skew_p50']:.3g} p95 {stats['skew_p95']:.3g}, "
            f"{int(stats['recoveries'])} recoveries, "
            f"rss {stats['rss_bytes'] / 1e6:.0f}MB",
            flush=True,
        )

    with _observability(args):
        result = run_soak(
            spec,
            store=args.store,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            progress=None if (args.quiet or args.json) else progress,
        )
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    else:
        print("\n".join(result.render()))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.checks import load_builtin_rules
    from repro.checks.registry import available_rules, run_checks

    load_builtin_rules()
    if args.list_rules:
        for rule in available_rules():
            waiver = f"allow-{rule.waiver}" if rule.waiver else "(not waivable)"
            print(f"{rule.id}  {rule.name:28s} {rule.severity:8s} {waiver}")
            if rule.doc:
                print(f"      {rule.doc}")
        return 0
    report = run_checks(
        root=Path(args.root) if args.root else None,
        rule_ids=args.rule,
    )
    document = json_module.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    if args.out:
        out_path = Path(args.out)
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(document + "\n", encoding="utf-8")
    if args.json:
        print(document)
    else:
        print(report.render())
    return report.exit_code()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    obs.configure_logging(args.verbose)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "engines":
            return _cmd_engines(args)
        if args.command == "topologies":
            return _cmd_topologies(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "adversary":
            return _cmd_adversary(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "soak":
            return _cmd_soak(args)
        if args.command == "trace":
            return _cmd_trace(args)
    except (ValueError, FileNotFoundError) as error:
        # Domain validation (bad scenario, runs=0, workers=0, unknown
        # experiment, missing or malformed spec file): present as a CLI
        # error, not a traceback.  Other exception types are internal bugs
        # and keep their traceback.
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Stdout consumer (e.g. `| head`) closed early; exit quietly like
        # other well-behaved CLIs.  Detach stdout so the interpreter's
        # shutdown flush does not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
