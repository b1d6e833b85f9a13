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
import importlib
import os
import sys
from typing import Any, List, Optional, Sequence

# Module level holds only what the parser needs; each verb's handler lives
# next to its subsystem and is imported when that verb is dispatched, so
# start-up loads what the invoked verb executes (DESIGN.md "Start-up").
from repro import obs
from repro.engines import available_engines
from repro.engines.base import DELAY_MODELS
from repro.faults.models import FaultType

__all__ = ["main", "build_parser"]

_LOGGER = obs.get_logger("cli")

#: Verb -> ``(module, function)`` of its handler, which takes the parsed
#: arguments and returns the exit code.
_HANDLERS = {
    "list": ("repro.experiments.cli", "list_command"),
    "engines": ("repro.engines.cli", "engines_command"),
    "topologies": ("repro.engines.cli", "topologies_command"),
    "check": ("repro.checks.cli", "check_command"),
    "adversary": ("repro.adversary.cli", "adversary_command"),
    "bench": ("repro.bench.cli", "bench_command"),
    "run": ("repro.experiments.cli", "run_command"),
    "simulate": ("repro.experiments.cli", "simulate_command"),
    "sweep": ("repro.campaign.cli", "sweep_command"),
    "soak": ("repro.experiments.soak", "soak_command"),
    "trace": ("repro.obs.cli", "trace_command"),
}


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
    # The grid and churn flags default to None: the handler fills in the
    # defaults, or the --quick preset, for the flags left out
    # (repro.experiments.soak._SOAK_SIZES).
    soak_parser.add_argument("--layers", type=int, help="grid length L (default: 10)")
    soak_parser.add_argument("--width", type=int, help="grid width W (default: 6)")
    soak_parser.add_argument(
        "--pulses", type=int, help="total pulses to soak through (default: 1000000)"
    )
    soak_parser.add_argument(
        "--pulses-per-epoch",
        type=int,
        help="pulses per epoch; bounds peak memory (default: 512)",
    )
    soak_parser.add_argument(
        "--faults",
        type=int,
        help="faults injected (and healed) per epoch; 0 disables churn (default: 2)",
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
        help="result-cache directory (default with --resume: .hex-campaigns)",
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
    """Enable ``repro.obs`` around one command when its flags ask for it.

    A no-op when ``--trace`` and ``--metrics-out`` are both off (the
    zero-overhead default).  The metrics snapshot is written when the
    command finishes, even on error, so a crashed sweep still leaves its
    artifacts behind.
    """
    trace, metrics_out = args.trace, args.metrics_out
    if args.trace_events and trace is None:
        raise ValueError("--trace-events requires --trace FILE")
    if trace is None and metrics_out is None:
        yield
        return
    session = obs.enable(metrics=True, trace=trace, des_events=args.trace_events)
    try:
        yield
    finally:
        if metrics_out is not None:
            session.write_metrics(metrics_out)
        obs.disable()
        for label, path in (("trace", trace), ("metrics", metrics_out)):
            if path is not None:
                _LOGGER.info("%s -> %s (hex-repro trace summarize %s)", label, path, path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    obs.configure_logging(args.verbose)
    if args.command is None:
        parser.print_help()
        return 1
    module, name = _HANDLERS[args.command]
    # The verbs given the observability flags (``_add_observability_flags``)
    # run inside their scope.
    observed = hasattr(args, "trace")
    try:
        handler = getattr(importlib.import_module(module), name)
        with _observability(args) if observed else contextlib.nullcontext():
            return handler(args)
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
