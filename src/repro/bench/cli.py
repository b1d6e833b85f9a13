"""The ``bench`` verb of ``hex-repro``.

:mod:`repro.cli` imports this module only when ``bench`` is dispatched:
loading the suites pulls in the whole experiments layer, which the other
verbs do not need (see DESIGN.md "Start-up").
"""

from __future__ import annotations

import argparse

from repro import bench, obs

__all__ = ["bench_command"]

_LOGGER = obs.get_logger("cli")


def bench_command(args: argparse.Namespace) -> int:
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
