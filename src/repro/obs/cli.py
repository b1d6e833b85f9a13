"""The ``trace`` verb of ``hex-repro``.

:mod:`repro.cli` imports this module only when ``trace`` is dispatched
(see DESIGN.md "Start-up").
"""

from __future__ import annotations

import argparse

from repro.obs.summary import render_summary, summarize_file, summary_to_json

__all__ = ["trace_command"]


def trace_command(args: argparse.Namespace) -> int:
    summary = summarize_file(args.file)
    if args.json:
        print(summary_to_json(summary))
    else:
        print(render_summary(summary, top=args.top, by_worker=args.by_worker))
    return 0
