"""The ``check`` verb of ``hex-repro``.

:mod:`repro.cli` imports this module only when ``check`` is dispatched
(see DESIGN.md "Start-up").
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.checks import load_builtin_rules
from repro.checks.registry import available_rules, run_checks

__all__ = ["check_command"]


def check_command(args: argparse.Namespace) -> int:
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
    document = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
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
