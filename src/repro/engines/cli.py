"""The ``engines`` and ``topologies`` verbs of ``hex-repro``: the engine
registry, and the topology families with the engines that support each.

:mod:`repro.cli` imports this module only when one of these verbs is
dispatched (see DESIGN.md "Start-up").
"""

from __future__ import annotations

import argparse
import json

from repro.engines.registry import available_engines, get_engine
from repro.topologies import (
    available_topologies,
    build_topology,
    condition1_fault_capacity,
    get_topology,
)

__all__ = ["engines_command", "topologies_command"]


def engines_command(args: argparse.Namespace) -> int:
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


def topologies_command(args: argparse.Namespace) -> int:
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
