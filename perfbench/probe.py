"""Set-up probe: import the CLI, expand one workload's spec, exit.

Usage: ``python perfbench/probe.py <repro CLI arguments...>`` with the
checkout's ``src`` first on ``PYTHONPATH``.  The wall time of this process,
from spawn to exit, is the benchmark's ``setup_s``: interpreter start,
``import repro.cli``, argument parsing and spec expansion
(``CampaignSpec.tasks()`` for sweeps, ``SoakSpec`` for soak), built from
the same arguments the timed CLI run receives.

Prints one JSON line: where ``repro`` was imported from, the numpy version
and the number of expanded units.
"""

import json
import sys

import numpy

import repro
import repro.cli


def expand(argv):
    """Build the workload's spec the way the CLI does; return its unit count."""
    args = repro.cli.build_parser().parse_args(argv)
    if args.command == "soak":
        from repro.experiments.soak import SoakSpec

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
        return spec.num_pulses
    from repro.campaign.spec import CampaignSpec, SweepSpec

    cell = SweepSpec(
        layers=tuple(args.layers),
        width=tuple(args.width),
        scenario=tuple(args.scenarios),
        num_faults=tuple(args.faults),
        fault_type=args.fault_type,
        engine=tuple(args.engine),
        delay_model=tuple(args.delay_model),
        topology=tuple(args.topology),
        runs=args.runs,
        seed_salt=args.salt,
    )
    return len(CampaignSpec(name=args.name, seed=args.seed, cells=(cell,)).tasks())


if __name__ == "__main__":
    units = expand(sys.argv[1:])
    print(json.dumps({"repro": repro.__file__, "numpy": numpy.__version__, "units": units}))
