"""The benchmark's workloads: the CLI invocations a user of hex-repro waits on.

Each workload is one ``python -m repro ...`` argument vector built from the
benchmark seed, plus the unit its throughput counts.  The program receives
only these arguments; everything else (fresh stores, output files, reference
runs) is the benchmark's own set-up.  See ``README.md`` for why each workload
was chosen and which layer changes it is expected to show.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

#: Seed used when ``--seed`` is not given; the pinned digests below hold for it.
DEFAULT_SEED = 2013

#: The sweep campaign of ``sweep-serial`` / ``sweep-parallel``: 2 scenarios x
#: 2 fault counts x ``SWEEP_RUNS`` runs on a 50x20 grid.  Half the tasks are
#: fault-free (plan-compiled kernel), half carry 2 Byzantine nodes (reference
#: dict sweep).  40 tasks split into serial batches of 32 + 8, so no
#: fault-free task falls back to the single-task path.
SWEEP_RUNS = 10
SWEEP_TASKS = 2 * 2 * SWEEP_RUNS
SWEEP_FAULTY_TASKS = 2 * SWEEP_RUNS

#: The ``resume`` campaign: many fault-free runs on a small grid, so the
#: untimed pre-fill is quick (fast kernel, small records) and reading the
#: cached records back takes several times as long as interpreter start.
RESUME_RUNS = 1500
RESUME_TASKS = 4 * RESUME_RUNS

#: The ``soak`` run: the ``soak --quick`` grid and churn, shortened.
SOAK_PULSES = 1000

#: Digests of the default-seed outputs (sha256 of the ``--out`` JSONL for the
#: sweeps, ``SoakCheckpoint.state_key()`` of the ``--json`` result for soak).
#: An intentional output change shows up as an edit here.
PINNED = {
    "sweep": "da47dd8789f306d01a1767641e40d71e418b86e3fca39a8a5844d34018b2b1ab",
    "resume": "cef4751aac7bc21c9fd5c0b006dde70c651e490e0c9bd6b6f3620bd3ab5cf6e7",
    "soak": "5afa9d1d62fbac77335d07f3a30f35bd",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``units`` is what one invocation completes (tasks for the sweeps, pulses
    for soak, records for resume); ``pin`` names the :data:`PINNED` digest its
    output is checked against on the default seed.
    """

    name: str
    units: int
    pin: str

    def argv(self, seed: int, store: Path, out: Optional[Path], workers: int = 0) -> List[str]:
        """The ``repro`` CLI arguments of one invocation.

        ``workers`` overrides the workload's worker count (the traced
        ``sweep-parallel`` run uses it to replay the same tasks serially).
        """
        if self.name == "soak":
            return [
                "soak", "--layers", "5", "--width", "4", "--faults", "1",
                "--pulses-per-epoch", "500", "--pulses", str(SOAK_PULSES),
                "--seed", str(seed), "--store", str(store), "--json", "--quiet",
            ]
        if self.name == "resume":
            argv = [
                "sweep", "--name", "resume", "--engine", "solver",
                "--layers", "10", "--width", "8", "--scenarios", "i,ii,iii,iv",
                "--faults", "0", "--runs", str(RESUME_RUNS), "--resume",
            ]
        else:
            default_workers = 2 if self.name == "sweep-parallel" else 1
            argv = [
                "sweep", "--name", "sweep", "--engine", "solver",
                "--layers", "50", "--width", "20", "--scenarios", "i,iii",
                "--faults", "0,2", "--runs", str(SWEEP_RUNS),
                "--workers", str(workers or default_workers),
            ]
        argv += ["--seed", str(seed), "--store", str(store), "--quiet"]
        if out is not None:
            argv += ["--out", str(out)]
        return argv


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("sweep-serial", SWEEP_TASKS, "sweep"),
        Workload("sweep-parallel", SWEEP_TASKS, "sweep"),
        Workload("soak", SOAK_PULSES, "soak"),
        Workload("resume", RESUME_TASKS, "resume"),
    )
}
