"""End-to-end benchmark of the hex-repro CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-serial --seed 2013 --seconds 25 --trace 0

Workloads: ``sweep-serial``, ``sweep-parallel``, ``soak``, ``resume`` (see
``workloads.py`` and ``README.md``).  Nothing is installed: every CLI process
runs ``python -m repro`` with the checkout's ``src`` as ``PYTHONPATH``, one
process at a time, in a scratch directory under the checkout that is removed
at exit.

``--trace 0`` times the real CLI for ``--seconds`` and reports the
end-to-end metrics: ``wall_s`` (spawn to exit), ``setup_s`` (a fresh
interpreter that imports ``repro.cli`` and expands the workload's spec),
``throughput`` (units / (``wall_s`` - ``setup_s``)), ``cpu_s`` and
``peak_rss_mb`` (user+sys CPU and largest resident set of the CLI process
and the pool workers it reaped, from ``wait4``).  ``wall_s`` and ``cpu_s``
are means over the run's repetitions, the others medians; times are
scaled to reference speed (:meth:`Bench.timed`).

``--trace 1`` alternates untraced runs with traced ones (``traced.py``) and
reports the per-layer metrics of ``layers.py``.

Every run's output is checked (see :meth:`Bench.invoke`); a failed check or
a non-zero exit counts in ``failed``.  The last stdout line is the result
object; the line before it carries provenance and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from layers import DETERMINISTIC, ENGINE_LAYER, UNITS, layer_metrics
from workloads import DEFAULT_SEED, PINNED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Timed repetitions (set-up probe + CLI run) per run at least, even past
#: ``--seconds``.
MIN_REPS = 3
#: Traced repetitions per ``--trace 1`` run at least (their counts must agree).
MIN_TRACED = 2
#: A CLI process still running after this long is killed and counts as failed.
CLI_TIMEOUT_S = 120.0
#: Iterations of the speed-calibration loop (:func:`calibrate`).
CAL_ITERATIONS = 750_000
#: Decodes of :data:`CAL_PAYLOAD` per calibration.
CAL_DECODES = 50
#: A JSON document shaped like store records: keys and float lists.
CAL_PAYLOAD = json.dumps(
    [{"key": f"{i:032x}", "times": [i * 0.5 + j for j in range(16)]} for i in range(1000)]
)
#: The calibration's time on the host the benchmark was defined on (an
#: Intel Xeon with 2 vCPUs, Python 3.11) when that host ran at full speed.
CAL_REF_S = 0.19

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "throughput": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Process:
    """One finished child process, as ``wait4`` reported it."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: Path


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: List[str], work: Path, tag: str) -> Process:
    """Run ``python <args>`` from the checkout root and wait for it.

    The child leads its own process group, so a timeout kills it together
    with any pool workers.  CPU time and peak RSS cover the child and every
    descendant it waited for.
    """
    stdout = work / f"{tag}.out"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, open(work / f"{tag}.err", "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(CLI_TIMEOUT_S, _kill_group, (child.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            _kill_group(child.pid)
            child.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Process(
        child.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stdout
    )


def calibrate() -> float:
    """Time a fixed piece of pure-Python work: a dict loop, then JSON decoding.

    The interpreter-bound work of every workload slows down and speeds up
    with the host (shared cores swing its speed by half over minutes), and
    so does this work.  Timing it between measurements gives the factor
    ``CAL_REF_S / mean calibration`` that scales them to reference speed.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for index in range(CAL_ITERATIONS):
        table[index & 1023] = index
        total += table.get(index & 511, 0)
    for _ in range(CAL_DECODES):
        json.loads(CAL_PAYLOAD)
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def soak_state_key(payload: dict) -> str:
    """``SoakCheckpoint.state_key()`` of a ``soak --json`` result."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.experiments.soak import SoakCheckpoint

    return SoakCheckpoint.from_json_dict(payload).state_key()


@dataclass
class Invocation:
    """One checked CLI run, with what the traced variant adds."""

    process: Process
    ok: bool
    trace: Optional[dict] = None
    worker_busy_s: float = 0.0


class Bench:
    """Runs and checks one workload's CLI invocations for one seed."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[str] = None
        self.numpy_version = ""
        self._count = 0
        self._resume_store = work / "resume-store"
        self._prefill_lines = 0
        self._shard_digest = ""
        self.samples: Dict[str, List[float]] = {}

    # -- set-up -----------------------------------------------------------
    def probe(self) -> float:
        """One set-up probe; returns its wall time.  Fails hard when the
        probe cannot run or imports ``repro`` from outside the checkout."""
        tag = self._tag("probe")
        process = spawn(
            [str(HERE / "probe.py"), *self.workload.argv(self.seed, self.work / "unused", None)],
            self.work,
            tag,
        )
        if process.code != 0:
            raise RuntimeError(f"set-up probe exited {process.code}: {self._stderr(tag)}")
        info = json.loads(process.stdout.read_text().splitlines()[-1])
        if not Path(info["repro"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"repro imported from {info['repro']}, not from {SRC}")
        if info["units"] != self.workload.units:
            raise RuntimeError(f"spec expands to {info['units']} units, not {self.workload.units}")
        self.numpy_version = info["numpy"]
        return process.wall_s

    def prepare(self) -> None:
        """Untimed set-up: compile caches, plus the reference run the
        workload's output is compared with."""
        self.probe()
        if self.workload.name == "sweep-parallel":
            self.invoke(workers=1)
        elif self.workload.name == "resume":
            self.invoke(store=self._resume_store)
            shard = self._resume_store / "resume.jsonl"
            self._prefill_lines = len(shard.read_bytes().splitlines())
            self._shard_digest = sha256(shard)

    # -- one checked run ----------------------------------------------------
    def invoke(
        self, traced: bool = False, workers: int = 0, store: Optional[Path] = None
    ) -> Invocation:
        """Run the workload's CLI once and check its output.

        Checks: exit code 0; for sweeps, the ``--out`` JSONL has one line
        per task and equals the first run of this benchmark run byte for byte
        (for ``sweep-parallel`` that first run is a serial sweep, for
        ``resume`` the sweep that filled the store); ``resume`` leaves its
        store shard unchanged; soak's ``state_key`` equals the first run's
        and covers every pulse; on the default seed the output matches the
        pinned digest.
        """
        tag = self._tag("traced" if traced else "run")
        name = self.workload.name
        if store is None:
            store = self._resume_store if name == "resume" else self.work / f"{tag}-store"
        out = None if name == "soak" else self.work / f"{tag}.jsonl"
        cli = self.workload.argv(self.seed, store, out, workers)
        spans = self.work / f"{tag}.spans.json"
        prefix = [str(HERE / "traced.py"), str(spans)] if traced else ["-m", "repro"]
        process = spawn(prefix + cli, self.work, tag)
        self.attempted += 1
        problems = self._check(process, store, out)
        invocation = Invocation(process, not problems)
        if traced and not problems:
            invocation.trace = json.loads(spans.read_text())
            if name != "soak":
                invocation.worker_busy_s = self._shard_busy(store)
        if problems:
            self.failed += 1
            self.problems.extend(f"{tag}: {problem}" for problem in problems)
        if store != self._resume_store:
            shutil.rmtree(store, ignore_errors=True)
        return invocation

    def _check(self, process: Process, store: Path, out: Optional[Path]) -> List[str]:
        if process.code != 0:
            return [f"exit code {process.code}: {self._stderr(process.stdout.stem)}"]
        problems = []
        try:
            if out is None:
                payload = json.loads(process.stdout.read_text())
                if payload["pulses_completed"] != self.workload.units:
                    problems.append(f"{payload['pulses_completed']} pulses completed")
                digest = soak_state_key(payload)
            else:
                lines = len(out.read_bytes().splitlines())
                if lines != self.workload.units:
                    problems.append(f"--out has {lines} records, expected {self.workload.units}")
                digest = sha256(out)
                out.unlink()
            if self._shard_digest and sha256(store / "resume.jsonl") != self._shard_digest:
                problems.append("resume changed its store shard")
        except (OSError, ValueError, KeyError) as error:
            return problems + [f"unreadable output: {error!r}"]
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"output {digest[:16]} differs from reference {self.reference[:16]}")
        if self.seed == DEFAULT_SEED and digest != PINNED[self.workload.pin]:
            problems.append(f"output {digest[:16]} differs from the pinned digest")
        return problems

    def _shard_busy(self, store: Path) -> float:
        """Summed ``wall_time_s`` of the records this run appended."""
        shard = store / ("resume.jsonl" if self.workload.name == "resume" else "sweep.jsonl")
        lines = shard.read_bytes().splitlines()[self._prefill_lines :]
        return sum(json.loads(line)["record"]["wall_time_s"] for line in lines)

    def _tag(self, kind: str) -> str:
        self._count += 1
        return f"{kind}-{self._count}"

    def _stderr(self, tag: str) -> str:
        lines = (self.work / f"{tag}.err").read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    # -- the two kinds of run ------------------------------------------------
    def timed(self, seconds: float) -> Dict[str, float]:
        """End-to-end metrics over repetitions with tracing off.

        Each repetition is a set-up probe followed by one CLI run, with a
        calibration after each.  The host switches between a fast and a
        slow speed within seconds.  A CLI run lasts long enough to average
        over both, while a short calibration lands in one or the other, so
        a median picks different speeds for the two.  Means do not: the
        run's mean CLI time is scaled by its mean calibration, the time
        average of the host's speed.  ``setup_s`` is the median probe,
        scaled the same way.
        """
        calibrations = [calibrate()]

        def step():
            setup = self.probe()
            calibrations.append(calibrate())
            process = self.invoke().process
            calibrations.append(calibrate())
            return setup, process

        steps = self._repeat(seconds, step, MIN_REPS)
        scale = CAL_REF_S / statistics.mean(calibrations)
        setup = statistics.median(setup for setup, _ in steps) * scale
        wall = statistics.mean(p.wall_s for _, p in steps) * scale
        self.samples = {
            "raw_wall_s": [p.wall_s for _, p in steps],
            "raw_cpu_s": [p.cpu_s for _, p in steps],
            "raw_setup_s": [setup for setup, _ in steps],
            "calibration_s": calibrations,
        }
        return {
            "wall_s": wall,
            "setup_s": setup,
            "throughput": self.workload.units / (wall - setup),
            "cpu_s": statistics.mean(p.cpu_s for _, p in steps) * scale,
            "peak_rss_mb": statistics.median(p.rss_mb for _, p in steps),
        }

    def traced(self, seconds: float) -> Dict[str, float]:
        """Per-layer metrics: traced runs alternating with untraced ones."""
        steps = self._repeat(
            seconds, lambda: (self.invoke(), self.invoke(traced=True)), MIN_TRACED
        )
        plain = [run.process.wall_s for run, _ in steps]
        traced = [run for _, run in steps if run.trace is not None]
        self.samples = {"untraced_wall_s": plain, "traced_wall_s": [r.process.wall_s for r in traced]}
        if len(traced) < MIN_TRACED:
            return {}
        workers = 2 if self.workload.name == "sweep-parallel" else 1
        layers = [
            layer_metrics(run.trace, run.process.wall_s, workers, run.worker_busy_s)
            for run in traced
        ]
        for name in DETERMINISTIC:
            if len({layer[name] for layer in layers}) != 1:
                self.failed += 1
                self.problems.append(f"{name} differs between traced runs")
        metrics = {
            name: layers[0][name]
            if name in DETERMINISTIC
            else statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(self.samples["traced_wall_s"]) / statistics.median(plain) - 1
        )
        if self.workload.name == "sweep-parallel":
            # Pool workers run the engines out of the parent's sight; the
            # same tasks replayed serially give the engine-layer numbers.
            replay = self.invoke(traced=True, workers=1)
            if replay.trace is not None:
                serial = layer_metrics(replay.trace, replay.process.wall_s, 1, replay.worker_busy_s)
                metrics.update({name: serial[name] for name in ENGINE_LAYER})
        return metrics

    def _repeat(self, seconds: float, step, minimum: int) -> list:
        """Call ``step`` until ``seconds`` pass and at least ``minimum``
        times; a call that would end past ``seconds`` is not started."""
        start = time.perf_counter()
        results = []
        while True:
            step_start = time.perf_counter()
            results.append(step())
            now = time.perf_counter()
            if len(results) >= minimum and now - start + (now - step_start) > seconds:
                return results


def provenance(seed: int) -> Dict[str, object]:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg_1m_before": os.getloadavg()[0],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    info = provenance(args.seed)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        bench.prepare()
        values = bench.traced(args.seconds) if args.trace else bench.timed(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update(numpy=bench.numpy_version, loadavg_1m_after=os.getloadavg()[0])
    units = UNITS if args.trace else END_TO_END
    missing = [name for name in units if name not in values]
    if missing:
        bench.problems.append(f"no value for {', '.join(missing)}")
    correct = bench.failed == 0 and not missing
    print(
        json.dumps(
            {
                "workload": args.workload,
                "provenance": info,
                "samples": bench.samples,
                "error_rate": bench.failed / max(bench.attempted, 1),
                "problems": bench.problems,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
