"""Built-in benchmark suites (imported for their registration side effects).

Each module ports the workload, shape checks and headline numbers of the
historical ``benchmarks/test_bench_*.py`` files onto declarative
:class:`~repro.bench.case.BenchCase` objects:

* :mod:`~repro.bench.suites.solver` -- the single-pulse experiment
  regenerations (Tables 1-3, Figs. 5 and 8-17, Theorem 1, the fault-type
  ablation);
* :mod:`~repro.bench.suites.des` -- the stabilization experiments
  (Figs. 18-19) on the discrete-event engine;
* :mod:`~repro.bench.suites.campaign` -- orchestration overhead and the
  serial/parallel record equality;
* :mod:`~repro.bench.suites.topology` -- neighbour-table cache and
  per-topology solver runs;
* :mod:`~repro.bench.suites.clocktree` -- the HEX vs clock-tree scaling
  comparison (the title claim);
* :mod:`~repro.bench.suites.batch` -- ``Engine.run_batch`` vs per-spec
  execution on a same-grid sweep (pins that `run()` has no slow path);
* :mod:`~repro.bench.suites.obs` -- observability overhead: the disabled
  no-op guards, the campaign runner's <5% orchestration bar and the
  fully-instrumented slowdown (with its bit-identity check);
* :mod:`~repro.bench.suites.soak` -- sustained soak-run throughput and the
  per-observation cost of the streaming accumulators (with the GK sketch's
  rank-error bound re-checked against the exact sorted stream).
"""

from repro.bench.suites import (  # noqa: F401  (import-for-side-effect)
    batch,
    campaign,
    clocktree,
    des,
    obs,
    soak,
    solver,
    topology,
)
