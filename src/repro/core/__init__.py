"""Core HEX machinery: topology, algorithm, analytic solver, bounds, worst cases.

This subpackage contains the paper's primary contribution:

* :mod:`repro.core.topology` -- the cylindric hexagonal grid of Fig. 1.
* :mod:`repro.core.parameters` -- timing parameters and Condition 2.
* :mod:`repro.core.algorithm` -- the HEX node state machines (Algorithm 1 / Fig. 7).
* :mod:`repro.core.pulse_solver` -- the analytic single-pulse trigger-time solver.
* :mod:`repro.core.draws` -- the buffered draw stream both engines read.
* :mod:`repro.core.zigzag` -- causal links and left zig-zag paths (Definitions 1-2).
* :mod:`repro.core.bounds` -- the worst-case skew bounds of Section 3.
* :mod:`repro.core.worstcase` -- deterministic worst-case constructions (Figs. 5, 17).
"""
