"""Frequency multiplication on top of HEX pulses (Section 5).

A naive use of HEX clocks the attached logic directly with the (relatively
infrequent) HEX pulses.  The paper's remedy is to let every node run a local
start/stoppable high-frequency oscillator that is resynchronised by each HEX
pulse and produces a fixed number of fast clock ticks within a window shorter
than the minimum pulse separation; the achievable fast-clock skew between
neighbours is the HEX skew plus a drift term of roughly
``(theta - 1) * window``.

* :mod:`repro.multiplication.oscillator` -- the start/stoppable oscillator.
* :mod:`repro.multiplication.fastclock` -- the multiplier, its skew analysis
  and the bound/measurement helpers.
"""
