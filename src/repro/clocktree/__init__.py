"""Clock-tree baseline substrate (the comparison object of the paper's title).

The introduction of the paper contrasts HEX with buffered clock trees
(H-trees): logarithmic depth but ``Theta(sqrt(n))`` wire length between some
physically adjacent sinks, elaborate engineering to keep the skew below the
target, and a complete lack of fault tolerance (one broken buffer or wire
disconnects a whole subtree).  This subpackage implements that baseline so the
comparison can be *measured*:

* :mod:`repro.clocktree.htree` -- recursive H-tree construction over a square
  sink array.
* :mod:`repro.clocktree.delays` -- per-segment wire / buffer delay model with
  bounded relative variation.
* :mod:`repro.clocktree.simulation` -- arrival times at the sinks, global and
  physically-adjacent-sink skew.
* :mod:`repro.clocktree.faults` -- sinks lost per broken buffer/wire.
* :mod:`repro.clocktree.comparison` -- the HEX-vs-clock-tree scaling study.
"""
