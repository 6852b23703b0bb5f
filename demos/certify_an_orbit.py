"""
Certifying an interior trajectory as a stable periodic orbit
============================================================

Every interior non-equilibrium trajectory of a permanent game here is
periodic.  This script makes that claim checkable for one start: find
the period from the return map, measure how well the loop closes, pick
two entropies that stay independent along the loop, put the time
average back on the equilibrium segment K, and shake the orbit with
finite perturbations.
"""

import numpy as np

from replicator4 import (canonical_matrix, detect_period, distance_to_K,
                         kernel_line_section, stability_probe)

M = canonical_matrix("IV")
section = kernel_line_section(M)
x0 = np.array([0.4, 0.3, 0.2, 0.1])

print("matrix: canonical class IV")
print("start :", x0)

report = detect_period(M, x0, section=section)
print(f"period            T = {report.period:.9f}")
print(f"closure residual    = {report.closure_residual:.3e}")

# two reference equilibria on K, chosen from the certified orbit's own
# samples, supply the conserved relative-entropy pair that pins the
# orbit to a closed curve
refs = report.refs
print(f"references on K: z1 = {np.round(refs.z1, 6)}, "
      f"z2 = {np.round(refs.z2, 6)} (margin {refs.margin:.4f})")
print(f"phi drift           = {max(report.phi_drift.values()):.3e}")

# the orbit average is itself an interior equilibrium
xbar = report.time_average
print(f"time average        = {np.round(xbar, 9)}")
print(f"distance to K       = {distance_to_K(xbar, section):.3e}")

# 16 probes displaced by 1e-3 must stay in a thin tube around the orbit
probe = stability_probe(M, report, delta=1e-3, n_probes=16, seed=0)
print(f"probe tube radius   = {probe.max_tube_distance:.3e} "
      f"(delta {probe.delta})")
print(f"probe V drift       = {probe.v_drift_max:.3e}")
print("escaped probes      =", list(probe.escaped) or "none")
