"""
What happens on the boundary, and checking it by simulation
===========================================================

Permanence protects the interior, not the boundary: each edge and face
of the simplex carries its own lower-dimensional replicator flow.  The
prediction table is read off the sign pattern; verify_boundary then
integrates from seeded starts inside every region and grades the
outcome.
"""

from replicator4 import (boundary_prediction, canonical_matrix,
                         verify_boundary)

M = canonical_matrix("V")
prediction = boundary_prediction(M)

print("predictions for canonical class V")
for edge in prediction.edges:
    print(f"  edge {edge.edge}: {edge.kind}"
          + (f" -> {edge.vertex}" if edge.vertex else ""))
for face in prediction.faces:
    line = f"  face -{face.face}: {face.kind}"
    if face.vertex:
        line += f" -> vertex {face.vertex}"
    if face.edge:
        line += f" -> edge {face.edge}"
    if face.constraint is not None:
        line += f"  [{face.constraint}]"
    print(line)
print("  unstable vertices:", list(prediction.unstable_vertices))

# every region gets simulated starts; "pass" means the trajectory did
# what the table said within tolerance, "measured" means the region
# only records a quantity instead of being graded
report = verify_boundary(M, prediction, seed=0)
print(f"\nverified (seed 0, t_end {report.t_end}): passed={report.passed}")
for region in report.regions:
    print(f"  {region.region:10s} {region.status}")
