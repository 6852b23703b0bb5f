"""Conservative four-strategy replicator dynamics.

Decide permanence from the payoff matrix's sign digraph, compute the
interior equilibrium segment in closed form, certify interior
trajectories as stable periodic orbits, and verify the boundary
behaviour table by simulation.
"""

__version__ = "0.1.0"

from .errors import (DriftBudgetExceeded, EmptyKernelSection,
                     EquilibriumStart, InconsistentClass,
                     MatrixFormatError, NoClosureFound, NotConservative,
                     PreconditionFailed, RankError, Replicator4Error,
                     SelectionExhausted, StepSizeUnderflow,
                     UnclassifiableSignPattern, ZeroMatrix)
from .payoff import PayoffMatrix, format_matrix, parse_matrix, to_skew
from .signgraph import (ClassLabel, SignDigraph, build_digraph, classify,
                        classify_matrix, is_permanent)
from .kernelgeom import (Locus, NullLineSection, distance_to_K,
                         edge_kernel_point, face_kernel_point, kernel_basis,
                         kernel_line_section, section_by_clipping,
                         section_residual)
from .dynamics import (Trajectory, integrate, phi, phi_drift, phi_gradient,
                       vector_field)
from .orbit import (OrbitReport, ReferencePair, StabilityProbe,
                    detect_period, select_reference_points, stability_probe)
from .boundary import (BoundaryPrediction, BoundaryReport, EdgeOutcome,
                       FaceOutcome, boundary_prediction, face_subsystem,
                       predict_edge, predict_face, verify_boundary)
from .ensembles import (canonical_matrix, interior_starts,
                        permanence_probe, sample_acyclic_singular,
                        sample_class_matrix, sample_cyclic_nonsingular)
from .portrait import render_portrait

#: every name imported above, not the submodules (of ``type(errors)``)
__all__ = ["__version__"] + [name for name, value in list(globals().items())
                             if not name.startswith("_")
                             and type(value) is not type(errors)]
