"""hypflow: hyperbolicity classification and robustness of linear flows.

The package decides whether a real square matrix is hyperbolic (no eigenvalue
on the imaginary axis), computes its stable/unstable dimensions, quantifies
how large a perturbation the classification survives, constructs hyperbolic
approximants by diagonal shifts, and simulates the flow e^{tH}.
"""

from .densemat import as_matrix, det, op_norm2, shift, solve
from .errors import (ConjugacyViolation, DimensionMismatch, FlowOverflow,
                     HypflowError, InvalidClass, NonAscendingGrid,
                     NonConvergence, NotHermitian, NotHyperbolic,
                     ShiftTooSmall, UnsupportedDimension)
from .flow import SplittingBases, Trajectory, expm, expm_many, flow_map, \
    portrait, splitting, trajectory
from .inertia import (HYPERBOLIC, INDETERMINATE, NON_HYPERBOLIC,
                      ConjugacyClass, Inertia, Verdict, classify,
                      conjugacy_class, default_tolerance, inertia_of,
                      same_class)
from .matching import matched_distance, min_weight_assignment, pair_values
from .robustness import (CampaignReport, ContinuityReport, HyperbolizeResult,
                         MarginResult, continuity_check, generate,
                         hyperbolize, margin, perturb_campaign, vieta_check)
from .spectral import (CharPoly, Spectrum, char_poly, eigenvalues,
                       hermitian_eigs, poly_from_roots, poly_roots, sigma_min)

__version__ = "0.1.0"

__all__ = [
    "as_matrix", "det", "op_norm2", "shift", "solve",
    "HypflowError", "NonConvergence", "NotHermitian", "ConjugacyViolation",
    "NotHyperbolic", "DimensionMismatch", "ShiftTooSmall", "InvalidClass",
    "NonAscendingGrid", "UnsupportedDimension", "FlowOverflow",
    "Spectrum", "CharPoly", "eigenvalues", "char_poly", "poly_roots",
    "poly_from_roots", "hermitian_eigs", "sigma_min",
    "min_weight_assignment", "pair_values", "matched_distance",
    "Inertia", "ConjugacyClass", "Verdict", "HYPERBOLIC", "NON_HYPERBOLIC",
    "INDETERMINATE", "classify", "conjugacy_class", "default_tolerance",
    "inertia_of", "same_class",
    "MarginResult", "HyperbolizeResult", "CampaignReport", "ContinuityReport",
    "margin", "hyperbolize", "perturb_campaign", "continuity_check",
    "vieta_check", "generate",
    "Trajectory", "SplittingBases", "expm", "expm_many", "flow_map",
    "trajectory",
    "splitting", "portrait",
    "__version__",
]
