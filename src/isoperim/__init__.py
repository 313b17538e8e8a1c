"""Isoperimetric profiles of smooth planar convex bodies.

Profiles are computed through the family of circular arcs (or chords) that
meet the boundary orthogonally: closed forms for the unit disk, a symmetric
arc family for bi-axially symmetric domains, and a brute-force arc search
that works for any convex boundary. A perturbation layer measures how the
profile of the unit disk responds to area-preserving boundary fields.
"""

from . import arcs, disk, geometry, perturbation, profile
from .arcs import (PerfectArc, build_arc, continue_family, two_point_f,
                   two_point_grad, vertex_family)
from .geometry import (DomainClassReport, RadialCurve, SupportCurve, classify,
                       domain_from_spec)
from .perturbation import (ExperimentReport, ModeRoot, PerturbationField,
                           aggregate_second_variation, build_perturbed_domain,
                           find_mode_roots, first_variation_l,
                           implicit_curve_sample, mean_l, mode_condition,
                           profile_decrease_experiment)
from .profile import (ConjectureReport, ProfileTable, conjecture_check,
                      general_profile_oracle, symmetric_profile)

__version__ = "0.1.0"

__all__ = [
    "PerfectArc", "build_arc", "continue_family", "two_point_f",
    "two_point_grad", "vertex_family",
    "DomainClassReport", "RadialCurve", "SupportCurve",
    "classify", "domain_from_spec",
    "ExperimentReport", "ModeRoot", "PerturbationField",
    "aggregate_second_variation", "build_perturbed_domain", "find_mode_roots",
    "first_variation_l", "implicit_curve_sample", "mean_l", "mode_condition",
    "profile_decrease_experiment",
    "ConjectureReport", "ProfileTable", "conjecture_check",
    "general_profile_oracle", "symmetric_profile",
    "arcs", "disk", "geometry", "perturbation", "profile",
]
