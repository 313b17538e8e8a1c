"""Closed-form isoperimetric profile and perfect arcs of the unit disk.

The family of arcs meeting the unit circle orthogonally is parametrized by
the contact half-angle θ ∈ (0, π/2): curvature cot θ, length (π − 2θ)tan θ,
enclosed area θ − tan θ + (π/2 − θ)tan²θ. The profile is the inverse of the
area map composed with the length map; the map has no closed-form inverse
but is strictly monotone, so a bracketed Brent solve is exact to rounding.
"""

from __future__ import annotations

import numpy as np

from ._roots import invert_monotone
from .errors import OutOfRange

PI = np.pi
HALF_PI = np.pi / 2.0


def _t_cos_t_minus_sin_t(t: float) -> float:
    """t·cos t − sin t, series-protected against cancellation near 0."""
    if abs(t) < 0.05:
        t2 = t * t
        # -t^3/3 * (1 - t^2/10 + t^4/280 - t^6/15120)
        return -(t ** 3) / 3.0 * (1.0 - t2 / 10.0 + t2 * t2 / 280.0 - t2 ** 3 / 15120.0)
    return t * np.cos(t) - np.sin(t)


def _half_angle(theta) -> float:
    """theta as a float, refused unless it lies in (0, π/2)."""
    theta = float(theta)
    if not 0.0 < theta < HALF_PI:
        raise OutOfRange(f"theta must lie in (0, pi/2), got {theta}")
    return theta


def theta_to_area(theta: float) -> float:
    """Enclosed area of the arc at contact half-angle theta.

    Evaluated as θ + cos t·(t cos t − sin t)/sin²t with t = π/2 − θ, which is
    stable where the textbook form θ − tanθ + (π/2−θ)tan²θ loses digits.
    """
    theta = _half_angle(theta)
    t = HALF_PI - theta
    return theta + np.cos(t) * _t_cos_t_minus_sin_t(t) / np.sin(t) ** 2


def theta_to_length(theta: float) -> float:
    """Arc length (π − 2θ)tanθ, evaluated as 2t·cos t/sin t with t = π/2 − θ."""
    theta = _half_angle(theta)
    t = HALF_PI - theta
    return 2.0 * t * np.cos(t) / np.sin(t)


def theta_to_curvature(theta: float) -> float:
    """Arc curvature cot θ."""
    return 1.0 / np.tan(_half_angle(theta))


def area_to_theta(a: float) -> float:
    """Invert the monotone area map on (0, π/2) by Brent's method."""
    a = float(a)
    if not 0.0 < a <= HALF_PI:
        raise OutOfRange(f"area must lie in (0, pi/2], got {a}")
    return invert_monotone(lambda t: theta_to_area(t) - a,
                           1e-12, HALF_PI - 1e-15, 1e-14)


def profile(a: float) -> float:
    """Least length enclosing area a in the unit disk, for a ∈ (0, π).

    Areas above π/2 use the complement symmetry of the profile.
    """
    a = float(a)
    if not 0.0 < a < PI:
        raise OutOfRange(f"area must lie in (0, pi), got {a}")
    a_eff = min(a, PI - a)
    if a_eff == HALF_PI:
        return 2.0
    return theta_to_length(area_to_theta(a_eff))


def arc(u: float, theta: float):
    """The perfect arc of the unit disk at direction u, half-angle theta.

    Center sec θ·(cos u, sin u), radius tan θ, endpoints on the unit circle
    at normal angles u ± θ.
    """
    from .arcs import PerfectArc  # local import to avoid a cycle

    theta = _half_angle(theta)
    u = float(u)
    center = np.array([np.cos(u), np.sin(u)]) / np.cos(theta)
    return PerfectArc(
        kind="circular",
        center=center,
        radius=np.tan(theta),
        curvature=theta_to_curvature(theta),
        endpoint_thetas=(u - theta, u + theta),
        length=theta_to_length(theta),
        enclosed_area=theta_to_area(theta),
        contained=True,
        ortho_residual=0.0,
    )
