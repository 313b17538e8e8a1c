"""Closed-form isoperimetric profile and perfect arcs of the unit disk.

The family of arcs meeting the unit circle orthogonally is parametrized by
the contact half-angle θ ∈ (0, π/2): curvature cot θ, length (π − 2θ)tan θ,
enclosed area θ − tan θ + (π/2 − θ)tan²θ. The profile is the inverse of the
area map composed with the length map; the map has no closed-form inverse
but is strictly monotone, so a bracketed solve is exact to rounding. Every
map takes arrays elementwise and returns a float for a scalar.
"""

from __future__ import annotations

import numpy as np

from ._roots import invert_monotone_many
from .errors import OutOfRange

PI = np.pi
HALF_PI = np.pi / 2.0


def _float_or_array(x):
    """A 0-d result as a float, any other as an array."""
    return float(x) if np.ndim(x) == 0 else x


def _inside(x, ok, interval: str) -> np.ndarray:
    """x as a float array, refused unless ok(x) holds for every element."""
    x = np.asarray(x, dtype=float)
    bad = ~ok(x)
    if bad.any():
        raise OutOfRange(f"{interval}, got {x[bad].flat[0]}")
    return x


def _half_angle(theta) -> np.ndarray:
    return _inside(theta, lambda t: (0.0 < t) & (t < HALF_PI),
                   "theta must lie in (0, pi/2)")


def theta_to_area(theta):
    """Enclosed area of the arc at contact half-angle theta.

    Evaluated as θ + cos t·(t cos t − sin t)/sin²t with t = π/2 − θ, which is
    stable where the textbook form θ − tanθ + (π/2−θ)tan²θ loses digits;
    near t = 0, t cos t − sin t = −t³/3·(1 − t²/10 + t⁴/280 − t⁶/15120).
    """
    theta = _half_angle(theta)
    t = HALF_PI - theta
    t2 = t * t
    series = -(t ** 3) / 3.0 * (1.0 - t2 / 10.0 + t2 * t2 / 280.0 - t2 ** 3 / 15120.0)
    tcs = np.where(np.abs(t) < 0.05, series, t * np.cos(t) - np.sin(t))
    return _float_or_array(theta + np.cos(t) * tcs / np.sin(t) ** 2)


def theta_to_length(theta):
    """Arc length (π − 2θ)tanθ, evaluated as 2t·cos t/sin t with t = π/2 − θ."""
    theta = _half_angle(theta)
    t = HALF_PI - theta
    return _float_or_array(2.0 * t * np.cos(t) / np.sin(t))


def theta_to_curvature(theta):
    """Arc curvature cot θ."""
    return _float_or_array(1.0 / np.tan(_half_angle(theta)))


def area_to_theta(a):
    """Invert the monotone area map on (0, π/2], all areas in one bracket solve.

    Each root lies in [√(2A/π), √(πA/2)], as A(θ)/θ² falls from π/2 (θ → 0)
    to 2/π (θ = π/2). Proof: A′(θ) = tanθ·L′(θ) = 2 sinθ·P(π/2 − θ) with
    P(v) = (v − sin v cos v)/sin³v. P rises: sin⁴v·P′(v) = sin v (2 + cos²v)
    − 3v cos v is 0 at v = 0 and has derivative 3 sin v (v − sin v cos v) ≥ 0.
    So A′(θ)/θ = 2 (sinθ/θ)·P(π/2 − θ) falls, and with it A(θ)/θ² =
    ∫_0^1 s·A′(sθ)/(sθ) ds.
    """
    a = _inside(a, lambda x: (0.0 < x) & (x <= HALF_PI), "area must lie in (0, pi/2]")
    theta, _ = invert_monotone_many(lambda t, target: theta_to_area(t) - target,
                                    np.sqrt(a / (PI / 2.0)),
                                    np.minimum(np.sqrt(a * (PI / 2.0)), HALF_PI - 1e-15),
                                    1e-14, args=(a,))
    return _float_or_array(theta)


def profile(a):
    """Least length enclosing area a in the unit disk, for a ∈ (0, π).

    Areas above π/2 use the complement symmetry of the profile.
    """
    a = _inside(a, lambda x: (0.0 < x) & (x < PI), "area must lie in (0, pi)")
    return theta_to_length(area_to_theta(np.minimum(a, PI - a)))


def arc(u: float, theta: float):
    """The perfect arc of the unit disk at direction u, half-angle theta.

    Center sec θ·(cos u, sin u), radius tan θ, endpoints on the unit circle
    at normal angles u ± θ.
    """
    from .arcs import PerfectArc  # local import to avoid a cycle

    theta, u = float(_half_angle(theta)), float(u)
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
