"""Smooth convex plane curves and their differential geometry.

Two boundary representations are provided. `SupportCurve` stores a truncated
Fourier support function h(θ) parametrized by the outward normal angle;
convexity is the positivity of ρ = h + h'' and closure is automatic.
`RadialCurve` stores r(u) for star-shaped boundaries parametrized by the
polar angle, used for radial perturbations of the circle. Both expose the
same sampling surface (position, tangent, normal, curvature, parametric
speed) so the arc machinery works on either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._roots import invert_monotone_many, sign_change_roots
from .errors import NonConvex, NumericalError
from .trig import TrigSeries, fit_periodic

TWO_PI = 2.0 * np.pi

# dense grid size for convexity / extrema scans
SCAN_NODES = 4096
# slack of the containment tests, for points on the boundary itself
CONTAIN_TOL = 1e-9


class CurveSamples(NamedTuple):
    """Vectorized boundary samples; arrays are indexed like `theta`."""

    theta: np.ndarray
    position: np.ndarray   # shape (n, 2)
    tangent: np.ndarray    # shape (n, 2)
    normal: np.ndarray     # shape (n, 2)
    curvature: np.ndarray
    speed: np.ndarray      # |dC/dθ|


class PlaneBoundary:
    """Shared surface of both curve representations."""

    def sample(self, theta) -> CurveSamples:  # pragma: no cover - abstract
        raise NotImplementedError

    def area(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def moment_between(self, t0, t1):
        """∫ (x y' − y x') dt over [t0, t1]; twice the swept Green area."""
        return self._moment_series.integral_between(t0, t1)


class SupportCurve(PlaneBoundary):
    """Convex boundary from a truncated Fourier support function.

    cos_coeffs holds a_m for cos(mθ), m = 0..M; sin_coeffs holds b_m for
    sin(mθ), m = 1..M. All geometry (position, curvature, area, arclength)
    derives from these coefficients in closed form.
    """

    def __init__(self, cos_coeffs, sin_coeffs=()):
        self.cos_coeffs = tuple(float(c) for c in cos_coeffs)
        self.sin_coeffs = tuple(float(c) for c in sin_coeffs)
        if not self.cos_coeffs:
            raise ValueError("need at least the constant support coefficient")
        if not np.all(np.isfinite(self.cos_coeffs + self.sin_coeffs)):
            raise ValueError("support coefficients must be finite")

    # --- series ------------------------------------------------------------

    @cached_property
    def h_series(self) -> TrigSeries:
        return TrigSeries(np.array(self.cos_coeffs),
                          np.array((0.0,) + self.sin_coeffs))

    @cached_property
    def rho_series(self) -> TrigSeries:
        """Radius of curvature ρ = h + h'' (Fourier multiplier 1 − m²)."""
        h = self.h_series
        k = np.arange(h.order + 1, dtype=float)
        mult = 1.0 - k * k
        return TrigSeries(mult * h.cos_c, mult * h.sin_c)

    @cached_property
    def _h_prime(self) -> TrigSeries:
        return self.h_series.derivative()

    @cached_property
    def _moment_series(self) -> TrigSeries:
        # x y' − y x' = (C·N)(h + h'') = h·ρ for the normal-angle parametrization
        return self.h_series.product(self.rho_series)

    @cached_property
    def _min_rho(self) -> float:
        return float(np.min(TrigSeries.on_grid(SCAN_NODES, self.rho_series)[0]))

    # --- constructors --------------------------------------------------------

    @staticmethod
    def disk(radius: float = 1.0) -> "SupportCurve":
        return SupportCurve((float(radius),))

    @staticmethod
    def ellipse(a: float, b: float) -> "SupportCurve":
        """Axis-aligned ellipse with semi-axes a (x) and b (y)."""
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        fn = lambda t: np.sqrt(a * a * np.cos(t) ** 2 + b * b * np.sin(t) ** 2)
        series = fit_periodic(fn)
        return SupportCurve(tuple(series.cos_c), tuple(series.sin_c[1:]))

    # --- geometry ------------------------------------------------------------

    def rho(self, theta):
        return self.rho_series(theta)

    def require_convex(self):
        if self._min_rho <= 0.0:
            raise NonConvex(f"h + h'' has minimum {self._min_rho:.3e} <= 0.0")

    def sample(self, theta) -> CurveSamples:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        h, hp, rho = TrigSeries.evaluate(theta, self.h_series, self._h_prime,
                                         self.rho_series)
        if np.any(rho <= 0.0):
            raise NonConvex("h + h'' <= 0 at a requested angle")
        ct, st = np.cos(theta), np.sin(theta)
        # filled in place: np.stack costs several times a preallocated fill
        position, normal, tangent = (np.empty(theta.shape + (2,)) for _ in range(3))
        position[..., 0], position[..., 1] = h * ct - hp * st, h * st + hp * ct
        normal[..., 0], normal[..., 1] = ct, st
        tangent[..., 0], tangent[..., 1] = -st, ct
        return CurveSamples(theta, position, tangent, normal, 1.0 / rho, rho)

    def area(self) -> float:
        """Enclosed area, exact for Fourier data (Parseval on ½∮h(h+h''))."""
        self.require_convex()
        h = self.h_series
        k = np.arange(h.order + 1, dtype=float)
        mult = 1.0 - k * k
        quad = h.cos_c[0] ** 2 * TWO_PI + np.pi * np.sum(
            mult[1:] * (h.cos_c[1:] ** 2 + h.sin_c[1:] ** 2))
        return float(quad / 2.0)

    def perimeter(self) -> float:
        return TWO_PI * self.cos_coeffs[0]

    def normalized_to(self, target_area: float) -> "SupportCurve":
        """Uniformly rescale so the enclosed area equals target_area."""
        if target_area <= 0.0:
            raise ValueError("target area must be positive")
        lam = np.sqrt(target_area / self.area())
        return SupportCurve(tuple(lam * c for c in self.cos_coeffs),
                            tuple(lam * c for c in self.sin_coeffs))

    @cached_property
    def _support_table(self):
        t = np.linspace(0.0, TWO_PI, 720, endpoint=False)
        normals = np.stack([np.cos(t), np.sin(t)], axis=-1)
        return normals, self.h_series(t)

    def contains_many(self, points) -> bool:
        """Support test P·N(φ) ≤ h(φ) on a dense grid of directions."""
        normals, h = self._support_table
        margins = h[None, :] - np.asarray(points, float) @ normals.T
        return bool(np.min(margins) >= -CONTAIN_TOL)

    # --- arclength -----------------------------------------------------------

    def arclength_between(self, t0, t1):
        """∫ ρ dθ over [t0, t1], exact."""
        return self.rho_series.integral_between(t0, t1)

    def theta_at_arclength(self, theta_ref: float, s):
        """Invert the arclength map from theta_ref, elementwise in s.

        ds/dθ = ρ ≥ min ρ, so each root lies between theta_ref and
        theta_ref + s/min ρ.
        """
        self.require_convex()
        far = theta_ref + np.asarray(s, dtype=float) / self._min_rho
        theta, _ = invert_monotone_many(
            lambda t, target: self.arclength_between(theta_ref, t) - target,
            np.fmin(theta_ref, far), np.fmax(theta_ref, far), 1e-15, args=(s,))
        if not np.all(np.abs(self.arclength_between(theta_ref, theta) - s) <= 1e-11):
            raise NumericalError("arclength inversion did not converge")
        return float(theta) if theta.ndim == 0 else theta

    def __repr__(self):
        return f"SupportCurve(modes={self.h_series.order}, area={self.area():.6g})"


class RadialCurve(PlaneBoundary):
    """Star-shaped boundary r(u)·(cos u, sin u) with Fourier radial profile."""

    def __init__(self, radius_series: TrigSeries):
        self.radius_series = radius_series

    @cached_property
    def _moment_series(self) -> TrigSeries:
        # x y' − y x' = r² in polar parametrization
        return self.radius_series.product(self.radius_series)

    @cached_property
    def _r_prime(self) -> TrigSeries:
        return self.radius_series.derivative()

    @cached_property
    def _r_second(self) -> TrigSeries:
        return self._r_prime.derivative()

    def sample(self, u) -> CurveSamples:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        r, rp, rpp = TrigSeries.evaluate(u, self.radius_series, self._r_prime,
                                         self._r_second)
        cu, su = np.cos(u), np.sin(u)
        dx = rp * cu - r * su
        dy = rp * su + r * cu
        w = np.hypot(dx, dy)
        position, tangent, normal = (np.empty(u.shape + (2,)) for _ in range(3))
        position[..., 0], position[..., 1] = r * cu, r * su
        tangent[..., 0], tangent[..., 1] = dx / w, dy / w
        normal[..., 0], normal[..., 1] = tangent[..., 1], -tangent[..., 0]
        curvature = (r * r + 2.0 * rp * rp - r * rpp) / w ** 3
        return CurveSamples(u, position, tangent, normal, curvature, w)

    def area(self) -> float:
        c = self.radius_series.cos_c
        s = self.radius_series.sin_c
        return float(np.pi * c[0] ** 2 + (np.pi / 2.0) * np.sum(c[1:] ** 2 + s[1:] ** 2))

    def min_curvature(self) -> float:
        u = np.linspace(0.0, TWO_PI, SCAN_NODES, endpoint=False)
        return float(np.min(self.sample(u).curvature))

    def contains_many(self, points) -> bool:
        p = np.asarray(points, dtype=float)
        rad = np.hypot(p[:, 0], p[:, 1])
        bound = self.radius_series(np.arctan2(p[:, 1], p[:, 0]))
        return bool(np.all(rad <= bound + CONTAIN_TOL))

    def scaled(self, lam: float) -> "RadialCurve":
        rs = self.radius_series
        return RadialCurve(TrigSeries(lam * rs.cos_c, lam * rs.sin_c))

    def __repr__(self):
        return f"RadialCurve(modes={self.radius_series.order}, area={self.area():.6g})"


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainClassReport:
    """Vertex structure, curvature extremes and symmetry-class verdict."""

    is_class_A: bool
    vertex_thetas: tuple
    kappa_max: float
    kappa_min: float
    area: float
    perimeter: float
    is_disk: bool = False
    degenerate: bool = False


SYMMETRY_TOL = 1e-12
DEGENERATE_KPP_TOL = 1e-8


def _negligible(curve: SupportCurve, coeffs) -> bool:
    scale = max(abs(curve.cos_coeffs[0]), 1.0)
    return all(abs(c) <= SYMMETRY_TOL * scale for c in coeffs)


def _is_disk_coeffs(curve: SupportCurve) -> bool:
    """ρ = h + h'' is constant: only modes 0 and 1 (a translation) remain."""
    return _negligible(curve, curve.cos_coeffs[2:] + curve.sin_coeffs[1:])


def is_symmetric(curve: SupportCurve) -> bool:
    """Symmetric about both axes: no sine and no odd cosine modes."""
    return _negligible(curve, curve.cos_coeffs[1::2] + curve.sin_coeffs)


def curvature_arclength_derivatives(curve: SupportCurve, theta: float):
    """(dκ/ds, d²κ/ds², d³κ/ds³) at a boundary angle, from the ρ series."""
    rho_s = curve.rho_series
    rho1_s = rho_s.derivative()
    rho2_s = rho1_s.derivative()
    rho3_s = rho2_s.derivative()
    rho = rho_s(theta)
    r1, r2, r3 = rho1_s(theta), rho2_s(theta), rho3_s(theta)
    kap = 1.0 / rho
    k_t = -r1 / rho ** 2
    k_tt = -r2 / rho ** 2 + 2.0 * r1 ** 2 / rho ** 3
    k_ttt = -r3 / rho ** 2 + 6.0 * r1 * r2 / rho ** 3 - 6.0 * r1 ** 3 / rho ** 4
    # chain rule through dθ/ds = κ
    k_s = k_t * kap
    k_ss = (k_tt * kap + k_t ** 2) * kap
    k_sss = ((k_ttt * kap + 3.0 * k_t * k_tt) * kap + (k_tt * kap + k_t ** 2) * k_t) * kap
    return k_s, k_ss, k_sss


def find_vertices(curve: SupportCurve):
    """Roots of κ'(θ) (equivalently ρ'(θ)) by sign-change scan, refined by
    `sign_change_roots`; sorted, in (−1e-6, 2π − 1e-6]."""
    rho1 = curve.rho_series.derivative()
    vals = TrigSeries.on_grid(SCAN_NODES, rho1)[0]
    # close the periodic scan so the cell that wraps past 2π is searched too
    _, x = sign_change_roots(lambda x, _: rho1(x),
                             np.linspace(0.0, TWO_PI, SCAN_NODES + 1)[None],
                             np.append(vals, vals[0])[None], 1e-12)
    x = np.mod(x, TWO_PI)
    x = np.sort(np.where(x > TWO_PI - 1e-6, x - TWO_PI, x))
    # dedupe near-identical roots, the first one included across the wrap
    keep = (np.diff(x, prepend=-np.inf) > 1e-9) & (x - x[:1] < TWO_PI - 1e-9)
    return x[keep].tolist()


def classify(curve: SupportCurve) -> DomainClassReport:
    """Locate vertices, report curvature extremes and the symmetry class.

    A disk, centered anywhere, is reported as a distinguished degenerate case
    (κ' ≡ 0): it gets is_disk=True, no vertex list, and is_class_A=False.
    """
    curve.require_convex()
    area = curve.area()
    perimeter = curve.perimeter()

    kap = 1.0 / TrigSeries.on_grid(SCAN_NODES, curve.rho_series)[0]

    if _is_disk_coeffs(curve):
        k = 1.0 / curve.cos_coeffs[0]
        return DomainClassReport(False, (), k, k, area, perimeter,
                                 is_disk=True, degenerate=True)

    vertices = find_vertices(curve)
    kap_v = [float(1.0 / curve.rho(v)) for v in vertices]
    kappa_max = max([float(np.max(kap))] + kap_v)
    kappa_min = min([float(np.min(kap))] + kap_v)

    degenerate = False
    for v in vertices:
        _, k_ss, _ = curvature_arclength_derivatives(curve, v)
        if abs(k_ss) < DEGENERATE_KPP_TOL:
            degenerate = True

    expected = {0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0}
    at_axes = len(vertices) == 4 and all(
        any(min(abs(v - e), TWO_PI - abs(v - e)) < 1e-6 for e in expected)
        for v in vertices)

    is_class_a = is_symmetric(curve) and at_axes and not degenerate
    return DomainClassReport(is_class_a, tuple(vertices), kappa_max, kappa_min,
                             area, perimeter, is_disk=False, degenerate=degenerate)


# --------------------------------------------------------------------------
# domain specs (CLI / file interface)
# --------------------------------------------------------------------------

def domain_from_spec(spec: dict) -> SupportCurve:
    """Build a SupportCurve from the JSON domain spec.

    Accepted forms:
      {"preset": "disk", "params": {"radius": 1.0}}
      {"preset": "ellipse", "params": {"a": ..., "b": ...}}
      {"support_cos": [...], "support_sin": [...]}
    """
    if not isinstance(spec, dict):
        raise ValueError("domain spec must be a JSON object")
    is_number = lambda x: isinstance(x, (int, float)) and not isinstance(x, bool)
    if "preset" in spec:
        params = spec.get("params", {}) or {}
        if not isinstance(params, dict):
            raise ValueError("params must be a JSON object")
        preset = spec["preset"]
        if preset == "disk":
            params = {"radius": 1.0, **params}
            names, build = ("radius",), SupportCurve.disk
        elif preset == "ellipse":
            if "a" not in params or "b" not in params:
                raise ValueError("ellipse preset needs params a and b")
            names, build = ("a", "b"), SupportCurve.ellipse
        else:
            raise ValueError(f"unknown preset {preset!r}")
        for name in names:
            if not is_number(params[name]):
                raise ValueError(f"{preset} param {name} must be a number")
        return build(*(float(params[name]) for name in names))
    if "support_cos" in spec:
        coeffs = [spec["support_cos"], spec.get("support_sin", [])]
        if not all(isinstance(c, list) and all(map(is_number, c)) for c in coeffs):
            raise ValueError("support_cos and support_sin must be lists of numbers")
        return SupportCurve(*map(tuple, coeffs))
    raise ValueError("domain spec needs 'preset' or 'support_cos'")
