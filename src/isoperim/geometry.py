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
# slack of the containment tests, for points on the boundary itself, per
# unit of the length scale ℓ = √(|Ω|/π)
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
    """Shared surface of both curve representations.

    `stack` joins curves of one class into one boundary of many domains; its
    `sample` and `moment_between` read the domain index, which a curve ignores.
    """

    # the series that `sample` reads
    _SAMPLED = ()

    def sample(self, theta, domain=0) -> CurveSamples:  # pragma: no cover
        raise NotImplementedError

    def area(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def length_scale(self) -> float:
        """ℓ = √(|Ω|/π), the radius of the disk of equal area: 1 on area-π
        domains, and the unit of the package's scale-free length tolerances."""
        return float(np.sqrt(self.area() / np.pi))

    def moment_between(self, t0, t1, domain=0):
        """∫ (x y' − y x') dt over [t0, t1]; twice the swept Green area."""
        return self._moment_series.integral_between(t0, t1, domain)

    @classmethod
    def stack(cls, curves) -> "PlaneBoundary":
        """The curves, all of this class, as one boundary whose domain j is
        curves[j] (a stack of one is curves[0]): each series that `sample` and
        `moment_between` read holds one coefficient row per domain. A stack
        of several has no one area, so neither `area` nor `length_scale`."""
        if len(curves) == 1:
            return curves[0]
        out = object.__new__(cls)

        def area():
            raise ValueError(f"a stack of {len(curves)} domains has no one area")
        out.area = area
        for name in cls._SAMPLED + ("_moment_series",):
            out.__dict__[name] = TrigSeries.stack([getattr(c, name) for c in curves])
        return out


class SupportCurve(PlaneBoundary):
    """Convex boundary from a truncated Fourier support function.

    cos_coeffs holds a_m for cos(mθ), m = 0..M; sin_coeffs holds b_m for
    sin(mθ), m = 1..M. All geometry (position, curvature, area, arclength)
    derives from these coefficients in closed form.
    """

    _SAMPLED = ("h_series", "_h_prime", "rho_series")

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
    def _rho_jet(self) -> tuple:
        """(ρ, ρ′, ρ″, ρ‴), for the vertex scan and the curvature jet."""
        jet = [self.rho_series]
        for _ in range(3):
            jet.append(jet[-1].derivative())
        return tuple(jet)

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

    def sample(self, theta, domain=0) -> CurveSamples:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        h, hp, rho = TrigSeries.evaluate(theta, self.h_series, self._h_prime,
                                         self.rho_series, domain=domain)
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
        # from mode 2: mode 1's factor 1 − k² is 0, and 0·(1e155)² would be NaN
        k = np.arange(2, h.order + 1, dtype=float)
        quad = h.cos_c[0] ** 2 * TWO_PI + np.pi * np.sum(
            (1.0 - k * k) * (h.cos_c[2:] ** 2 + h.sin_c[2:] ** 2))
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

    def contains_many(self, points):
        """Support test P·N(φ) ≤ h(φ) on a dense grid of directions, with
        slack CONTAIN_TOL·ℓ (`length_scale`). Points of shape (..., n, 2)
        give one verdict per point set: a bool for one set, else an array."""
        normals, h = self._support_table
        # h − max P·N is min(h − P·N) exactly, on a table n times smaller
        reach = np.max(np.asarray(points, float) @ normals.T, axis=-2)
        inside = np.min(h - reach, axis=-1) >= -CONTAIN_TOL * self.length_scale()
        return inside if inside.ndim else bool(inside)

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

    _SAMPLED = ("radius_series", "_r_prime", "_r_second")

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

    def sample(self, u, domain=0) -> CurveSamples:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        r, rp, rpp = TrigSeries.evaluate(u, self.radius_series, self._r_prime,
                                         self._r_second, domain=domain)
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

    def contains_many(self, points):
        """r ≤ r(u) at each point's polar angle, with slack CONTAIN_TOL·ℓ;
        one verdict per point set, as for `SupportCurve.contains_many`."""
        p = np.asarray(points, dtype=float)
        rad = np.hypot(p[..., 0], p[..., 1])
        bound = self.radius_series(np.arctan2(p[..., 1], p[..., 0]))
        inside = np.all(rad <= bound + CONTAIN_TOL * self.length_scale(), axis=-1)
        return inside if inside.ndim else bool(inside)

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
    """Every coefficient is below SYMMETRY_TOL relative to the mean radius a0."""
    scale = abs(curve.cos_coeffs[0])
    return all(abs(c) <= SYMMETRY_TOL * scale for c in coeffs)


def _is_disk_coeffs(curve: SupportCurve) -> bool:
    """ρ = h + h'' is constant: only modes 0 and 1 (a translation) remain."""
    return _negligible(curve, curve.cos_coeffs[2:] + curve.sin_coeffs[1:])


def is_symmetric(curve: SupportCurve) -> bool:
    """Symmetric about both axes: no sine and no odd cosine modes."""
    return _negligible(curve, curve.cos_coeffs[1::2] + curve.sin_coeffs)


def _curvature_jet(curve: SupportCurve, theta) -> tuple:
    """(κ, dκ/ds, d²κ/ds², d³κ/ds³) at boundary angles, elementwise, from one
    evaluation of ρ and its derivatives.

    With κ = 1/ρ, dθ/ds = κ and q_i = ρ⁽ⁱ⁾/ρ (scale-free), the chain rule
    gives κ_s = −q1/ρ², κ_ss = (3q1² − q2)/ρ³ and
    κ_sss = (10q1q2 − 15q1³ − q3)/ρ⁴; only powers of κ carry the scale, so
    no power of ρ overflows.
    """
    rho, *r = TrigSeries.evaluate(theta, *curve._rho_jet)
    kap = 1.0 / rho
    q1, q2, q3 = (x * kap for x in r)
    k_s = -q1 * kap * kap
    k_ss = (3.0 * q1 * q1 - q2) * kap * kap * kap
    k_sss = (10.0 * q1 * q2 - 15.0 * q1 ** 3 - q3) * kap * kap * kap * kap
    return kap, k_s, k_ss, k_sss


def curvature_arclength_derivatives(curve: SupportCurve, theta):
    """(dκ/ds, d²κ/ds², d³κ/ds³) at boundary angles (`_curvature_jet`)."""
    return _curvature_jet(curve, theta)[1:]


def find_vertices(curve: SupportCurve):
    """Roots of κ'(θ) (equivalently ρ'(θ)) by sign-change scan, refined by
    `sign_change_roots`; sorted, in (−1e-6, 2π − 1e-6]."""
    rho1 = curve._rho_jet[1]
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
    kap_v, _, k_ss, _ = _curvature_jet(curve, np.array(vertices))
    kap = np.append(kap, kap_v)
    kappa_max, kappa_min = float(np.max(kap)), float(np.min(kap))

    # κ_ss·a0³ is scale-free (a0 the mean radius)
    degenerate = bool(np.any(np.abs(k_ss) * curve.cos_coeffs[0] ** 3
                             < DEGENERATE_KPP_TOL))

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
        curve = build(*(float(params[name]) for name in names))
    elif "support_cos" in spec:
        coeffs = [spec["support_cos"], spec.get("support_sin", [])]
        if not all(isinstance(c, list) and all(map(is_number, c)) for c in coeffs):
            raise ValueError("support_cos and support_sin must be lists of numbers")
        curve = SupportCurve(*map(tuple, coeffs))
    else:
        raise ValueError("domain spec needs 'preset' or 'support_cos'")
    with np.errstate(over="ignore", invalid="ignore"):  # inf, inf − inf or 0
        area = curve.area()
    if not 0.0 < area < np.inf:
        raise ValueError(f"domain area {area} is not a finite positive number")
    return curve
