import numpy as np
import pytest
from hypothesis import given, strategies as st

from isoperim.errors import NonConvex
from isoperim.geometry import (RadialCurve, SupportCurve, classify,
                               curvature_arclength_derivatives,
                               domain_from_spec)
from isoperim.trig import TrigSeries

SQRT2 = np.sqrt(2.0)
TWO_PI = 2.0 * np.pi


@st.composite
def convex_curves(draw):
    """Random convex support curves: rho >= 0.2*a0 by coefficient budget."""
    a0 = draw(st.floats(0.5, 2.0))
    modes = draw(st.lists(st.integers(1, 5), max_size=3, unique=True))
    cos_c = [a0] + [0.0] * 5
    sin_c = [0.0] * 5
    for m in modes:
        cap = 0.8 * a0 / (len(modes) * max(m * m - 1, 1))
        cos_c[m] = draw(st.floats(-cap, cap))
        sin_c[m - 1] = draw(st.floats(-cap, cap))
    return SupportCurve(tuple(cos_c), tuple(sin_c))


# --- evaluation against an independent ellipse parametrization -------------

def ellipse_reference(a, b, t):
    """Point/normal of x = a cos t, y = b sin t, plus its normal angle."""
    pos = np.array([a * np.cos(t), b * np.sin(t)])
    n = np.array([b * np.cos(t), a * np.sin(t)])
    n /= np.hypot(*n)
    theta = np.arctan2(n[1], n[0])
    speed = np.hypot(a * np.sin(t), b * np.cos(t))
    curv = a * b / speed ** 3
    return pos, n, theta, curv


@pytest.mark.parametrize("t", [0.0, 0.4, 1.1, 2.0, 3.3, 5.1])
def test_ellipse_against_parametric_reference(ellipse_main, t):
    a, b = SQRT2, 1.0 / SQRT2
    pos, n, theta, curv = ellipse_reference(a, b, t)
    p = ellipse_main.sample(theta)
    assert np.allclose(p.position[0], pos, atol=1e-10)
    assert np.allclose(p.normal[0], n, atol=1e-12)
    assert p.curvature[0] == pytest.approx(curv, rel=1e-9)


def test_disk_point_identity(unit_disk):
    p = unit_disk.sample(0.0)
    assert np.allclose(p.position[0], [1.0, 0.0])
    assert p.curvature[0] == pytest.approx(1.0, abs=1e-14)
    q = unit_disk.sample(np.pi / 2.0)
    assert np.allclose(q.tangent[0], [-1.0, 0.0], atol=1e-15)
    assert np.allclose(q.normal[0], [0.0, 1.0], atol=1e-15)


def test_ellipse_point_and_curvature(ellipse_main):
    p = ellipse_main.sample(0.0)
    assert np.allclose(p.position[0], [SQRT2, 0.0], atol=1e-10)
    assert p.curvature[0] == pytest.approx(2.0 * SQRT2, rel=1e-10)


def test_nonconvex_rejected():
    bad = SupportCurve((1.0, 0.0, 0.5))  # rho(0) = 1 - 3*0.5 < 0
    with pytest.raises(NonConvex):
        bad.sample(0.0)
    with pytest.raises(NonConvex):
        bad.area()


# --- area, perimeter, normalization -----------------------------------------

def test_areas():
    assert SupportCurve.disk().area() == pytest.approx(np.pi, abs=1e-14)
    assert SupportCurve.disk(2.0).area() == pytest.approx(4.0 * np.pi, abs=1e-13)
    e = SupportCurve.ellipse(SQRT2, 1.0 / SQRT2)
    assert e.area() == pytest.approx(np.pi, abs=1e-12)


def test_area_matches_quadrature(ellipse_main):
    # 0.5 * integral of h * rho dtheta, spectral trapezoid
    t = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    quad = 0.5 * np.mean(ellipse_main.h_series(t) * ellipse_main.rho_series(t)) * TWO_PI
    assert ellipse_main.area() == pytest.approx(quad, abs=1e-12)


def test_normalize_scaling():
    assert SupportCurve.disk(2.0).normalized_to(np.pi).cos_coeffs[0] == \
        pytest.approx(1.0, abs=1e-15)
    e21 = SupportCurve.ellipse(2.0, 1.0).normalized_to(np.pi)
    want = SupportCurve.ellipse(SQRT2, 1.0 / SQRT2)
    got = np.array(e21.cos_coeffs[: len(want.cos_coeffs)])
    ref = np.array(want.cos_coeffs[: len(got)])
    assert np.allclose(got, ref, atol=1e-12)


@given(convex_curves())
def test_normalize_postcondition(curve):
    scaled = curve.normalized_to(np.pi)
    assert scaled.area() == pytest.approx(np.pi, rel=1e-12)


# --- frame and closure invariants -------------------------------------------

@given(convex_curves(), st.floats(0.0, TWO_PI))
def test_frame_invariants(curve, theta):
    s = curve.sample(theta)
    tangent, normal = s.tangent[0], s.normal[0]
    assert abs(np.dot(tangent, normal)) < 1e-12
    assert np.hypot(*tangent) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(normal, [np.cos(theta), np.sin(theta)], atol=1e-12)


@given(convex_curves())
def test_closure_integrals(curve):
    t = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    rho = curve.rho_series(t)
    assert abs(np.mean(np.cos(t) * rho) * TWO_PI) < 1e-10
    assert abs(np.mean(np.sin(t) * rho) * TWO_PI) < 1e-10


@given(convex_curves())
def test_total_turning(curve):
    t = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    s = curve.sample(t)
    total = np.mean(s.curvature * s.speed) * TWO_PI
    assert total == pytest.approx(TWO_PI, abs=1e-10)


@given(convex_curves())
def test_position_closes(curve):
    gap = curve.sample(np.array([0.0])).position[0] - \
        curve.sample(np.array([TWO_PI])).position[0]
    assert np.hypot(*gap) < 1e-12


def test_pestov_ionin_consequence(class_a_suite):
    for name, curve in class_a_suite.items():
        rep = classify(curve)
        assert rep.kappa_max > 1.0, name
        assert rep.kappa_min < 1.0, name


def test_radius_monotone_between_vertices(class_a_suite):
    # C.T < 0 on (0, pi/2): the radius decreases from the x- to the y-vertex
    thetas = np.linspace(1e-3, np.pi / 2.0 - 1e-3, 400)
    for name, curve in class_a_suite.items():
        s = curve.sample(thetas)
        ct = np.einsum("ij,ij->i", s.position, s.tangent)
        assert np.all(ct < 0.0), name


# --- classification ----------------------------------------------------------

def test_classify_disk(unit_disk):
    rep = classify(unit_disk)
    assert rep.is_disk and rep.degenerate and not rep.is_class_A
    assert rep.vertex_thetas == ()
    assert rep.kappa_max == pytest.approx(1.0)


@pytest.mark.parametrize("a, b", [(0.3, 0.0), (0.0, 0.3), (0.2, -0.25)])
def test_classify_translated_disk(a, b):
    # a translation adds a cos θ + b sin θ to h and leaves ρ = h + h'' alone
    rep = classify(SupportCurve((1.0, a), (b,)))
    assert rep.is_disk and rep.degenerate and not rep.is_class_A
    assert rep.vertex_thetas == ()
    assert rep.kappa_max == rep.kappa_min == 1.0
    assert rep.area == pytest.approx(np.pi, abs=1e-14)
    assert rep.perimeter == pytest.approx(TWO_PI, abs=1e-14)


def test_classify_ellipse(ellipse_main):
    rep = classify(ellipse_main)
    assert rep.is_class_A and not rep.is_disk
    assert len(rep.vertex_thetas) == 4
    want = [0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0]
    for v, w in zip(sorted(x % TWO_PI if x > 1e-6 else x for x in rep.vertex_thetas), want):
        assert v == pytest.approx(w, abs=1e-6)
    assert rep.kappa_max == pytest.approx(2.0 * SQRT2, rel=1e-9)
    assert rep.kappa_min == pytest.approx(1.0 / (2.0 * SQRT2), rel=1e-9)
    assert rep.kappa_max > 1.0 and rep.kappa_min < 1.0


def test_classify_fourier_domain(fourier_domain):
    rep = classify(fourier_domain)
    assert rep.is_class_A
    assert len(rep.vertex_thetas) == 4
    assert rep.area == pytest.approx(np.pi, abs=1e-12)


def test_classify_rejects_asymmetric():
    tilted = SupportCurve((1.0, 0.0, 0.05), (0.0, 0.02))
    rep = classify(tilted)
    assert not rep.is_class_A and not rep.is_disk


def test_classify_flags_near_degenerate_vertices():
    # coefficient large enough to escape the disk test but with kappa''
    # below the degeneracy floor at every vertex
    wobble = SupportCurve((1.0, 0.0, 0.0, 0.0, 1e-11))
    rep = classify(wobble)
    assert rep.degenerate
    assert not rep.is_class_A and not rep.is_disk


def _on_grid_by_evaluate(n, *series):
    """The route `TrigSeries.on_grid` replaced: the cos/sin basis on the grid."""
    return TrigSeries.evaluate(np.linspace(0.0, TWO_PI, n, endpoint=False), *series)


def test_classify_matches_direct_scan(monkeypatch, class_a_suite):
    curves = [*class_a_suite.values(),
              SupportCurve.ellipse(np.sqrt(6.0), 1.0 / np.sqrt(6.0)),
              SupportCurve.ellipse(10.0, 0.1)]
    fft = [classify(c) for c in curves]
    monkeypatch.setattr(TrigSeries, "on_grid", staticmethod(_on_grid_by_evaluate))
    # fresh curves: the direct route must not reuse cached scans
    direct = [classify(SupportCurve(c.cos_coeffs, c.sin_coeffs)) for c in curves]
    for got, want in zip(fft, direct):
        assert got.vertex_thetas == want.vertex_thetas
        assert (got.is_class_A, got.degenerate) == (want.is_class_A, want.degenerate)


def test_arclength_derivatives_at_vertex(ellipse_main):
    k_s, k_ss, k_sss = curvature_arclength_derivatives(ellipse_main, 0.0)
    assert abs(k_s) < 1e-9
    assert k_ss < 0.0  # curvature maximum on the major axis
    assert abs(k_sss) < 1e-6  # bilateral symmetry


def test_arclength_inversion_roundtrip(ellipse_main):
    for theta in (0.3, 1.2, 4.0, -0.5):  # θ < θ_ref: negative s
        s = ellipse_main.arclength_between(0.1, theta)
        back = ellipse_main.theta_at_arclength(0.1, s)
        assert back == pytest.approx(theta, abs=1e-12)


# --- radial curves -----------------------------------------------------------

def test_radial_circle_matches_disk():
    r = RadialCurve(TrigSeries(np.array([1.0]), np.array([0.0])))
    s = r.sample(np.array([0.3, 2.0]))
    assert np.allclose(s.curvature, 1.0, atol=1e-14)
    assert r.area() == pytest.approx(np.pi, abs=1e-14)


def test_radial_curvature_formula():
    r = RadialCurve(TrigSeries(np.array([1.0, 0.0, 0.02]), np.array([0.0])))
    u = 0.7
    s = r.sample(np.array([u]))
    rv = r.radius_series(u)
    rp = r.radius_series.derivative()(u)
    rpp = r.radius_series.derivative().derivative()(u)
    want = (rv * rv + 2.0 * rp * rp - rv * rpp) / (rv * rv + rp * rp) ** 1.5
    assert s.curvature[0] == pytest.approx(want, rel=1e-12)


def test_contains(ellipse_main):
    assert ellipse_main.contains_many([[0.0, 0.0]])
    assert ellipse_main.contains_many([[1.2, 0.0]])
    assert not ellipse_main.contains_many([[1.5, 0.0]])
    assert not ellipse_main.contains_many([[0.0, 0.9]])


def test_radial_contains():
    curve = RadialCurve(TrigSeries(np.array([1.0, 0.0, 0.0, 0.05]),
                                   np.array([0.0, 0.0, 0.03, 0.0])))
    u = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    ring = (np.column_stack([np.cos(u), np.sin(u)])
            * curve.radius_series(u)[:, None])
    assert curve.contains_many(0.99 * ring)
    assert all(curve.contains_many([p]) for p in 0.99 * ring)
    assert not curve.contains_many(1.01 * ring)
    assert not any(curve.contains_many([p]) for p in 1.01 * ring)


# --- domain specs ------------------------------------------------------------

def test_domain_from_spec_forms():
    d = domain_from_spec({"preset": "disk", "params": {"radius": 2.0}})
    assert d.area() == pytest.approx(4.0 * np.pi, abs=1e-12)
    e = domain_from_spec({"preset": "ellipse", "params": {"a": SQRT2, "b": 1.0 / SQRT2}})
    assert e.area() == pytest.approx(np.pi, abs=1e-12)
    raw = domain_from_spec({"support_cos": [1.0, 0.0, 0.05], "support_sin": []})
    assert raw.cos_coeffs == (1.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        domain_from_spec({"preset": "triangle"})
    with pytest.raises(ValueError):
        domain_from_spec({})
