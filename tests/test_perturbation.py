import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from isoperim import disk
from isoperim import perturbation as pert
from isoperim import profile as prof

from isoperim.errors import (FitIllConditioned, IsoperimError, NoArcAtArea,
                             NonConvexPerturbation, OracleFailure, OutOfRange)

TWO_PI = 2.0 * np.pi

small_fields = st.builds(
    pert.PerturbationField,
    fourier_cos=st.lists(st.floats(-1.0, 1.0), max_size=5).map(tuple),
    fourier_sin=st.lists(st.floats(-1.0, 1.0), max_size=5).map(tuple),
)


def l_quadrature(field, b, u):
    """Independent route for the first variation: numerical quadrature."""
    integral, _ = quad(field, u, u + 2.0 * b, limit=300)
    return -integral / np.tan(b) + field(u) + field(u + 2.0 * b)


# --- first variation -----------------------------------------------------------

def test_l_closed_form_matches_quadrature():
    field = pert.PerturbationField((0.3, -0.2, 0.0, 0.5), (0.1, 0.0, 0.7))
    for b in (0.3, np.pi / 4.0, 1.2):
        for u in (0.0, 1.0, 4.5):
            assert pert.first_variation_l(field, b, u) == pytest.approx(
                l_quadrature(field, b, u), abs=1e-10)


def test_l_cos2_quarter_pi_is_sin2():
    field = pert.PerturbationField.mode(2)
    u = np.linspace(0.0, TWO_PI, 33)
    got = pert.first_variation_l(field, np.pi / 4.0, u)
    assert np.allclose(got, np.sin(2.0 * u), atol=1e-13)


def test_l_translation_fields_vanish():
    for field in (pert.PerturbationField.mode(1),
                  pert.PerturbationField((), (1.0,))):
        for b in (0.2, 0.8, 1.4):
            u = np.linspace(0.0, TWO_PI, 65)
            assert np.max(np.abs(pert.first_variation_l(field, b, u))) < 1e-12


def test_l_mode4_at_critical_angle():
    b = np.arccos(1.0 / np.sqrt(6.0))
    field = pert.PerturbationField.mode(4)
    u = np.linspace(0.0, TWO_PI, 721)
    assert np.max(np.abs(pert.first_variation_l(field, b, u))) < 1e-10


def test_l_out_of_range():
    field = pert.PerturbationField.mode(2)
    for b in (0.0, np.pi / 2.0, 2.0):
        with pytest.raises(OutOfRange):
            pert.first_variation_l(field, b, 0.0)


@given(small_fields, st.floats(0.05, np.pi / 2.0 - 0.05))
def test_mean_l_vanishes(field, b):
    assert abs(pert.mean_l(field, b)) < 1e-10


@given(small_fields, st.floats(0.05, np.pi / 2.0 - 0.05))
def test_nonzero_l_attains_negative_values(field, b):
    u = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    vals = pert.first_variation_l(field, b, u)
    if np.max(np.abs(vals)) > 1e-8:
        assert np.min(vals) < 0.0  # zero mean forces a negative part


# --- mode condition --------------------------------------------------------------

def test_mode_condition_translations_zero():
    for b in np.linspace(0.01, np.pi / 2.0 - 0.01, 25):
        assert pert.mode_condition(1, b) == pytest.approx(0.0, abs=1e-14)


def test_mode_condition_reductions():
    b = np.linspace(0.05, np.pi / 2.0 - 0.05, 50)
    got2 = np.array([pert.mode_condition(2, x) for x in b])
    assert np.allclose(got2, 2.0 * np.sin(b) ** 3, atol=1e-13)
    got3 = np.array([pert.mode_condition(3, x) for x in b])
    assert np.allclose(got3, 8.0 * np.sin(b) ** 3 * np.cos(b), atol=1e-13)
    got4 = np.array([pert.mode_condition(4, x) for x in b])
    assert np.allclose(got4, 4.0 * np.sin(b) ** 3 * (6.0 * np.cos(b) ** 2 - 1.0),
                       atol=1e-12)


def test_find_mode_roots():
    assert pert.find_mode_roots(2) == []
    assert pert.find_mode_roots(3) == []
    roots4 = pert.find_mode_roots(4)
    assert len(roots4) == 1
    assert roots4[0].b == pytest.approx(np.arccos(1.0 / np.sqrt(6.0)), abs=1e-12)
    assert abs(pert.mode_condition(4, roots4[0].b)) < 1e-12
    assert roots4[0].area == pytest.approx(disk.theta_to_area(roots4[0].b))
    roots5 = pert.find_mode_roots(5)
    assert len(roots5) == 1
    assert roots5[0].b == pytest.approx(np.arctan(np.sqrt(5.0 / 3.0)), abs=1e-12)
    assert abs(pert.mode_condition(5, roots5[0].b)) < 1e-12


def test_mode_root_consistent_with_tan_identity():
    # n = 4 root satisfies tan b = sqrt(5); n = 5 root tan^2 b = 5/3
    b4 = pert.find_mode_roots(4)[0].b
    assert np.tan(b4) == pytest.approx(np.sqrt(5.0), rel=1e-12)
    b5 = pert.find_mode_roots(5)[0].b
    assert np.tan(b5) ** 2 == pytest.approx(5.0 / 3.0, rel=1e-12)


# --- implicit curve ---------------------------------------------------------------

def test_implicit_curve_contains_translation_lines():
    pts = pert.implicit_curve_sample((-8.0, 8.0), (0.05, 1.5), 400)
    assert len(pts) > 100
    for x_line in (-1.0, 0.0, 1.0):
        near = pts[np.abs(pts[:, 0] - x_line) < 0.02]
        assert len(near) > 20, x_line
        assert near[:, 1].max() - near[:, 1].min() > 1.0  # spans the y-range


def test_implicit_curve_passes_through_mode4_root():
    b4 = np.arccos(1.0 / np.sqrt(6.0))
    pts = pert.implicit_curve_sample((3.5, 4.5), (1.0, 1.3), 300)
    dist = np.min(np.hypot(pts[:, 0] - 4.0, pts[:, 1] - b4))
    assert dist < 5e-3


def implicit_curve_loop(x_range, y_range, resolution):
    """Reference: the cell-by-cell marching-squares loop, one emit per edge."""
    nx = ny = int(resolution)
    xs = np.linspace(float(x_range[0]), float(x_range[1]), nx)
    ys = np.linspace(float(y_range[0]), float(y_range[1]), ny)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    vals = np.cos(yg) * np.sin(xg * yg) - xg * np.sin(yg) * np.cos(xg * yg)
    pts = []

    def emit(p0, v0, p1, v1):
        if v0 == 0.0:
            pts.append(p0)
            return
        if (v0 < 0.0) != (v1 < 0.0):
            t = v0 / (v0 - v1)
            pts.append((p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1])))

    for i in range(nx - 1):
        for j in range(ny - 1):
            p00, p10 = (xs[i], ys[j]), (xs[i + 1], ys[j])
            p01, p11 = (xs[i], ys[j + 1]), (xs[i + 1], ys[j + 1])
            v00, v10 = vals[i, j], vals[i + 1, j]
            v01, v11 = vals[i, j + 1], vals[i + 1, j + 1]
            emit(p00, v00, p10, v10)
            emit(p00, v00, p01, v01)
            if i == nx - 2:
                emit(p10, v10, p11, v11)
            if j == ny - 2:
                emit(p01, v01, p11, v11)
    return np.array(pts) if pts else np.zeros((0, 2))


@pytest.mark.parametrize("box, resolution, exact_x", [
    (((-1.0, 1.0), (0.05, 1.5)), 201, (-1.0, 0.0, 1.0)),  # ±1 on the outer edges
    (((-2.0, 2.0), (0.1, 1.4)), 5, (-1.0, 0.0, 1.0)),
    (((-8.0, 8.0), (0.05, 1.5)), 161, (-1.0, 0.0, 1.0)),
    (((3.5, 4.5), (1.0, 1.3)), 60, ()),
    (((0.5, 1.5), (0.2, 1.2)), 2, ()),  # one cell
    (((0.5, 1.5), (0.2, 1.2)), 1, ()),  # no cell
])
def test_implicit_curve_matches_cell_loop(box, resolution, exact_x):
    # grid nodes on the zero lines x ∈ {−1, 0, 1} make F exactly 0 there
    assert all(x in np.linspace(*box[0], resolution) for x in exact_x)
    got = pert.implicit_curve_sample(*box, resolution)
    want = implicit_curve_loop(*box, resolution)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_implicit_function_values():
    F = lambda x, y: np.cos(y) * np.sin(x * y) - x * np.sin(y) * np.cos(x * y)
    for y in (0.2, 0.9, 1.4):
        assert F(1.0, y) == pytest.approx(0.0, abs=1e-15)
    assert abs(F(2.0, 0.5)) > 1e-3  # off the curve


# --- perturbed domains -------------------------------------------------------------

def test_perturbed_domain_area_exact():
    for n, s in ((1, 0.01), (2, 0.004), (4, 0.01)):
        dom = pert.build_perturbed_domain(pert.PerturbationField.mode(n), s)
        assert dom.area() == pytest.approx(np.pi, abs=1e-12)
        assert dom.min_curvature() > 0.0


def test_perturbed_domain_zero_is_circle():
    dom = pert.build_perturbed_domain(pert.PerturbationField.mode(3), 0.0)
    u = np.linspace(0.0, TWO_PI, 64)
    assert np.allclose(dom.radius_series(u), 1.0, atol=1e-15)


def test_raw_area_growth_quadratic():
    # before normalization, r = 1 + s cos u has area pi (1 + s^2/2)
    from isoperim.geometry import RadialCurve
    from isoperim.trig import TrigSeries
    for s in (0.01, 0.1):
        raw = RadialCurve(TrigSeries(np.array([1.0, s]), np.array([0.0])))
        assert raw.area() == pytest.approx(np.pi * (1.0 + s * s / 2.0), abs=1e-14)


def test_nonconvex_perturbation_rejected():
    with pytest.raises(NonConvexPerturbation):
        pert.build_perturbed_domain(pert.PerturbationField.mode(8), 0.05)


def test_translated_disk_is_rigid():
    td = pert.translated_disk(0.3)
    assert td.area() == pytest.approx(np.pi, abs=1e-12)
    u = np.linspace(0.0, TWO_PI, 256)
    pos = td.sample(u).position - np.array([0.3, 0.0])
    assert np.allclose(np.hypot(pos[:, 0], pos[:, 1]), 1.0, atol=1e-12)


# --- aggregate second variation ------------------------------------------------------

def test_aggregate_second_variation_values():
    assert pert.aggregate_second_variation(pert.PerturbationField.mode(4)) == \
        pytest.approx(-2.0 * np.pi, abs=1e-14)
    both = pert.PerturbationField((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0))
    assert pert.aggregate_second_variation(both) == pytest.approx(-4.0 * np.pi)
    assert pert.aggregate_second_variation(pert.PerturbationField()) == 0.0


@given(small_fields)
def test_aggregate_negative_for_nonzero(field):
    agg = pert.aggregate_second_variation(field)
    if field.power() == 0.0:
        assert agg == 0.0
    else:
        assert agg < 0.0
    # Parseval against quadrature
    u = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    assert agg == pytest.approx(-2.0 * np.mean(field(u) ** 2) * TWO_PI, abs=1e-9)


# --- experiment (the cheap control; the full runs live in acceptance) ----------------

def test_translation_control_profile_flat():
    config = pert.ExperimentConfig(s_grid=(1e-3, 2e-3, 3e-3))
    report = pert.profile_decrease_experiment(
        pert.PerturbationField.mode(1), np.pi / 2.0 - 1.0, config,
        domain_builder=pert.translated_disk)
    assert report.verdict == "no_decrease"
    spread = max(report.profile_values) - min(report.profile_values)
    assert spread < 5.0 * pert.ORACLE_TOL
    assert report.profile_values[0] == pytest.approx(
        disk.profile(np.pi / 2.0 - 1.0), abs=1e-9)


@pytest.mark.parametrize("s_grid", [(0.0, 1e-3, 2e-3), (1e-3, -2e-3, 3e-3)])
def test_experiment_refuses_nonpositive_s(s_grid):
    with pytest.raises(FitIllConditioned, match="positive"):
        pert.profile_decrease_experiment(pert.PerturbationField.mode(2), 1.0,
                                         pert.ExperimentConfig(s_grid=s_grid))


def test_experiment_refuses_repeated_s():
    # three equal s values leave the quadratic fit rank-deficient
    with pytest.raises(FitIllConditioned, match="three distinct"):
        pert.profile_decrease_experiment(
            pert.PerturbationField.mode(2), 1.0,
            pert.ExperimentConfig(s_grid=(1e-3,) * 3, n_s1=48))


def test_experiment_refuses_empty_slicing():
    # a bad size is a configuration error, not an oracle failure
    with pytest.raises(ValueError, match="n_s1 must be at least 1, got 0"):
        pert.profile_decrease_experiment(pert.PerturbationField.mode(2), 1.0,
                                         pert.ExperimentConfig(n_s1=0))


def _experiment_on_a_stub_oracle(monkeypatch, oracle):
    """Run the experiment with `oracle(s)` in place of the profile oracle's
    pass: the domain builder hands the pass s itself as each pair's domain,
    and a pair's refusal (an `IsoperimError`) becomes its error while any
    other exception propagates, as in `oracle_pairs`."""
    def pairs(curves, areas, n_s1):
        values, errors = [], []
        for s in curves:
            try:
                values.append(oracle(s))
                errors.append(None)
            except IsoperimError as exc:
                values.append(np.nan)
                errors.append(exc)
        return values, errors

    monkeypatch.setattr(prof, "oracle_pairs", pairs)
    return pert.profile_decrease_experiment(
        pert.PerturbationField.mode(2), 1.0,
        pert.ExperimentConfig(s_grid=(1e-3, 2e-3, 3e-3)), domain_builder=lambda s: s)


def test_experiment_names_the_s_of_an_oracle_refusal(monkeypatch):
    def oracle(s):
        if s == 2e-3:
            raise NoArcAtArea("forced")
        return disk.profile(1.0)

    with pytest.raises(OracleFailure, match=r"profile oracle failed at s=0\.002: "
                                            r"forced") as info:
        _experiment_on_a_stub_oracle(monkeypatch, oracle)
    assert type(info.value.__cause__) is NoArcAtArea


def test_experiment_lets_a_bug_in_the_oracle_through(monkeypatch):
    # only the package's own errors become OracleFailure (exit 4)
    def oracle(s):
        raise TypeError("forced")

    with pytest.raises(TypeError, match="forced"):
        _experiment_on_a_stub_oracle(monkeypatch, oracle)
