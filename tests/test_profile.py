import logging

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.optimize import brentq

from isoperim import _roots, arcs, disk
from isoperim import perturbation as pert
from isoperim import profile as prof
from isoperim.errors import (IsDisk, NoArcAtArea, NoConvergence, NotClassA,
                             NotNormalized, NotPerfect)
from isoperim.geometry import SupportCurve, classify

SQRT2 = np.sqrt(2.0)
HALF_PI = np.pi / 2.0


@pytest.fixture(scope="module")
def disk_table(unit_disk):
    return prof.symmetric_profile(unit_disk, 128)


@pytest.fixture(scope="module")
def ellipse_table(ellipse_main):
    return prof.symmetric_profile(ellipse_main, 128)


# --- symmetric family ---------------------------------------------------------

def test_disk_table_matches_closed_form(disk_table):
    for theta, area, length, curv in zip(disk_table.theta, disk_table.area,
                                         disk_table.length,
                                         disk_table.arc_curvature):
        if theta >= HALF_PI:
            continue
        assert length == pytest.approx(disk.theta_to_length(theta), abs=1e-12)
        assert area == pytest.approx(disk.theta_to_area(theta), abs=1e-12)
        assert curv == pytest.approx(disk.theta_to_curvature(theta), rel=1e-12)


def test_tables_monotone(class_a_suite):
    for name, curve in class_a_suite.items():
        table = prof.symmetric_profile(curve, 96)
        assert np.all(np.diff(table.area) > 0.0), name
        assert np.all(np.diff(table.length) > 0.0), name


def test_table_ends_at_half_area(ellipse_table, ellipse_main):
    assert ellipse_table.theta[-1] == pytest.approx(HALF_PI, abs=1e-15)
    # A(π/2) lands ~1e-16 below |Ω|/2 in rounding; the inverse must still
    # return the end of the family
    theta = prof.family_theta_at_area(ellipse_main, ellipse_main.area() / 2.0)
    assert theta == pytest.approx(HALF_PI, abs=1e-12)
    assert ellipse_table.length[-1] == pytest.approx(SQRT2, abs=1e-10)
    assert ellipse_table.area[-1] == pytest.approx(HALF_PI, abs=1e-10)
    assert ellipse_table.arc_curvature[-1] == pytest.approx(0.0, abs=1e-12)


def test_length_squared_concave(class_a_suite):
    for name, curve in class_a_suite.items():
        table = prof.symmetric_profile(curve, 96)
        l2 = table.length ** 2
        slopes = np.diff(l2) / np.diff(table.area)
        assert np.all(np.diff(slopes) <= 1e-8), name


def test_family_length_below_disk_pointwise(class_a_suite):
    for name, curve in class_a_suite.items():
        thetas = np.linspace(0.02, HALF_PI - 1e-9, 300)
        ours = prof._family_length(curve, thetas)
        disk_ref = np.array([disk.theta_to_length(t) for t in thetas])
        assert np.all(ours < disk_ref), name


def test_height_gap_dips_once_at_unit_curvature(ellipse_main):
    """y − y* decreases, then increases, crossing slope sign at κ(θ̄) = 1."""
    thetas = np.linspace(1e-3, HALF_PI, 500)
    gap = prof._upper_endpoint_height(ellipse_main, thetas) - np.sin(thetas)
    d = np.diff(gap)
    sign_changes = np.nonzero(np.diff(np.signbit(d)))[0]
    assert len(sign_changes) == 1
    theta_bar = thetas[sign_changes[0] + 1]
    kappa_at_bar = 1.0 / float(ellipse_main.rho(theta_bar))
    assert kappa_at_bar == pytest.approx(1.0, abs=5e-2)
    assert np.all(gap <= 1e-12)  # the minor semi-axis stays below 1


def test_hermite_reproduces_a_cubic_and_its_slope():
    def cubic(x):
        return 2.0 * x ** 3 - x ** 2 + 3.0 * x - 1.0, 6.0 * x ** 2 - 2.0 * x + 3.0

    knots = np.array([0.0, 0.3, 1.0, 1.25, 2.0])
    xq = np.linspace(-0.25, 2.25, 41)   # knots, interiors and both ends beyond
    value, slope = prof._hermite(knots, *cubic(knots), xq)
    exact_value, exact_slope = cubic(xq)
    assert np.allclose(value, exact_value, rtol=0.0, atol=1e-13)
    assert np.allclose(slope, exact_slope, rtol=0.0, atol=1e-13)


def test_area_cross_check_runs_tight(ellipse_main):
    # symmetric_profile raises if Green vs dA=(1/k)dL disagree beyond 1e-7;
    # the two routes actually agree an order of magnitude better
    theta = prof.profile_grid(64)
    green = arcs.arc_batch(ellipse_main, -theta, theta)
    green.raise_first()
    quadrature = prof._family_area_quadrature(ellipse_main, theta)
    assert np.max(np.abs(quadrature - green.area)) <= 1e-8


def _family_area_quadrature_by_evaluate(curve, theta_grid):
    """`_family_area_quadrature` by a second route: the series evaluated at
    θ = π/2 − t on their cos/sin basis instead of `TrigSeries.on_grid`, and
    cumulated by scipy's Simpson rule instead of the in-house one; both
    interpolate with the exact-slope Hermite."""
    n_fine = 16384
    t = np.linspace(0.0, HALF_PI, n_fine + 1)
    theta_f = HALF_PI - t
    y = prof._upper_endpoint_height(curve, theta_f)
    rho = curve.rho_series(theta_f)
    c, s, p = np.sin(t), np.cos(t), 2.0 * t
    num = p * rho * c * c + p * s * y - 2.0 * y * c
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = y * num / c ** 3
    y_end = float(prof._upper_endpoint_height(curve, HALF_PI))
    rho_end = float(curve.rho_series(HALF_PI))
    integrand[t < 0.5 * (HALF_PI / n_fine)] = \
        y_end * (2.0 * rho_end - 2.0 * y_end / 3.0)
    cum = cumulative_simpson(integrand, x=t, initial=0.0)
    offsets = HALF_PI - np.asarray(theta_grid, dtype=float)
    return float(cum[-1]) - prof._hermite(t, cum, integrand, offsets)[0]


def test_family_area_quadrature_matches_direct_evaluation(class_a_suite):
    theta = prof.profile_grid(256)
    step = HALF_PI / 16384
    # within two nodes of θ = π/2 the area is the first Simpson cell, whose
    # node t = step divides a triple cancellation by c³: rounding of about
    # 4·eps·y²/t² in the integrand, so each route resolves that cell only to
    # about 6·eps·y²/step
    end_cell = HALF_PI - theta < 2.0 * step
    curves = [*class_a_suite.values(),
              SupportCurve.ellipse(np.sqrt(6.0), 1.0 / np.sqrt(6.0))]
    for curve in curves:
        quadrature = prof._family_area_quadrature(curve, theta)
        gap = np.abs(quadrature - _family_area_quadrature_by_evaluate(curve, theta))
        assert np.max(gap[~end_cell]) <= 1e-12
        y_end = prof._upper_endpoint_height(curve, HALF_PI)
        end_bound = 12.0 * np.finfo(float).eps * y_end ** 2 / step
        assert np.max(gap[end_cell]) <= end_bound
        # the exact-slope Hermite leaves the quadrature as close to the Green
        # areas as that end-cell rounding, at every sample
        green = arcs.arc_batch(curve, -theta, theta)
        assert np.max(np.abs(quadrature - green.area)) <= end_bound


def test_profile_preconditions(unit_disk, ellipse_main):
    with pytest.raises(NotNormalized):
        prof.symmetric_profile(SupportCurve.disk(2.0), 32)
    with pytest.raises(NotClassA):
        prof.symmetric_profile(SupportCurve((1.0, 0.0, 0.05), (0.0, 0.02)), 32)
    # rotated ellipse: major axis on y
    rotated = SupportCurve.ellipse(1.0 / SQRT2, SQRT2)
    with pytest.raises(NotClassA):
        prof.symmetric_profile(rotated, 32)


@pytest.mark.parametrize("a, b", [(0.3, 0.0), (0.0, 0.3), (0.2, -0.25)])
def test_translated_disk_refusals(a, b):
    curve = SupportCurve((1.0, a), (b,))
    with pytest.raises(IsDisk):
        prof.conjecture_check(curve, 32)
    # the family's closed forms put the disk's center on the axis
    with pytest.raises(NotClassA, match="centered at the origin"):
        prof.symmetric_profile(curve, 32)


def test_csv_round_trip(ellipse_table, tmp_path):
    text = ellipse_table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "theta,area,length,curvature"
    assert len(lines) == len(ellipse_table.theta) + 1
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(ellipse_table.theta[0])


def test_grid_contains_quarter_pi():
    grid = prof.profile_grid(256)
    assert np.min(np.abs(grid - np.pi / 4.0)) < 1e-15
    assert grid[-1] == pytest.approx(HALF_PI, abs=1e-15)
    assert grid[0] > 0.0


def test_grid_refuses_too_few_samples():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=f"n_samples must be at least 2, got {n}"):
            prof.profile_grid(n)


def test_family_maps_take_arrays(ellipse_main):
    thetas = np.array([[1e-3, 0.2], [0.9, HALF_PI]])
    areas = prof.family_area_at(ellipse_main, thetas)
    assert areas.shape == thetas.shape
    for t, a in zip(thetas.ravel(), areas.ravel()):
        assert type(prof.family_area_at(ellipse_main, t)) is float
        assert prof.family_area_at(ellipse_main, t) == pytest.approx(a, abs=1e-15)
    back = prof.family_theta_at_area(ellipse_main, areas)
    assert back.shape == thetas.shape
    assert np.max(np.abs(back - thetas)) < 1e-12
    with pytest.raises(NoArcAtArea):
        prof.family_theta_at_area(ellipse_main, np.array([0.5, 2.0]))


# --- conjecture check ----------------------------------------------------------

def exact_ratio(curve, area):
    """L(A)/L*(A) from the family solved at the area, no interpolation."""
    theta = prof.family_theta_at_area(curve, area)
    return float(prof._family_length(curve, theta)) / disk.profile(area)


def test_conjecture_on_suite(class_a_suite):
    for name, curve in class_a_suite.items():
        report = prof.conjecture_check(curve, 128)
        assert report.passed, name
        assert 0.0 < report.sup_ratio < 1.0, name
        assert report.margin == pytest.approx(1.0 - report.sup_ratio)


def test_conjecture_sup_covers_the_area_floor(class_a_suite):
    # the ratio falls as the area grows, so the sup sits at the floor itself,
    # not at the first sample above it
    for name, curve in class_a_suite.items():
        at_floor = exact_ratio(curve, prof.AREA_FLOOR)
        for n in (64, 128, 256):
            report = prof.conjecture_check(curve, n)
            assert report.sup_ratio >= at_floor - 1e-12, (name, n)
            assert report.sup_ratio < 1.0, (name, n)


@pytest.mark.parametrize("n", [8, 16])
def test_conjecture_coarse_table_reports_exact_ratio(n, class_a_suite):
    # between coarse samples the interpolated ratio overshoots (above 1 for
    # the 1.01 ellipse at 16 samples); the reported sup is an exact ratio
    for name, curve in class_a_suite.items():
        report = prof.conjecture_check(curve, n)
        assert report.passed, (name, n)
        exact = exact_ratio(curve, report.argmax_area)
        assert report.sup_ratio <= exact + 1e-12, (name, n)


def test_conjecture_margin_shrinks_toward_disk(ellipse_family):
    margins = {eps: prof.conjecture_check(c, 128).margin
               for eps, c in ellipse_family.items()}
    assert margins[0.3] > margins[0.1] > margins[0.01] > 0.0


def test_conjecture_rejects_disk(unit_disk):
    with pytest.raises(IsDisk):
        prof.conjecture_check(unit_disk, 64)


def test_conjecture_preconditions_in_order():
    # not class A and not of area pi: the class is checked first
    with pytest.raises(NotClassA):
        prof.conjecture_check(SupportCurve((2.0, 0.0, 0.05), (0.0, 0.02)), 32)
    with pytest.raises(NotNormalized):
        prof.conjecture_check(SupportCurve.ellipse(2.0, 1.0), 32)


def test_conjecture_classifies_once(monkeypatch, ellipse_main):
    calls = []

    def spy(curve):
        calls.append(curve)
        return classify(curve)

    classify = prof.classify
    monkeypatch.setattr(prof, "classify", spy)
    prof.conjecture_check(ellipse_main, 64)
    assert calls == [ellipse_main]


def test_family_stationarity_identity(ellipse_main):
    """(π − 2θ) = k·L along the family (the argmax relation's ingredients)."""
    thetas = np.linspace(0.1, 1.4, 25)
    lengths = prof._family_length(ellipse_main, thetas)
    curvatures = prof._family_curvature(ellipse_main, thetas)
    assert np.allclose(np.pi - 2.0 * thetas, curvatures * lengths, atol=1e-12)
    # and for the disk family
    for t in thetas:
        assert np.pi - 2.0 * t == pytest.approx(
            disk.theta_to_curvature(t) * disk.theta_to_length(t), abs=1e-12)


def test_conjecture_stationarity_residual_when_interior(ellipse_main):
    report = prof.conjecture_check(ellipse_main, 128)
    if report.stationarity_residual is not None:
        assert report.stationarity_residual < 1e-4
    else:
        # boundary argmax: the ratio is monotone down in area, so the
        # maximum hugs the certified small-area floor
        span = HALF_PI - report.area_floor
        assert report.argmax_area - report.area_floor <= 2e-3 * span


# --- oracle -------------------------------------------------------------------

def test_oracle_disk_against_closed_form(unit_disk):
    for a in (0.3, HALF_PI - 1.0, 1.2, HALF_PI):
        got = prof.general_profile_oracle(unit_disk, a)
        assert got == pytest.approx(disk.profile(a), abs=1e-8)


def test_oracle_envelope_below_family(ellipse_main):
    for a in (0.4, 1.0, 1.4):
        got = prof.general_profile_oracle(ellipse_main, a)
        theta = prof.family_theta_at_area(ellipse_main, a)
        fam = float(prof._family_length(ellipse_main, np.array([theta]))[0])
        assert got <= fam + 1e-6
        assert abs(got - fam) < 1e-12  # the refinement converged


def test_oracle_profile_symmetry(ellipse_main):
    for a in (0.5, 1.2):
        lo = prof.general_profile_oracle(ellipse_main, a)
        hi = prof.general_profile_oracle(ellipse_main, np.pi - a)
        assert lo == pytest.approx(hi, abs=1e-9)


def refine_one(curve, s1_a, s2_a, s1_b, s2_b, target):
    """Reference: one segment at a time, Brent's method on the corrected arc."""
    def arc_at(s1):
        s2_seed = np.interp(s1, (s1_a, s1_b), (s2_a, s2_b))
        s2 = arcs._correct_s2(curve, s1, s2_seed)
        lo, hi = (s1, s2) if s1 < s2 else (s2, s1)
        if not 0.0 < hi - lo < 2.0 * np.pi:
            raise NoArcAtArea("branch left the parameter window")
        arc = arcs.arc_batch(curve, lo, hi)
        arc.raise_first()
        return arc

    s1 = brentq(lambda s: arc_at(s).area[0] - target, s1_a, s1_b, xtol=1e-14)
    return arc_at(s1).length[0]


@pytest.mark.parametrize("name, areas", [
    ("ellipse", (0.4, 1.0, np.pi - 0.4)),
    ("two-mode", (0.05, 0.8, 1.5)),
    ("perturbed", (0.3, 1.0, 1.5)),
])
def test_batched_refinement_matches_per_segment_brent(monkeypatch, name, areas,
                                                      ellipse_main, fourier_domain):
    curve = {"ellipse": ellipse_main, "two-mode": fourier_domain,
             "perturbed": pert.build_perturbed_domain(
                 pert.PerturbationField.mode(3), 5e-3)}[name]
    batches = []

    def spy(*args):
        batches.append((args, prof_refine(*args)))
        return batches[-1][1]

    prof_refine = prof._refine_on_branch
    monkeypatch.setattr(prof, "_refine_on_branch", spy)
    for a in areas:
        prof.general_profile_oracle(curve, a)
    assert len(batches) == len(areas)
    for (_, *segments), (length, failures) in batches:
        assert len(length) == len(failures) == len(segments[0]) > 1
        for i, seg in enumerate(zip(*segments)):
            # the oracle value bound: both solvers stop at 1e-14 in s1, and
            # the corrector leaves s2 ill-conditioned near vertices
            assert failures[i] is None
            assert length[i] == pytest.approx(refine_one(curve, *seg), abs=1e-11)


def test_branch_slope_reads_the_kernel_sample(ellipse_main):
    """The slope from `arc_batch`'s own sample is the same float as from a
    separate `two_point_eval` of the pairs."""
    curve = pert.build_perturbed_domain(pert.PerturbationField.mode(3), 5e-3)
    for c in (ellipse_main, curve):
        s1_grid = (np.arange(24) + 0.5) * (2.0 * np.pi / 24)
        roots = arcs.scan_arc_roots(c, s1_grid)
        s1 = np.repeat(s1_grid, [len(r) for r in roots])
        s2 = np.concatenate(roots)
        _, g1, g2, w1, w2 = arcs.two_point_eval(c, s1, s2)
        slope = prof._branch_slope(arcs.arc_batch(c, s1, s2))[0]
        assert np.array_equal(slope, -(g1 * w1) / (g2 * w2))


@pytest.mark.parametrize("name", ["ellipse", "two-mode", "mode 3", "critical cos 4u"])
def test_branch_area_derivative_matches_differences(name, ellipse_main,
                                                    fourier_domain):
    """dA/ds1 along the branch, from the arc kernel's own sample, against
    central differences of the corrected branch, and against (dL/ds1)/κ,
    since dL = κ dA along arcs that meet the boundary orthogonally.

    Tolerances, derived before the run: each corrected point leaves
    |f| ≤ NEWTON_F_TOL, which moves a quantity X (A or L) by up to
    e = |∂X/∂f|·NEWTON_F_TOL at fixed s1, plus its own rounding (below
    1e-14 for O(1) sums). The central difference D_h of X then carries e/h
    of noise and D_2h e/(2h), and their truncation errors are ch² and 4ch²,
    so |ch²| ≤ (|D_2h − D_h| + 1.5e/h)/3. The exact rate may thus differ
    from D_h by at most |D_2h − D_h|/3 + 1.5e/h, allowed here as
    |D_2h − D_h| + 2e/h. ∂A/∂f is exact (`_branch_slope`); ∂L/∂f is a
    forward difference in s2 with a √eps step.
    """
    curve = {"ellipse": ellipse_main, "two-mode": fourier_domain,
             "mode 3": pert.build_perturbed_domain(pert.PerturbationField.mode(3),
                                                   5e-3),
             "critical cos 4u": pert.build_perturbed_domain(
                 pert.PerturbationField.mode(4), 1e-3)}[name]
    s1_grid = (np.arange(12) + 0.5) * (2.0 * np.pi / 12)
    roots = arcs.scan_arc_roots(curve, s1_grid)
    s1 = np.repeat(s1_grid, [len(r) for r in roots])
    s2 = np.concatenate(roots)
    arc = arcs.arc_batch(curve, s1, s2)
    slope, d_area, da_df = prof._branch_slope(arc)
    # points where the branch is a graph over s1 with a moderate slope and
    # the corrector pins s2 (not the near-degenerate pairs of a near-disk)
    keep = (np.abs(slope) < 4.0) & (np.abs(da_df) < 1e4)
    s1, s2, slope, d_area, da_df = (v[keep] for v in (s1, s2, slope, d_area, da_df))
    curvature, length = arc.curvature[keep], arc.length[keep]
    assert len(s1) >= 8

    def along(h):
        """A and L at s1 + h on the corrected branch."""
        x = s1 + h
        y = arcs._correct_s2(curve, x, s2 + slope * h)
        moved = arcs.arc_batch(curve, x, y)
        assert not np.any(moved.failure)
        return moved.area, moved.length

    h = 1e-4
    (a_m2, l_m2), (a_m1, l_m1), (a_p1, l_p1), (a_p2, l_p2) = (
        along(k * h) for k in (-2, -1, 1, 2))
    da_h, da_2h = (a_p1 - a_m1) / (2 * h), (a_p2 - a_m2) / (4 * h)
    dl_h, dl_2h = (l_p1 - l_m1) / (2 * h), (l_p2 - l_m2) / (4 * h)
    step = np.sqrt(np.finfo(float).eps)
    off = arcs.arc_batch(curve, s1, s2 + step)
    dl_df = (off.length - length) / (off.residual - arc.residual[keep])
    e_area = np.abs(da_df) * arcs.NEWTON_F_TOL + 1e-14
    e_length = np.abs(dl_df) * arcs.NEWTON_F_TOL + 1e-14
    assert np.all(np.abs(d_area - da_h) <= np.abs(da_2h - da_h) + 2 * e_area / h)
    bent = np.abs(curvature) > 1e-3
    assert np.any(bent)
    assert np.all(np.abs(dl_h - curvature * d_area)[bent]
                  <= (np.abs(dl_2h - dl_h) + 2 * e_length / h)[bent])


def _forced_lane_failure(monkeypatch, ellipse_main, patch):
    """Refine the oracle's segments at area 1 once as they are and once with
    `patch(monkeypatch, s1_lo, s1_hi)` failing the s1 range of lane 2."""
    calls = []
    refine = prof._refine_on_branch
    monkeypatch.setattr(prof, "_refine_on_branch",
                        lambda *args: calls.append(args) or refine(*args))
    prof.general_profile_oracle(ellipse_main, 1.0)
    monkeypatch.setattr(prof, "_refine_on_branch", refine)
    curve, s1_a, s2_a, s1_b, s2_b, target = calls[0]
    clean, clean_failures = refine(*calls[0])
    assert all(exc is None for exc in clean_failures) and len(s1_a) > 3
    patch(monkeypatch, s1_a[2], s1_b[2])
    length, failures = refine(*calls[0])
    assert np.isnan(length[2])
    # the other lanes only see a smaller batch, which moves them by rounding
    assert np.max(np.abs(np.delete(length, 2) - np.delete(clean, 2))) < 1e-12
    assert [exc is None for exc in failures] == [i != 2 for i in range(len(s1_a))]
    return failures[2]


def test_refinement_records_corrector_failure_lane(monkeypatch, ellipse_main):
    def patch(monkeypatch, lo, hi):
        correct = arcs._correct_s2

        def failing(curve, s1, seed):
            s2 = correct(curve, s1, seed)
            return np.where((s1 >= lo) & (s1 <= hi), np.nan, s2)
        monkeypatch.setattr(arcs, "_correct_s2", failing)

    exc = _forced_lane_failure(monkeypatch, ellipse_main, patch)
    assert type(exc) is NoConvergence and "corrector failed" in str(exc)


def test_refinement_records_arc_kernel_failure_lane(monkeypatch, ellipse_main):
    def patch(monkeypatch, lo, hi):
        kernel = arcs.arc_batch

        def failing(curve, t_lo, t_hi):
            batch = kernel(curve, t_lo, t_hi)
            # lane 2's s1 is the lower end of its pair
            hit = (np.asarray(t_lo) >= lo) & (np.asarray(t_lo) <= hi)
            return batch._replace(failure=np.where(hit, 1, batch.failure))
        monkeypatch.setattr(arcs, "arc_batch", failing)

    exc = _forced_lane_failure(monkeypatch, ellipse_main, patch)
    assert type(exc) is NotPerfect and "two-point residual" in str(exc)


def test_oracle_circle_route_at_a_tiny_area(unit_disk):
    """The circle route at A = 1e-10 against the closed form. The Green area
    is a sum of unit-size terms (the boundary moment over the sweep and the
    cross product of the endpoints), so it carries an absolute rounding of a
    few eps at any A; the length moves by dL/dA = k ≈ π/L per unit of area
    (a near-semicircle of length L ≈ √(2πA)). Allowed: 4 eps · π/L, about
    1.1e-10; measured 1.6e-12."""
    expected = disk.profile(1e-10)
    bound = 4.0 * np.finfo(float).eps * np.pi / expected
    assert prof.general_profile_oracle(unit_disk, 1e-10) == pytest.approx(
        expected, abs=bound)


def test_oracle_circle_route_refuses_below_the_smallest_sweep(unit_disk):
    # the sweep bracket starts at 1e-6, whose arc encloses about 3.9e-13
    smallest = arcs.arc_batch(unit_disk, 0.0, 1e-6).area[0]
    assert smallest == pytest.approx(3.9e-13, rel=0.01)
    with pytest.raises(NoArcAtArea, match="outside the areas of the sweeps"):
        prof.general_profile_oracle(unit_disk, 1e-15)


def test_refinement_of_no_segments(ellipse_main):
    length, failures = prof._refine_on_branch(ellipse_main, *np.empty((5, 0)))
    assert length.shape == (0,) and failures == []
    # no segment straddles the area: the oracle refuses after no refinement
    curve = SupportCurve((1, 0.05, 0.03), (0, 0.02)).normalized_to(np.pi)
    with pytest.raises(NoArcAtArea, match=r"\(0 refinements tried, 0 failed\)"):
        prof.general_profile_oracle(curve, 5e-3)


def test_oracle_complement_orientation_rescues_the_minimizer():
    """On this domain the branch of the requested orientation is steep
    (ds2/ds1 ≈ 8) and mis-joined across slices at A ≈ 0.6503; the minimizer
    comes only from refining the complement's orientation at |Ω| − A."""
    curve = SupportCurve(
        (1.0, 0.019736842884719545, -0.0061803094004460315,
         -0.0033920362856740094, 0.0010401806049967948, -0.0005734470382454848),
        (-0.024251288702968887, -0.006114707177588653, 0.002489600807341604,
         -0.0024058643400363916, -0.001087229039720666)).normalized_to(np.pi)
    value = prof.general_profile_oracle(curve, curve.area() - 2.4912923406032492)
    assert value == pytest.approx(1.6295819582460573, abs=1e-9)


def test_oracle_rejects_bad_area(unit_disk):
    with pytest.raises(NoArcAtArea):
        prof.general_profile_oracle(unit_disk, 4.0)


def test_oracle_refuses_empty_slicing(ellipse_main):
    for n_s1 in (0, -1):
        with pytest.raises(ValueError, match=f"n_s1 must be at least 1, got {n_s1}"):
            prof.general_profile_oracle(ellipse_main, 1.0, n_s1)


def test_refinement_records_area_jump_lane(monkeypatch, ellipse_main):
    calls = []
    refine = prof._refine_on_branch
    monkeypatch.setattr(prof, "_refine_on_branch",
                        lambda *args: calls.append(args) or refine(*args))
    prof.general_profile_oracle(ellipse_main, 1.0)
    monkeypatch.setattr(prof, "_refine_on_branch", refine)
    _, s1_a, _, s1_b, _, target = calls[0]
    clean, _ = refine(*calls[0])
    kernel = arcs.arc_batch

    def jumping(curve, t_lo, t_hi):
        # lane 2's areas lifted 1e-6 away from its target on both sides of
        # the solution: the area jumps across the target instead of crossing
        batch = kernel(curve, t_lo, t_hi)
        hit = (np.asarray(t_lo) >= s1_a[2]) & (np.asarray(t_lo) <= s1_b[2])
        away = 1e-6 * np.sign(batch.area - target[2])
        return batch._replace(area=np.where(hit, batch.area + away, batch.area))

    monkeypatch.setattr(arcs, "arc_batch", jumping)
    length, failures = refine(*calls[0])
    assert np.isnan(length[2])
    assert type(failures[2]) is NoArcAtArea and "a jump, not a root" in str(failures[2])
    assert [exc is None for exc in failures] == [i != 2 for i in range(len(s1_a))]
    assert np.max(np.abs(np.delete(length, 2) - np.delete(clean, 2))) < 1e-12


def test_oracle_half_area_segments_all_converge(monkeypatch, ellipse_main):
    # at half area four segments cross the straight chord along the major
    # axis; the area is continuous there, so every segment converges in a
    # few solver steps (where it jumped, the solve bisected 42 times)
    results, corrections = [], []
    refine, correct = prof._refine_on_branch, arcs._correct_s2
    monkeypatch.setattr(prof, "_refine_on_branch",
                        lambda *args: results.append(refine(*args)) or results[-1])
    monkeypatch.setattr(arcs, "_correct_s2",
                        lambda *args: corrections.append(1) or correct(*args))
    value = prof.general_profile_oracle(ellipse_main, HALF_PI)
    [(length, failures)] = results
    assert len(failures) == 16 and all(exc is None for exc in failures)
    assert np.sum(np.abs(length - 2.0 * SQRT2) < 1e-12) == 4
    assert value == pytest.approx(SQRT2, abs=1e-14)
    assert len(corrections) <= 10


def test_oracle_logs_dropped_refinements(caplog):
    # cos 4u at its critical area: at s = 1e-3 two straddling segments join
    # across a crossing where the scan misses the continuing root, and leave
    # the window; at 5e-3 none does
    area = pert.find_mode_roots(4)[0].area
    dropped = {}
    for s in (1e-3, 5e-3):
        curve = pert.build_perturbed_domain(pert.PerturbationField.mode(4), s)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="isoperim"):
            value = prof.general_profile_oracle(curve, area)
        assert np.isfinite(value)
        dropped[s] = [r.getMessage() for r in caplog.records
                      if r.name == "isoperim" and "refinement dropped" in r.getMessage()]
    assert len(dropped[1e-3]) == 2 and not dropped[5e-3]
    assert all(m.startswith("refinement dropped: NoArcAtArea on s1 in [")
               for m in dropped[1e-3])


def match_segments_one_root_at_a_time(curve, target_area, n_s1=prof.N_S1):
    """Reference for the oracle's array branch matching: a loop over slices
    and roots that carries each root's offset along its tangent to slice
    i + 1 and joins the nearest root within 3 steps per slice."""
    step = 2.0 * np.pi / n_s1
    s1_grid = (np.arange(n_s1) + 0.5) * step
    roots = arcs.scan_arc_roots(curve, s1_grid)
    counts = [len(r) for r in roots]
    s1_all, s2_all = np.repeat(s1_grid, counts), np.concatenate(roots)
    _, g1, g2, w1, w2 = arcs.two_point_eval(curve, s1_all, s2_all)
    split = np.cumsum(counts)[:-1]
    offsets, areas, d1, d2 = (np.split(x, split) for x in (
        s2_all - s1_all, arcs.arc_batch(curve, s1_all, s2_all).area,
        g1 * w1, g2 * w2))
    targets = {target_area, curve.area() - target_area}
    segments = set()
    for i in range(n_s1):
        s1_a = float(s1_grid[i])
        for off_a, area_a, a, b in zip(offsets[i], areas[i], d1[i], d2[i]):
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = -a / b
            drift = slope - 1.0 if np.isfinite(slope) else 0.0
            for skip in (1,):
                j = (i + skip) % n_s1
                dist = np.abs(offsets[j] - (off_a + skip * step * drift))
                if np.any(dist < 3.0 * step * skip):
                    k = int(np.argmin(dist))
                    break
            else:
                continue
            s1_b, off_b, area_b = s1_a + skip * step, offsets[j][k], areas[j][k]
            segments |= {(s1_a, s1_a + off_a, s1_b, s1_b + off_b, target)
                         for target in targets
                         if (area_a - target) * (area_b - target) <= 0.0}
    return segments


@pytest.mark.parametrize("name, areas", [
    ("ellipse", (0.4, HALF_PI)),
    ("two-mode", (0.05, 0.8)),
    ("perturbed", (1.0, 1.5)),
    ("critical cos 4u", (None,)),
])
def test_array_matching_equals_the_root_loop(monkeypatch, name, areas,
                                             ellipse_main, fourier_domain):
    curve = {"ellipse": ellipse_main, "two-mode": fourier_domain,
             "perturbed": pert.build_perturbed_domain(
                 pert.PerturbationField.mode(3), 5e-3),
             "critical cos 4u": pert.build_perturbed_domain(
                 pert.PerturbationField.mode(4), 1e-3)}[name]
    areas = [pert.find_mode_roots(4)[0].area if a is None else a for a in areas]
    calls = []
    refine = prof._refine_on_branch
    monkeypatch.setattr(prof, "_refine_on_branch",
                        lambda *args: calls.append(args) or refine(*args))
    for a in areas:
        prof.general_profile_oracle(curve, a)
    assert len(calls) == len(areas)
    for a, (_, *segments) in zip(areas, calls):
        got = [tuple(map(float, seg)) for seg in zip(*segments)]
        assert len(got) == len(set(got)) > 1
        assert set(got) == match_segments_one_root_at_a_time(curve, a)


def test_oracle_work_at_the_critical_cos4u_area(monkeypatch):
    """Boundary evaluations of one oracle call on the critical cos 4u domain.

    Measured: 51 `two_point_eval` calls at s = 1e-3 and 18 at s = 5e-3.
    The bounds allow 10% over the measurement (rounded up), for solver
    steps that rounding moves.
    """
    area = pert.find_mode_roots(4)[0].area
    calls = []
    evaluate = arcs.two_point_eval
    monkeypatch.setattr(arcs, "two_point_eval",
                        lambda *args: calls.append(1) or evaluate(*args))
    for s, bound in ((1e-3, 57), (5e-3, 20)):
        curve = pert.build_perturbed_domain(pert.PerturbationField.mode(4), s)
        calls.clear()
        prof.general_profile_oracle(curve, area)
        assert len(calls) <= bound


@pytest.mark.parametrize("area", [1.0, HALF_PI])
def test_refinement_work_on_the_ellipse(monkeypatch, ellipse_main, area):
    """Kernel and corrector calls of one `_refine_on_branch` on the √2
    ellipse: one `arc_batch` of the segment ends, then one corrector call and
    one `arc_batch` per Newton iterate. Measured: 5 `arc_batch` and 4
    `_correct_s2` calls at A = 1 (8 segments) and at π/2 (16). The bounds
    allow 10% over the measurement, rounded up."""
    counts = {"arc_batch": 0, "_correct_s2": 0}
    for name in counts:
        def counted(*args, name=name, fn=getattr(arcs, name)):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(arcs, name, counted)
    refine, seen = prof._refine_on_branch, []

    def spy(*args):
        before = dict(counts)
        out = refine(*args)
        seen.append({k: counts[k] - before[k] for k in counts})
        return out

    monkeypatch.setattr(prof, "_refine_on_branch", spy)
    prof.general_profile_oracle(ellipse_main, area)
    [work] = seen
    assert work["arc_batch"] <= 6 and work["_correct_s2"] <= 5


def test_oracle_refusal_counts_failed_refinements(monkeypatch, ellipse_main):
    def fail(curve, *segments):
        n = len(segments[0])
        return np.full(n, np.nan), [NoConvergence("forced")] * n

    monkeypatch.setattr(prof, "_refine_on_branch", fail)
    with pytest.raises(NoArcAtArea, match=r"\((\d+) refinements tried, \1 failed, "
                                          r"\1 NoConvergence\)"):
        prof.general_profile_oracle(ellipse_main, 1.0)


def test_oracle_values_equal_the_find_root_solver(monkeypatch, ellipse_main,
                                                  fourier_domain, find_root_solver):
    """The in-house Chandrupatla loop takes scipy `find_root`'s iterates, so
    the oracle, the experiment, the mode roots and the vertices give the same
    floats on either solver."""
    perturbed = pert.build_perturbed_domain(pert.PerturbationField.mode(3), 5e-3)
    cases = [(ellipse_main, 0.4), (ellipse_main, HALF_PI), (fourier_domain, 0.8),
             (perturbed, 1.0), (SupportCurve.disk(1.5), 2.0)]
    config = pert.ExperimentConfig(s_grid=(1e-3, 2e-3, 3e-3), n_s1=48)
    area = disk.theta_to_area(1.0)

    def run():
        return ([prof.general_profile_oracle(c, a) for c, a in cases],
                pert.profile_decrease_experiment(pert.PerturbationField.mode(2),
                                                 area, config),
                pert.find_mode_roots(12), classify(fourier_domain))

    ours, sites = run(), set()
    for mod in (prof, _roots, disk):
        monkeypatch.setattr(mod, "invert_monotone_many",
                            lambda *a, name=mod.__name__, **k:
                            sites.add(name) or find_root_solver(*a, **k)[:2])
    assert run() == ours
    assert sites == {prof.__name__, _roots.__name__, disk.__name__}


# --- small-area asymptotics -----------------------------------------------------

def test_richardson_slope_disk():
    slope = prof.richardson_slope(disk.profile)
    assert slope == pytest.approx(-4.0 / (3.0 * np.pi), rel=1e-4)


def test_richardson_slope_ellipse(ellipse_main):
    def family_profile(a):
        theta = prof.family_theta_at_area(ellipse_main, a)
        return float(prof._family_length(ellipse_main, np.array([theta]))[0])

    slope = prof.richardson_slope(family_profile)
    assert slope == pytest.approx(-8.0 * SQRT2 / (3.0 * np.pi), rel=1e-3)
