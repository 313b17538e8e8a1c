import numpy as np
import pytest

from isoperim import disk
from isoperim.errors import OutOfRange

HALF_PI = np.pi / 2.0


def test_area_at_quarter_turn():
    assert disk.theta_to_area(np.pi / 4.0) == pytest.approx(np.pi / 2.0 - 1.0,
                                                            abs=1e-15)


def test_area_limits():
    assert disk.theta_to_area(1e-8) < 1e-14
    assert disk.theta_to_area(HALF_PI - 1e-9) == pytest.approx(HALF_PI, abs=1e-8)


def test_area_monotone_and_stable():
    thetas = np.linspace(1e-6, HALF_PI - 1e-12, 3000)
    areas = np.array([disk.theta_to_area(t) for t in thetas])
    assert np.all(np.diff(areas) > 0.0)
    lengths = np.array([disk.theta_to_length(t) for t in thetas])
    assert np.all(np.diff(lengths) > 0.0)


def test_length_values():
    assert disk.theta_to_length(np.pi / 4.0) == pytest.approx(HALF_PI, abs=1e-15)
    assert disk.theta_to_length(HALF_PI - 1e-10) == pytest.approx(2.0, abs=1e-9)


def test_out_of_range():
    for bad in (0.0, -0.1, HALF_PI, 2.0):
        with pytest.raises(OutOfRange):
            disk.theta_to_area(bad)
    for bad in (0.0, np.pi, 4.0):
        with pytest.raises(OutOfRange):
            disk.profile(bad)


def test_array_calls_equal_scalar_calls():
    thetas = np.array([1e-6, 0.01, 0.3, np.pi / 4.0, 1.3, HALF_PI - 1e-9])
    areas = np.array([1e-9, 0.02, 0.5, HALF_PI - 1.0, 1.4, HALF_PI, 2.0, 3.1])
    cases = [(disk.theta_to_area, thetas), (disk.theta_to_length, thetas),
             (disk.theta_to_curvature, thetas), (disk.profile, areas),
             (disk.area_to_theta, areas[areas <= HALF_PI])]
    for fn, xs in cases:
        many = fn(xs)
        assert many.shape == xs.shape
        for x, y in zip(xs, many):
            one = fn(float(x))
            assert type(one) is float
            assert one == y
        assert np.array_equal(fn(xs.reshape(-1, 1)), many.reshape(-1, 1))


def test_array_out_of_range_refused():
    with pytest.raises(OutOfRange, match="got 0.0"):
        disk.theta_to_area(np.array([0.3, 0.0, 1.0]))
    with pytest.raises(OutOfRange, match="got nan"):
        disk.theta_to_length(np.array([0.3, np.nan]))
    with pytest.raises(OutOfRange):
        disk.theta_to_curvature(np.array([HALF_PI]))
    with pytest.raises(OutOfRange, match="got 1.6"):
        disk.area_to_theta(np.array([0.5, 1.6]))
    with pytest.raises(OutOfRange, match="got 3.2"):
        disk.profile(np.array([[0.5], [3.2]]))


def test_inversion_roundtrip():
    for theta in (0.01, 0.3, np.pi / 4.0, 1.3, HALF_PI - 1e-4):
        a = disk.theta_to_area(theta)
        assert disk.area_to_theta(a) == pytest.approx(theta, abs=1e-12)
    # the end of the range: theta_to_area stays ~1e-15 below pi/2 there
    assert disk.area_to_theta(HALF_PI) == pytest.approx(HALF_PI, abs=1e-12)


def test_area_to_theta_bracket_holds():
    # area_to_theta solves in [√(2A/π), √(πA/2)]: A(θ)/θ² falls from π/2 as
    # θ → 0 (A ≈ (π/2)θ² − (4/3)θ³) to 2/π at θ = π/2. Below θ = 1e-3 the
    # area map's rounding (about 1e-16 absolute) hides the fall.
    theta = np.geomspace(1e-3, HALF_PI - 1e-12, 2001)
    ratio = disk.theta_to_area(theta) / theta ** 2
    assert np.all(np.diff(ratio) < 0.0)
    assert np.pi / 2.0 - 2e-3 < ratio[0] < np.pi / 2.0
    assert 2.0 / np.pi < ratio[-1] < 2.0 / np.pi + 1e-11
    area = np.append(np.geomspace(1e-6, 1.5, 200), HALF_PI)
    theta = disk.area_to_theta(area)
    assert np.all((np.sqrt(2.0 * area / np.pi) <= theta)
                  & (theta <= np.sqrt(np.pi * area / 2.0)))
    # each solve meets its root: xtol·max A′ (A′ ≤ π) plus the map's rounding
    assert np.all(np.abs(disk.theta_to_area(theta) - area) <= np.pi * 1e-14 + 1e-15)


def test_area_keeps_relative_accuracy_at_small_angles():
    # below θ = 0.03 the area is (π/2 − θ)·tan²θ − (tanθ − θ), with tanθ − θ
    # from its series to θ⁹: about 7 roundings, all relative, and a
    # truncation below 5.7e-3·θ⁹ ≤ 1.1e-16 relative; allowed 2e-15 (measured
    # 4.4e-16). From 0.03 up the cancelling form misses by the rounding of
    # t = π/2 − θ (1.7e-16) and about 5 roundings of θ-sized terms: allowed
    # 3e-16 absolute. θ starts at 1e-150, where A is still a normal float.
    mp = pytest.importorskip("mpmath")

    def exact(theta):
        t = mp.mpf(theta)
        return t - mp.tan(t) + (mp.pi / 2 - t) * mp.tan(t) ** 2

    small = np.append(np.geomspace(1e-150, 0.03, 60, endpoint=False),
                      np.nextafter(0.03, 0.0))
    with mp.workdps(40):
        for theta in small:
            ref = exact(theta)
            assert abs(disk.theta_to_area(theta) - ref) <= 2e-15 * ref
        for theta in (0.03, 0.05, 0.113):
            assert abs(disk.theta_to_area(theta) - exact(theta)) <= 3e-16
        # the profile inherits the solve's xtol = 1e-14 on θ (L ≈ πθ):
        # measured 1.3e-9 relative at A = 1e-16, where the area map alone
        # missed by 10.7%
        for a in (1e-16, 1e-12, 1e-8):
            theta = mp.findroot(lambda t: exact(t) - a, np.sqrt(2.0 * a / np.pi))
            ref = (mp.pi - 2 * theta) * mp.tan(theta)
            assert abs(disk.profile(a) - ref) <= (1e-14 / theta + 1e-14) * ref


def test_profile_values():
    assert disk.profile(HALF_PI) == 2.0
    assert disk.profile(HALF_PI - 1.0) == pytest.approx(HALF_PI, abs=1e-12)
    # small-area regime: I(a) ~ sqrt(2 pi a) within 1%
    a = 1e-6
    assert disk.profile(a) == pytest.approx(np.sqrt(2.0 * np.pi * a), rel=1e-2)


def test_profile_symmetry():
    for a in (0.2, 0.9, 1.5, HALF_PI):
        assert disk.profile(a) == pytest.approx(disk.profile(np.pi - a), abs=1e-12)


def test_dL_equals_k_dA_finite_difference():
    # centered differences of the closed forms against the arc curvature
    thetas = np.linspace(0.05, HALF_PI - 0.05, 200)
    h = 1e-6
    worst = 0.0
    for t in thetas:
        dL = (disk.theta_to_length(t + h) - disk.theta_to_length(t - h))
        dA = (disk.theta_to_area(t + h) - disk.theta_to_area(t - h))
        k = disk.theta_to_curvature(t)
        worst = max(worst, abs(dL / dA - k) / k)
    assert worst < 1e-6


def test_disk_arc_geometry():
    arc = disk.arc(0.0, np.pi / 4.0)
    assert np.allclose(arc.center, [np.sqrt(2.0), 0.0], atol=1e-15)
    assert arc.radius == pytest.approx(1.0, abs=1e-15)
    assert arc.curvature == pytest.approx(1.0, abs=1e-15)
    lo, hi = arc.endpoint_thetas
    assert hi - lo == pytest.approx(HALF_PI, abs=1e-15)  # separation 2b
    assert arc.length == pytest.approx(HALF_PI, abs=1e-15)
    assert arc.enclosed_area == pytest.approx(HALF_PI - 1.0, abs=1e-15)
    # endpoints on the unit circle at normal angles u +- theta
    for t in arc.endpoint_thetas:
        p = np.array([np.cos(t), np.sin(t)])
        assert np.hypot(*(p - arc.center)) == pytest.approx(arc.radius, abs=1e-12)


@pytest.mark.parametrize("u,theta", [(0.0, 0.3), (1.1, np.pi / 4.0), (4.0, 1.2)])
def test_disk_arc_curvature_is_cot(u, theta):
    arc = disk.arc(u, theta)
    assert arc.curvature == pytest.approx(1.0 / np.tan(theta), rel=1e-14)
