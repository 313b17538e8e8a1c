import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from isoperim.geometry import SupportCurve
from isoperim.trig import (BLOCK_ENTRIES, SPLIT, TrigSeries, _from_complex,
                           _to_complex, fit_periodic)

coeff_lists = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6)


@given(coeff_lists, coeff_lists, st.floats(0.0, 2.0 * np.pi))
def test_eval_matches_direct_sum(cos_c, sin_c, t):
    f = TrigSeries(np.array(cos_c), np.array([0.0] + sin_c))
    direct = sum(c * np.cos(k * t) for k, c in enumerate(f.cos_c))
    direct += sum(s * np.sin(k * t) for k, s in enumerate(f.sin_c))
    assert f(t) == pytest.approx(direct, abs=1e-12)


@given(coeff_lists, st.floats(0.1, 5.0))
def test_integral_matches_quadrature(cos_c, t1):
    f = TrigSeries(np.array(cos_c), np.zeros(len(cos_c)))
    want, _ = quad(f, 0.2, 0.2 + t1, limit=200)
    assert f.integral_between(0.2, 0.2 + t1) == pytest.approx(want, abs=1e-9)


def test_derivative_by_finite_difference():
    f = TrigSeries(np.array([1.0, 0.3, -0.2]), np.array([0.0, 0.1, 0.4]))
    fp = f.derivative()
    h = 1e-6
    for t in np.linspace(0.0, 2.0 * np.pi, 11):
        fd = (f(t + h) - f(t - h)) / (2.0 * h)
        assert fp(t) == pytest.approx(fd, abs=1e-8)


def test_product_pointwise():
    f = TrigSeries(np.array([1.0, 0.5]), np.array([0.0, -0.3]))
    g = TrigSeries(np.array([0.2, 0.0, 0.7]), np.array([0.0, 0.1, 0.0]))
    fg = f.product(g)
    t = np.linspace(0.0, 2.0 * np.pi, 37)
    assert np.allclose(fg(t), f(t) * g(t), atol=1e-14)


def test_fit_periodic_recovers_coefficients():
    fn = lambda t: 1.5 + 0.25 * np.cos(3 * t) - 0.1 * np.sin(5 * t)
    f = fit_periodic(fn, 256)
    assert f.cos_c[0] == pytest.approx(1.5, abs=1e-13)
    assert f.cos_c[3] == pytest.approx(0.25, abs=1e-13)
    assert f.sin_c[5] == pytest.approx(-0.1, abs=1e-13)
    assert f.order == 5


def test_evaluate_in_one_block_is_each_call(ellipse_main):
    low = TrigSeries(np.array([1.0, 0.5]), np.array([0.0, 0.2]))
    series = (ellipse_main.h_series, low, ellipse_main.rho_series)
    t = np.linspace(-1.0, 7.0, 301)
    assert t.size * (ellipse_main.h_series.order + 1) <= BLOCK_ENTRIES
    for got, s in zip(TrigSeries.evaluate(t, *series), series):
        assert np.array_equal(got, s(t))
    assert TrigSeries.evaluate(0.3, *series) == tuple(s(0.3) for s in series)
    assert TrigSeries.evaluate(t.reshape(7, 43), low)[0].shape == (7, 43)


def test_evaluate_across_blocks_matches_mode_sum():
    h = SupportCurve.ellipse(np.sqrt(6.0), 1.0 / np.sqrt(6.0)).h_series
    assert h.order >= 158
    t = np.linspace(-0.5, 7.0, 200_001)
    # independent route: one mode at a time, Neumaier-compensated
    want, comp = np.zeros_like(t), np.zeros_like(t)
    for k in range(h.order + 1):
        for term in (h.cos_c[k] * np.cos(k * t), h.sin_c[k] * np.sin(k * t)):
            total = want + term
            comp += np.where(np.abs(want) >= np.abs(term),
                             (want - total) + term, (term - total) + want)
            want = total
    want += comp
    (got,) = TrigSeries.evaluate(t, h)
    scale = np.sum(np.abs(h.cos_c)) + np.sum(np.abs(h.sin_c))
    assert np.max(np.abs(got - want)) <= 1e-15 * scale


def _mode_sum(cos_c, sin_c, t):
    """Σ_k c_k cos(kt) + s_k sin(kt), one mode at a time and Neumaier-
    compensated; coefficient rows (…, M + 1) broadcast against t."""
    want, comp = np.zeros(np.shape(t)), np.zeros(np.shape(t))
    for k in range(cos_c.shape[-1]):
        for term in (cos_c[..., k] * np.cos(k * t), sin_c[..., k] * np.sin(k * t)):
            total = want + term
            comp += np.where(np.abs(want) >= np.abs(term),
                             (want - total) + term, (term - total) + want)
            want = total
    return want + comp


def _mixed_stack():
    """Rows of orders 0, 1, 5 and 158 (the aspect-6 ellipse), and a row index
    per point that visits them in no order."""
    rng = np.random.default_rng(11)
    rows = [TrigSeries(np.array([1.3]), np.zeros(1)),
            TrigSeries(np.array([0.5, 0.2]), np.array([0.0, -0.7])),
            TrigSeries(rng.standard_normal(6), np.append(0.0, rng.standard_normal(5))),
            SupportCurve.ellipse(np.sqrt(6.0), 1.0 / np.sqrt(6.0)).h_series]
    assert [r.order for r in rows] == [0, 1, 5, 158]
    return TrigSeries.stack(rows), rng


# The bounds are fixed from the kernel's rounding before running: the sums
# within 1e-15·Σ|c| as in test_evaluate_across_blocks_matches_mode_sum, plus,
# for modes k ≥ SPLIT, the phases: the kernel forms fl(r·t) and fl(j·SPLIT·t)
# where the reference forms fl(k·t), each within u·k·|t| (u = 2⁻⁵³).
def _bound(cos_c, sin_c, t):
    mag = np.abs(cos_c) + np.abs(sin_c)
    k = np.arange(mag.shape[-1])
    phase = 2.0 * (np.finfo(float).eps / 2.0) * np.abs(t) * np.sum(
        np.where(k >= SPLIT, k * mag, 0.0), axis=-1)
    return 1e-15 * np.sum(mag, axis=-1) + phase


@pytest.mark.parametrize("centre", [3.25, 1e3, -1e3])
def test_stacked_kernel_matches_mode_sum(centre):
    stack, rng = _mixed_stack()
    t = centre + np.linspace(-3.75, 3.75, 6001)
    domain = rng.integers(0, 4, t.size)
    c, s = stack.cos_c[domain], stack.sin_c[domain]
    (got,) = TrigSeries.evaluate(t, stack, domain=domain)
    assert np.all(np.abs(got - _mode_sum(c, s, t)) <= _bound(c, s, t))
    # the antiderivative's periodic part has modes (−s_k/k, c_k/k), k ≥ 1
    t0, t1 = t, t[::-1]
    k = np.maximum(np.arange(stack.order + 1), 1)
    a, b = -s / k, c / k
    a[:, 0] = b[:, 0] = 0.0
    want = c[:, 0] * (t1 - t0) + _mode_sum(a, b, t1) - _mode_sum(a, b, t0)
    got = stack.integral_between(t0, t1, domain)
    bound = (_bound(a, b, t0) + _bound(a, b, t1)
             + 1e-15 * np.abs(c[:, 0] * (t1 - t0)))
    assert np.all(np.abs(got - want) <= bound)


def test_kernel_on_scalar_and_empty_points():
    stack, _ = _mixed_stack()
    h = SupportCurve.ellipse(np.sqrt(6.0), 1.0 / np.sqrt(6.0)).h_series
    for t in (0.3, -1e3 + 0.3):
        value = h(t)
        assert isinstance(value, float)
        assert abs(value - _mode_sum(h.cos_c, h.sin_c, t)) <= _bound(h.cos_c, h.sin_c, t)
        assert isinstance(h.integral_between(t, t + 1.0), float)
    empty = np.array([])
    assert TrigSeries.evaluate(empty, h)[0].shape == (0,)
    assert TrigSeries.evaluate(empty, stack, domain=np.array([], int))[0].shape == (0,)
    assert h.integral_between(empty, empty).shape == (0,)
    assert stack.integral_between(empty, empty, np.array([], int)).shape == (0,)


def _to_complex_by_mode(f):
    m = f.order
    g = np.zeros(2 * m + 1, dtype=complex)
    g[m] = f.cos_c[0]
    for k in range(1, m + 1):
        g[m + k] = (f.cos_c[k] - 1j * f.sin_c[k]) / 2.0
        g[m - k] = (f.cos_c[k] + 1j * f.sin_c[k]) / 2.0
    return g


def _from_complex_by_mode(g):
    m = (len(g) - 1) // 2
    cos_c, sin_c = np.zeros(m + 1), np.zeros(m + 1)
    cos_c[0] = g[m].real
    for k in range(1, m + 1):
        cos_c[k] = 2.0 * g[m + k].real
        sin_c[k] = -2.0 * g[m + k].imag
    return TrigSeries(cos_c, sin_c).truncated(1e-16)


def test_complex_coefficients_match_per_mode_loops(ellipse_main):
    h, rho = ellipse_main.h_series, ellipse_main.rho_series
    for f in (h, rho):
        assert np.array_equal(_to_complex(f), _to_complex_by_mode(f))
    conv = np.convolve(_to_complex(h), _to_complex(rho))
    got, want = _from_complex(conv), _from_complex_by_mode(conv)
    assert np.array_equal(got.cos_c, want.cos_c)
    assert np.array_equal(got.sin_c, want.sin_c)
    product = h.product(rho)
    assert np.array_equal(product.cos_c, want.cos_c)
    assert np.array_equal(product.sin_c, want.sin_c)


def _grid_sum_by_mode(n, nodes, *series):
    """Each series at t_j = 2πj/n for j in nodes, one mode at a time and
    Neumaier-compensated, each angle reduced exactly to 2π·((k·j) mod n)/n."""
    j = np.arange(n)
    cos_t, sin_t = np.cos(2.0 * np.pi * j / n), np.sin(2.0 * np.pi * j / n)
    order = max(s.order for s in series)
    a, b = np.zeros((len(series), order + 1)), np.zeros((len(series), order + 1))
    for row, s in enumerate(series):
        a[row, :s.order + 1], b[row, :s.order + 1] = s.cos_c, s.sin_c
    total = np.zeros((len(series), nodes.size))
    comp = np.zeros_like(total)
    for k in range(order + 1):
        idx = (k * nodes) % n
        for term in (a[:, k:k + 1] * cos_t[idx], b[:, k:k + 1] * sin_t[idx]):
            new = total + term
            comp += np.where(np.abs(total) >= np.abs(term),
                             (total - new) + term, (term - new) + total)
            total = new
    return total + comp


def _grid_cases():
    for a, b in ((np.sqrt(6.0), 1.0 / np.sqrt(6.0)), (10.0, 0.1)):
        curve = SupportCurve.ellipse(a, b)
        series = (curve.h_series, curve.rho_series, curve.rho_series.derivative())
        for n in (720, 4096, 65536):
            yield f"ellipse_{a:.3g}_{b:.3g}_n{n}", n, series
    rng = np.random.default_rng(3)
    # order above n/2: a transform of length n would alias
    yield "order_3000_n4096", 4096, (TrigSeries(rng.standard_normal(3001),
                                                rng.standard_normal(3001)),)
    yield "disk_n720", 720, (SupportCurve.disk(1.3).h_series,)


@pytest.mark.parametrize("n, series", [pytest.param(n, s, id=name)
                                       for name, n, s in _grid_cases()])
def test_on_grid_matches_compensated_mode_sum(n, series):
    got = TrigSeries.on_grid(n, *series)
    # above 4,096 nodes the slow reference sees every 17th node
    nodes = np.arange(n) if n <= 4096 else np.arange(0, n, 17)
    want = _grid_sum_by_mode(n, nodes, *series)
    size = n * (2 * max(s.order for s in series) // n + 1)
    for g, w, s in zip(got, want, series):
        assert g.shape == (n,)
        scale = np.sum(np.abs(s.cos_c)) + np.sum(np.abs(s.sin_c))
        assert np.max(np.abs(g[nodes] - w)) <= np.finfo(float).eps * np.log2(size) * scale
