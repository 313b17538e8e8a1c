"""Real trigonometric polynomials on [0, 2π).

Everything geometric in this package reduces to finite Fourier series;
this module gives them exact derivatives, antiderivatives and products so
the rest of the code never needs quadrature for closed-form quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# basis entries (points × modes) built at once; bounds evaluate's memory
BLOCK_ENTRIES = 2 ** 16


@dataclass(frozen=True, eq=False)
class TrigSeries:
    """f(t) = Σ_k cos_c[k]·cos(kt) + sin_c[k]·sin(kt), k = 0..M (sin_c[0] ≡ 0).

    A stacked series (`stack`) holds one coefficient row per domain; `evaluate`
    and `integral_between` read row domain[i] at point i, so they need an
    array index there (a lone one ignores it).
    """

    cos_c: np.ndarray
    sin_c: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.cos_c, dtype=float))
        s = np.atleast_1d(np.asarray(self.sin_c, dtype=float))
        if c.ndim == 1 and (len(c) != len(s) or (len(s) and s[0] != 0.0)):
            m = max(len(c), len(s), 1)
            if len(c) < m:
                c = np.concatenate([c, np.zeros(m - len(c))])
            if len(s) < m:
                s = np.concatenate([s, np.zeros(m - len(s))])
            s = s.copy()
            s[0] = 0.0
        object.__setattr__(self, "cos_c", c)
        object.__setattr__(self, "sin_c", s)

    @property
    def order(self) -> int:
        return self.cos_c.shape[-1] - 1

    @staticmethod
    def stack(series) -> "TrigSeries":
        """The series as the rows of one stacked series, zero-padded to the
        highest order; a stack of one is the series itself."""
        if len(series) == 1:
            return series[0]
        m = max(s.order for s in series) + 1
        return TrigSeries(*(np.array([np.pad(getattr(s, name), (0, m - s.order - 1))
                                      for s in series]) for name in ("cos_c", "sin_c")))

    def __call__(self, t):
        return TrigSeries.evaluate(t, self)[0]

    @staticmethod
    def evaluate(t, *series, domain=0) -> tuple:
        """Each series at t, shaped like t, on one cos/sin basis per block; a
        stacked series at the rows `domain`, broadcast against t."""
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.ravel()
        # the series of one call are all lone or all rows of one stack
        rows_of = (np.broadcast_to(_rows(domain), t_arr.shape).ravel()
                   if series[0].cos_c.ndim > 1 else None)
        k = np.arange(max(s.order for s in series) + 1)
        # an even block keeps BLAS's row pairing of one unblocked product
        rows = max(2, BLOCK_ENTRIES // len(k) // 2 * 2)
        out = [np.empty(flat.shape) for _ in series]
        for lo in range(0, flat.size, rows):
            ang = np.multiply.outer(flat[lo:lo + rows], k)
            cos_b, sin_b = np.cos(ang), np.sin(ang)
            for o, s in zip(out, series):
                m = s.order + 1
                if rows_of is None:
                    o[lo:lo + rows] = cos_b[:, :m] @ s.cos_c + sin_b[:, :m] @ s.sin_c
                    continue
                # every domain at every point, then each point's own domain
                every = cos_b[:, :m] @ s.cos_c.T + sin_b[:, :m] @ s.sin_c.T
                o[lo:lo + rows] = every[np.arange(len(every)), rows_of[lo:lo + rows]]
        return tuple(o.reshape(t_arr.shape) if t_arr.ndim else float(o[0])
                     for o in out)

    @staticmethod
    def on_grid(n: int, *series) -> tuple:
        """Each series at t_j = 2πj/n, j = 0..n−1, by one inverse real FFT.

        The transform length is the smallest multiple m·n above twice the
        highest order, so no mode aliases; every m-th value is kept.
        """
        m = 2 * max(s.order for s in series) // n + 1
        spec = np.zeros((len(series), m * n // 2 + 1), dtype=complex)
        for row, s in zip(spec, series):
            row[:s.order + 1] = 0.5 * (s.cos_c - 1j * s.sin_c)
            row[0] = s.cos_c[0]
        return tuple(np.fft.irfft(spec, m * n, norm="forward")[:, ::m])

    def derivative(self) -> "TrigSeries":
        k = np.arange(self.order + 1, dtype=float)
        return TrigSeries(k * self.sin_c, -k * self.cos_c)

    def integral_between(self, t0, t1, domain=0):
        """∫_{t0}^{t1} f dt, exact (t0, t1 scalars or arrays); a stacked
        series at the rows `domain`, broadcast against t0 and t1."""
        t0 = np.asarray(t0, dtype=float)
        t1 = np.asarray(t1, dtype=float)
        k = np.arange(1, self.order + 1)
        c, s = self.cos_c, self.sin_c
        if c.ndim > 1:  # each point's own coefficient row
            rows = _rows(domain)
            c, s = c[rows], s[rows]
        a, b = c[..., 1:] / k, s[..., 1:] / k
        def anti(t):
            ang = np.multiply.outer(t, k)
            if a.ndim == 1:
                return np.sin(ang) @ a - np.cos(ang) @ b
            return np.sum(np.sin(ang) * a - np.cos(ang) * b, axis=-1)
        out = c[..., 0] * (t1 - t0) + anti(t1) - anti(t0)
        return out if out.ndim else float(out)

    def product(self, other: "TrigSeries") -> "TrigSeries":
        """Exact pointwise product via convolution of complex coefficients."""
        ga = _to_complex(self)
        gb = _to_complex(other)
        return _from_complex(np.convolve(ga, gb))

    def truncated(self, rel_tol: float) -> "TrigSeries":
        mag = np.maximum(np.abs(self.cos_c), np.abs(self.sin_c))
        floor = rel_tol * max(mag.max(), 1e-300)
        keep = np.nonzero(mag > floor)[0]
        m = int(keep.max()) if len(keep) else 0
        return TrigSeries(self.cos_c[: m + 1], self.sin_c[: m + 1])


def _rows(domain):
    """A stacked series' row per point; a scalar there is a lost index."""
    if np.ndim(domain) == 0:
        raise ValueError("a stacked series needs an array of domain indices")
    return domain


def _to_complex(f: TrigSeries) -> np.ndarray:
    """Coefficients γ_k ordered k = -M..M with γ_{±k} = (a_k ∓ i b_k)/2."""
    a, b = f.cos_c[1:], f.sin_c[1:]
    return np.concatenate([((a + 1j * b) / 2.0)[::-1], f.cos_c[:1],
                           (a - 1j * b) / 2.0])


def _from_complex(g: np.ndarray) -> TrigSeries:
    m = (len(g) - 1) // 2
    cos_c = np.concatenate([[g[m].real], 2.0 * g[m + 1:].real])
    sin_c = np.concatenate([[0.0], -2.0 * g[m + 1:].imag])
    return TrigSeries(cos_c, sin_c).truncated(1e-16)


def fit_periodic(fn, n_samples: int = 4096) -> TrigSeries:
    """Fit a smooth 2π-periodic callable by FFT on a uniform grid.

    Coefficients below 1e-15 of the largest are dropped. Aliasing is below
    that once the function's coefficients have decayed by mode n_samples/2,
    which holds for every analytic curve used here.
    """
    t = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    vals = np.asarray(fn(t), dtype=float)
    spec = np.fft.rfft(vals) / n_samples
    cos_c = 2.0 * spec.real
    cos_c[0] = spec[0].real
    sin_c = -2.0 * spec.imag
    # drop the ambiguous Nyquist bin
    return TrigSeries(cos_c[:-1], sin_c[:-1]).truncated(1e-15)
