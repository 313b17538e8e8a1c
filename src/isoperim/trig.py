"""Real trigonometric polynomials on [0, 2π).

Everything geometric in this package reduces to finite Fourier series;
this module gives them exact derivatives, antiderivatives and products so
the rest of the code never needs quadrature for closed-form quantities.

`evaluate` splits mode k = j·b + r, b = min(SPLIT, M + 1), as e^{ij·b·t}·e^{irt}:
a point costs b + J sines and cosines, J = ⌈(M + 1)/b⌉, not M + 1. fl(r·t) and
fl(j·b·t) put the phase off by at most u·k·|t|, as fl(k·t) would, and a value is
off by at most Σ_k (|c_k| + |s_k|)·(u·k·|t| + (b + J + 4)·u), u = 2⁻⁵³, to first order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# basis entries (points × angles) built at once; bounds evaluate's memory
BLOCK_ENTRIES = 2 ** 16
SPLIT = 16  # fixed: a series' value does not depend on the others in its call


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
            c, s = np.pad(c, (0, m - len(c))), np.pad(s, (0, m - len(s)))  # copies
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
        """Each series at t, shaped like t; a stacked series at the rows `domain`,
        broadcast against t. One basis of angles per block of points (the split:
        module docstring) serves all; a series reads prefixes of it, so the others
        in its call do not change it."""
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.ravel()
        if series[0].cos_c.ndim > 1 and np.ndim(domain) == 0:
            raise ValueError("a stacked series needs an array of domain indices")
        # the series of one call are all lone or all rows of one stack
        rows_of = (np.broadcast_to(domain, t_arr.shape).ravel()
                   if series[0].cos_c.ndim > 1 else None)
        # the widest series' angles serve all: any with J > 1 has b = SPLIT
        freq = max((s._kernel[0] for s in series), key=len)
        b = min(SPLIT, len(freq))  # entries per point: the basis, a stack's weights
        width = len(freq) + (0 if rows_of is None else b * max(len(freq) - b, 1))
        # an even block keeps BLAS's row pairing of one unblocked product
        step = max(2, BLOCK_ENTRIES // width // 2 * 2)
        out = [np.empty(flat.shape) for _ in series]
        for lo in range(0, flat.size, step):
            ang = flat[lo:lo + step, None] * freq
            e = np.empty(ang.shape, dtype=complex)
            np.cos(ang, out=e.real)
            np.sin(ang, out=e.imag)
            for o, (_, g) in zip(out, (s._kernel for s in series)):
                b, n = g.shape[-2:]
                if rows_of is None:
                    u = e[:, :b] @ g
                else:  # a stack: each point's own weights
                    u = np.einsum("pr,prj->pj", e[:, :b], g[rows_of[lo:lo + step]])
                # vecdot conjugates the tail e^{−ij·b·t} back to e^{ij·b·t}
                o[lo:lo + step] = (u[:, 0] if n == 1 else np.vecdot(e[:, b:b + n], u)).real
        return tuple(o.reshape(t_arr.shape) if t_arr.ndim else float(o[0]) for o in out)

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
        c0 = self.cos_c[..., 0]
        c0 = c0[domain] if c0.ndim else c0  # each point's own row; evaluate checks it
        out = c0 * (np.asarray(t1, dtype=float) - t0)
        ends = np.empty((2,) + out.shape)
        ends[0], ends[1] = t1, t0
        hi, lo = TrigSeries.evaluate(ends, self._antiderivative, domain=domain)[0]
        out = out + hi - lo
        return out if out.ndim else float(out)

    @cached_property
    def _kernel(self) -> tuple:
        """`evaluate`'s angles r < b, then −j·b if J > 1, and its weights
        G[…, r, j] = c_k − i·s_k, k = j·b + r (zero past the order)."""
        m = self.order + 1
        b = min(SPLIT, m)
        j = -(-m // b)
        g = np.zeros(self.cos_c.shape[:-1] + (j * b,), dtype=complex)
        g[..., :m] = self.cos_c - 1j * self.sin_c
        freq = np.append(np.arange(b), -b * np.arange(j) if j > 1 else []).astype(float)
        return freq, g.reshape(g.shape[:-1] + (j, b)).swapaxes(-1, -2)

    @cached_property
    def _antiderivative(self) -> "TrigSeries":
        """The antiderivative's periodic part Σ_{k≥1} (c_k sin kt − s_k cos kt)/k."""
        k = np.arange(self.order + 1.0)
        k[0] = np.inf  # the constant term is integrated on its own
        return TrigSeries(-self.sin_c / k, self.cos_c / k)

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
