"""Reference evaluators for the benchmark's output checks.

Everything here is written apart from ``lorentz_gm``, with numpy and the
standard library only, so that a fault in the package cannot hide inside its
own check.  Conventions follow the package's documented definitions:
sequences are 1-based with a zero tail, a step function holds v_j on
(x_{j-1}, x_j], and a headed function has c x^gamma on (0, x_1].
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss


def moduli(z) -> np.ndarray:
    """|z| rounded as Python's ``abs(complex)`` rounds it (``np.abs`` on complex
    arrays may differ in the last bit)."""
    z = np.asarray(z, dtype=complex)
    return np.hypot(z.real, z.imag)


# ---------------------------------------------------------------------------
# Trigonometric polynomials f(x) = sum_{k=m}^{n} c_k e^{ikx}.
# ---------------------------------------------------------------------------


def trig_horner(coeffs, m: int, xs) -> np.ndarray:
    """sum_j coeffs[j] e^{i(m+j)x} by Horner's rule in z = e^{ix}.

    |z| = 1, so the recurrence is stable and needs one ``exp`` per point, not
    one per (point, term) pair."""
    xs = np.asarray(xs, dtype=float)
    z = np.exp(1j * xs)
    acc = np.zeros(xs.shape, dtype=complex)
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        acc = acc * z + c
    return acc * np.exp(1j * m * xs)


def trig_dft_grid(coeffs, size: int) -> np.ndarray:
    """f(2 pi j / size) for j = 0..size-1, with coeffs[0] = c_1, by one FFT."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(coeffs) >= size:
        raise ValueError("the DFT grid must be longer than the coefficient list")
    buf = np.zeros(size, dtype=complex)
    buf[1 : len(coeffs) + 1] = coeffs
    return np.fft.ifft(buf) * size


def l1_trig_midpoint(coeffs, panels: int = 1 << 17) -> float:
    """int_0^pi |f| by the midpoint rule on an FFT grid, endpoint-corrected.

    The midpoints (i + 1/2) pi / P are the odd points of the size-4P DFT grid.
    The Euler-Maclaurin term h^2/24 (g'(pi) - g'(0)) for g = |f| removes the
    leading endpoint error; what is left comes from the kinks of |f| at its
    zeros."""
    coeffs = np.asarray(coeffs, dtype=complex)
    h = math.pi / panels
    mids = np.abs(trig_dft_grid(coeffs, 4 * panels)[1 : 2 * panels : 2])
    ks = np.arange(1, len(coeffs) + 1)

    def slope(x: float) -> float:
        phase = np.exp(1j * ks * x)
        f = np.sum(coeffs * phase)
        df = np.sum(1j * ks * coeffs * phase)
        return float((np.conj(f) * df).real / abs(f)) if f != 0 else 0.0

    return math.fsum(mids.tolist()) * h + h * h / 24.0 * (slope(math.pi) - slope(0.0))


# ---------------------------------------------------------------------------
# The K-functional of (l^1 with weight 1/n, l^1) and its interpolation norm.
# ---------------------------------------------------------------------------


def k_value(mods, t: float) -> float:
    """K(t, c) = sum_n |c_n| min(1/n, t)."""
    mods = np.asarray(mods, dtype=float)
    n = np.arange(1, len(mods) + 1, dtype=float)
    return math.fsum((mods * np.minimum(1.0 / n, t)).tolist())


def interp_norm(mods, theta: float, q: float, nodes: int = 12) -> float:
    """|| t^{-theta} K(t) ||_{L^q(dt/t)} for 0 < theta < 1 and finite q.

    On (1/(m+1), 1/m] K is A_m + B_m t.  In u = ln t every such cell is
    integrated by a fixed Gauss-Legendre rule; the two tails t <= 1/n and
    t >= 1 are pure powers and integrate in closed form."""
    mods = np.trim_zeros(np.asarray(mods, dtype=float), "b")
    if not len(mods):
        return 0.0
    n = len(mods)
    k = np.arange(1, n + 1, dtype=float)
    b = np.cumsum(mods)  # b[m-1] = sum_{j <= m} |c_j|
    a = np.concatenate((np.cumsum((mods / k)[::-1])[::-1], [0.0]))  # a[m] = sum_{j > m}
    e1, e0 = (1.0 - theta) * q, theta * q
    parts = [b[-1] ** q * (1.0 / n) ** e1 / e1, a[0] ** q / e0]
    if n > 1:
        m = np.arange(1, n, dtype=float)
        u_lo, u_hi = -np.log(m + 1.0), -np.log(m)
        x, w = leggauss(nodes)
        half = 0.5 * (u_hi - u_lo)
        u = 0.5 * (u_hi + u_lo)[:, None] + half[:, None] * x[None, :]
        am, bm = a[1:n][:, None], b[: n - 1][:, None]
        vals = np.exp(-theta * q * u) * (am + bm * np.exp(u)) ** q
        parts += (half * (vals @ w)).tolist()
    return math.fsum(parts) ** (1.0 / q)


# ---------------------------------------------------------------------------
# Window sups of sequences, by brute force: every window is summed afresh.
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    if num == 0.0:
        return 0.0
    return num / den if den > 0.0 else math.inf


def gms_sup(vals) -> float:
    """sup_n sum_{k=n}^{2n-1} |a_k - a_{k+1}| / |a_n|."""
    vals = np.asarray(vals, dtype=complex)
    m = np.abs(vals)
    d = np.abs(np.diff(np.append(vals, 0j)))
    best = 0.0
    for n in range(1, len(vals) + 1):
        num = math.fsum(d[n - 1 : min(2 * n - 1, len(vals))].tolist())
        best = max(best, _ratio(num, float(m[n - 1])))
    return best


def gms1_sup(vals) -> float:
    """sup over n <= k <= 2n (k <= N) of |a_k| / |a_n|."""
    m = np.abs(np.asarray(vals, dtype=complex))
    best = 0.0
    for n in range(1, len(m) + 1):
        best = max(best, _ratio(float(np.max(m[n - 1 : 2 * n])), float(m[n - 1])))
    return best


def gms2_sup(vals) -> float:
    """sup over 1 <= n < N' <= N + 1 of
    sum_{k=n}^{N'-1} |a_k - a_{k+1}| / (|a_n| + sum_{k=n+1}^{N'} |a_k| / k)."""
    vals = np.asarray(vals, dtype=complex)
    n_len = len(vals)
    m = np.abs(vals)
    d = np.abs(np.diff(np.append(vals, 0j)))
    w = m / np.arange(1, n_len + 1)
    best = 0.0
    for n in range(1, n_len + 1):
        nums = np.cumsum(d[n - 1 :])  # N' = n+1 .. N+1
        dens = m[n - 1] + np.concatenate((np.cumsum(w[n:]), [np.sum(w[n:])]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(nums == 0.0, 0.0, np.where(dens > 0.0, nums / dens, np.inf))
        best = max(best, float(np.max(ratios)))
    return best


# ---------------------------------------------------------------------------
# Norms in closed form.
# ---------------------------------------------------------------------------


def weighted_seq(mods, p: float, q: float) -> float:
    """(sum_n |a_n|^q n^{q/p - 1})^{1/q}, finite p and q."""
    mods = np.asarray(mods, dtype=float)
    n = np.arange(1, len(mods) + 1, dtype=float)
    live = mods > 0
    return math.fsum((mods[live] ** q * n[live] ** (q / p - 1.0)).tolist()) ** (1.0 / q)


def lorentz_seq(mods, p: float, q: float) -> float:
    return weighted_seq(np.sort(np.asarray(mods, dtype=float))[::-1], p, q)


def weighted_step(breakpoints, mods, p: float, q: float) -> float:
    """(int_0^inf x^{q/p - 1} |f|^q dx)^{1/q} for a plain step function."""
    hi = np.asarray(breakpoints, dtype=float)
    lo = np.concatenate(([0.0], hi[:-1]))
    mods = np.asarray(mods, dtype=float)
    s = q / p
    live = mods > 0
    return math.fsum((mods[live] ** q * (hi[live] ** s - lo[live] ** s) / s).tolist()) ** (1.0 / q)


def lorentz_step(breakpoints, mods, p: float, q: float) -> float:
    """Weighted norm of the decreasing rearrangement, pieces sorted by modulus."""
    hi = np.asarray(breakpoints, dtype=float)
    lengths = np.diff(np.concatenate(([0.0], hi)))
    mods = np.asarray(mods, dtype=float)
    order = np.argsort(-mods, kind="stable")
    live = order[mods[order] > 0]
    return weighted_step(np.cumsum(lengths[live]), mods[live], p, q)


def level_measure(breakpoints, mods, alpha: float) -> float:
    """lambda{|f| > alpha} of a plain step function, as an exact sum."""
    hi = np.asarray(breakpoints, dtype=float)
    lengths = np.diff(np.concatenate(([0.0], hi)))
    return math.fsum(lengths[np.asarray(mods, dtype=float) > alpha].tolist())


# ---------------------------------------------------------------------------
# Window ratios of (headed) step functions, sampled.
# ---------------------------------------------------------------------------


class StepRef:
    """A (headed) step function held as arrays, with its jumps.

    ``mods`` are the step moduli: one per breakpoint without a head, one fewer
    with a head (the head covers (0, x_1]).  Jumps follow the window
    convention of the GM scans: a jump at p counts toward [a, b] iff
    a <= p < b; the rise at 0 of a headless function counts nowhere."""

    def __init__(self, breakpoints, mods, head=None):
        self.bps = np.asarray(breakpoints, dtype=float)
        self.head = head
        mods = np.asarray(mods, dtype=float)
        if head is None:
            self.lo = np.concatenate(([0.0], self.bps[:-1]))
            self.hi = self.bps
            self.x1 = 0.0
        else:
            self.lo, self.hi = self.bps[:-1], self.bps[1:]
            self.x1 = float(self.bps[0])
        self.mods = mods
        nxt = np.append(mods[1:], 0.0)
        sizes = np.abs(nxt - mods)
        points = self.hi.copy()
        if head is not None:
            c, g = head
            first = mods[0] if len(mods) else 0.0
            points = np.concatenate(([self.x1], points))
            sizes = np.concatenate(([abs(first - c * self.x1**g)], sizes))
        self.jump_at = points
        self.jump_cum = np.concatenate(([0.0], np.cumsum(sizes)))
        # int |f| dt/t over each full step piece, summed from x_1 (headed) or
        # from the first edge (headless), for the antiderivative below
        logs = np.where(self.mods > 0, self.mods * np.log(self.hi / np.maximum(self.lo, 1e-300)), 0.0)
        if head is None:
            logs[0] = 0.0  # F is measured from hi[0]; the first piece is partial
        self.log_cum = np.concatenate(([0.0], np.cumsum(logs)))

    def modulus(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        j = np.searchsorted(self.hi, x, side="left")  # first hi >= x
        inside = (j < len(self.hi)) & (x > self.lo[np.minimum(j, len(self.lo) - 1)])
        out[inside] = self.mods[j[inside]]
        if self.head is not None:
            c, g = self.head
            h = x <= self.x1
            out[h] = c * x[h] ** g
        return out

    def jumps_between(self, a, b) -> np.ndarray:
        """Sum of jumps at p with a <= p < b."""
        i = np.searchsorted(self.jump_at, a, side="left")
        k = np.searchsorted(self.jump_at, b, side="left")
        return np.where(k > i, self.jump_cum[k] - self.jump_cum[np.minimum(i, k)], 0.0)

    def head_rise(self, a, b) -> np.ndarray:
        """Variation of the head part over [a, b]."""
        if self.head is None:
            return np.zeros(np.shape(a))
        c, g = self.head
        top = np.minimum(b, self.x1)
        return np.where(a < top, c * (top**g - np.minimum(a, top) ** g), 0.0)

    def antiderivative(self, x) -> np.ndarray:
        """F(x) = int_r^x |f(t)| dt/t, with r = x_1 (headed) or the first
        breakpoint (headless); negative below r."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        if self.head is not None:
            c, g = self.head
            h = x <= self.x1
            out[h] = c * (x[h] ** g - self.x1**g) / g
        else:
            h = x <= self.hi[0]
            out[h] = self.mods[0] * np.log(x[h] / self.hi[0])
        rest = ~h
        xr = np.minimum(x[rest], self.hi[-1])
        j = np.searchsorted(self.hi, xr, side="left")  # piece holding xr
        part = self.mods[j] * np.log(xr / self.lo[j])
        out[rest] = self.log_cum[j] + part
        return out

    def gm_ratio(self, x) -> np.ndarray:
        """V_f([x, 2x]) / |f(x)|."""
        x = np.asarray(x, dtype=float)
        num = self.jumps_between(x, 2.0 * x) + self.head_rise(x, 2.0 * x)
        return _ratios(num, self.modulus(x))

    def gm1_ratio(self, x) -> np.ndarray:
        """sup_{x <= t <= 2x} |f(t)| / |f(x)|."""
        x = np.asarray(x, dtype=float)
        # pieces (lo, hi] meeting [x, 2x]: hi >= x and lo < 2x
        first = np.searchsorted(self.hi, x, side="left")
        last = np.searchsorted(self.lo, 2.0 * x, side="left")  # lo < 2x for j < last
        top = np.zeros(x.shape)
        for i in range(len(x)):
            if last[i] > first[i]:
                top[i] = np.max(self.mods[first[i] : last[i]])
        if self.head is not None:
            c, g = self.head
            h = x <= self.x1
            top[h] = np.maximum(top[h], c * np.minimum(2.0 * x[h], self.x1) ** g)
        return _ratios(top, self.modulus(x))

    def gm2_ratio(self, x, end) -> np.ndarray:
        """V_f([x, M]) / (|f(x)| + int_x^M |f| dt/t) for x < M."""
        x, end = np.asarray(x, dtype=float), np.asarray(end, dtype=float)
        num = self.jumps_between(x, end) + self.head_rise(x, end)
        den = self.modulus(x) + self.antiderivative(end) - self.antiderivative(x)
        return _ratios(num, den)


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num == 0.0, 0.0, np.where(den > 0.0, num / den, np.inf))
