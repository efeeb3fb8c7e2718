"""Trig partial sums, L1/weak-L1 sizes, duality ratio."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from lorentz_gm.fourier import (
    _cell_lorentz,
    _midpoint_cells,
    dirichlet_bound_report,
    duality_ratio,
    l1_log_weight_report,
    l1_norm_trig,
    partial_sum_dft,
    partial_sum_grid,
    weak_l1_report,
)
from lorentz_gm.generate import random_gms_seq, random_seq
from lorentz_gm.model import PQ, ComplexSeq
from lorentz_gm.norms import lorentz_norm_seq

E1 = ComplexSeq((1.0,))


def partial_sum(c: ComplexSeq, m: int, n_hi: int, x: float) -> complex:
    """sum_{k=m}^{n_hi} c_k e^{ikx} by direct summation: the scalar oracle of
    the fast kernels."""
    if not 1 <= m <= n_hi:
        raise ValueError("need 1 <= m <= N")
    re = math.fsum((c[k] * cmath.exp(1j * k * x)).real for k in range(m, n_hi + 1))
    im = math.fsum((c[k] * cmath.exp(1j * k * x)).imag for k in range(m, n_hi + 1))
    return complex(re, im)


def test_partial_sum_direct():
    c = ComplexSeq((1.0, 2.0, 3.0))
    x = 0.7
    expect = 2.0 * cmath.exp(2j * x) + 3.0 * cmath.exp(3j * x)
    assert partial_sum(c, 2, 3, x) == pytest.approx(expect)
    with pytest.raises(ValueError):
        partial_sum(c, 0, 3, x)
    with pytest.raises(ValueError):
        partial_sum(c, 3, 2, x)


def test_partial_sum_grid_matches_scalar():
    c = ComplexSeq((1.0, -0.5, 0.25j, 0.1))
    xs = np.array([0.1, 1.0, 2.5, math.pi])
    grid = partial_sum_grid(c, 1, 4, xs)
    for x, g in zip(xs, grid):
        assert g == pytest.approx(partial_sum(c, 1, 4, float(x)), rel=1e-12)
    shaped = partial_sum_grid(c, 1, 4, xs.reshape(2, 2))
    assert shaped.shape == (2, 2)


def test_fast_kernels_match_scalar_partial_sum():
    g = np.random.default_rng(7)
    for n in (1, 3, 48, 512, 4096):
        c = ComplexSeq(tuple(g.normal(size=n) + 1j * g.normal(size=n)))
        m = int(g.integers(1, n + 1))
        tol = 1e-12 * math.fsum(c.moduli()[m - 1 :])
        xs = g.uniform(-2.0 * math.pi, 2.0 * math.pi, 16)
        for x, s in zip(xs, partial_sum_grid(c, m, n, xs)):
            assert abs(s - partial_sum(c, m, n, float(x))) <= tol
        # count = 5 puts N > 2*count for N >= 11, so c_k folds mod 10
        for count in (5, 64):
            step = math.pi / count
            for midpoint in (False, True):
                samples = partial_sum_dft(c, m, n, count, midpoint)
                assert samples.shape == (count,)
                js = np.arange(1, count + 1)[:: max(1, count // 8)]
                for j in js:
                    x = (j - 0.5 if midpoint else j) * step
                    assert abs(samples[j - 1] - partial_sum(c, m, n, x)) <= tol
    with pytest.raises(ValueError):
        partial_sum_dft(E1, 1, 1, 0)
    with pytest.raises(ValueError):
        partial_sum_dft(E1, 2, 1, 4)


def test_l1_norm_closed_forms():
    assert l1_norm_trig(E1) == pytest.approx(math.pi, abs=1e-8)
    # |e^{ix} + e^{2ix}| = 2 cos(x/2) on (0, pi): integral 4
    assert l1_norm_trig(ComplexSeq((1.0, 1.0))) == pytest.approx(4.0, rel=1e-7)
    assert l1_norm_trig(ComplexSeq((0.0,))) == 0.0
    with pytest.raises(ValueError):
        l1_norm_trig(E1, tol=0.0)


def test_l1_log_weight_report_closed_form():
    # c = (1, 1/2, 1/3) is decreasing, so its double-window tail constant
    # is at most 1 and B = 1
    c = ComplexSeq((1.0, 0.5, 1.0 / 3.0))
    r = l1_log_weight_report(c)
    rhs = 2.0 * math.pi + 27.0 * math.pi * (0.5 * math.log(2.0) / 2.0 + math.log(3.0) / 9.0)
    assert r.name == "l1-log-weight-bound" and r.passed
    assert r.rhs == pytest.approx(rhs, rel=1e-15)
    assert r.lhs == l1_norm_trig(c) and r.ratio == r.lhs / r.rhs


def _weak_sup(levels: np.ndarray) -> float:
    """max_r u_(r) r h over the values ``levels`` of equal cells spanning
    (0, pi], sorted down: the weak-L1 quantity of that step function."""
    ranks = np.arange(1, levels.size + 1) * (math.pi / levels.size)
    return float(np.max(np.sort(levels)[::-1] * ranks))


def _weak_l1_lower(c: ComplexSeq, count: int) -> float:
    """The certified lower end of the weak-L1 bracket: |f| > alpha on every
    cell where v_j - delta_j > alpha."""
    v, delta = _midpoint_cells(c, count)
    return _weak_sup(np.maximum(v - delta, 0.0))


def _weak_l1_by_doubling(c: ComplexSeq, count: int = 1 << 16) -> float:
    """The sampled weak-L1 estimate before the bracket: the endpoint grid
    i pi / count doubles until the estimate moves by < 0.1%."""
    n = len(c)
    pool = np.abs(partial_sum_dft(c, 1, n, count))
    best = _weak_sup(pool)
    while count < (1 << 22):
        pool = np.concatenate([pool, np.abs(partial_sum_dft(c, 1, n, count, midpoint=True))])
        count *= 2
        nxt = _weak_sup(pool)
        moved = abs(nxt - best) / max(abs(nxt), 1e-300)
        best = nxt
        if moved < 1e-3:
            break
    return best


def _fine_midpoints(c: ComplexSeq, count: int = 1 << 18) -> np.ndarray:
    return np.abs(partial_sum_dft(c, 1, len(c), count, midpoint=True))


def _lorentz_by_doubling(c: ComplexSeq, pq: PQ, count: int = 1 << 14) -> float:
    """The sampled function-side Lorentz norm before the bracket: the midpoint
    grid doubles until the value drifts by < 1%."""

    def empirical(count: int) -> float:
        return _cell_lorentz(_fine_midpoints(c, count), pq)

    value = empirical(count)
    while count < (1 << 21):
        count *= 2
        nxt = empirical(count)
        drift = abs(nxt - value) / max(abs(nxt), 1e-300)
        value = nxt
        if drift < 0.01:
            break
    return value


def _fourier_suite_draws(seed: int) -> list[ComplexSeq]:
    """The fourier suite's random_gms_seq draws, after its window draws."""
    g = np.random.default_rng([seed, 8])
    for _ in range(60):
        c = random_seq(g, n_max=48)
        if len(c) >= 2 and any(c.values):
            g.integers(1, len(c))
    return [random_gms_seq(g, n_max=512) for _ in range(100)]


def test_weak_l1_spike():
    # |f| = 1 and |f'| = 1, so the bracket is pi (1 +- delta) with delta ~ h/2
    for count in (1 << 10, 1 << 11):
        h = math.pi / count
        r = weak_l1_report(E1, x_samples=count)
        assert r.passed
        lower = _weak_l1_lower(E1, count)
        assert lower <= math.pi <= r.lhs
        assert r.lhs - lower == pytest.approx(math.pi * h, rel=1e-3)
        assert r.rhs == 1.0
        assert r.constant == pytest.approx(6.0 * math.pi)


def test_default_cell_count_follows_the_length():
    counts = [_midpoint_cells(ComplexSeq((1.0,) * n))[0].size for n in (1, 128, 129, 512, 2048)]
    assert counts == [1 << 13, 1 << 13, 1 << 14, 1 << 15, 1 << 17]
    # 4096 ones: the Taylor term (h^2/8) sum k^2, linear in N at h N = pi/64,
    # keeps the bracket within 30% of its lower end
    ones = ComplexSeq((1.0,) * 4096)
    r = weak_l1_report(ones)
    assert r.passed
    assert r.lhs <= 1.3 * _weak_l1_lower(ones, 1 << 18)
    cut = ComplexSeq(tuple(k**-0.3 for k in range(1, 1025)))
    d = duality_ratio(cut, PQ(2.0, 2.0), 1024)
    assert d.passed and d.ratio <= 1.05 * d.constant


def test_midpoint_samples_meet_their_rounding_allowance():
    # the error of each FFT pass against 30-digit sums stays within the
    # 8 eps (L + t) l1 allowance that _midpoint_cells adds to delta
    g = np.random.default_rng(3)
    eps = float(np.finfo(float).eps)
    mpmath.mp.dps = 30
    for n, count in ((40, 1 << 10), (700, 16), (2000, 1 << 6)):
        coeffs = g.normal(size=n) + 1j * g.normal(size=n)
        ks = np.arange(1, n + 1)
        size = 2 * count
        allowance = 8.0 * eps * (math.log2(size) + math.ceil(n / size))
        for terms in (coeffs, 1j * ks * coeffs):
            c = ComplexSeq(tuple(terms))
            samples = partial_sum_dft(c, 1, n, count, midpoint=True)
            exact_terms = [mpmath.mpc(t.real, t.imag) for t in terms]
            for j in range(1, count + 1, max(1, count // 6)):
                x = (mpmath.mpf(j) - mpmath.mpf(1) / 2) * mpmath.pi / count
                exact = mpmath.fsum(t * mpmath.expj(k * x) for k, t in enumerate(exact_terms, 1))
                assert abs(complex(exact) - samples[j - 1]) <= allowance * float(np.sum(np.abs(terms)))


def test_brackets_hold_the_old_estimates_and_a_fine_sample():
    # small random sequences, a fifth of the fourier suite's seed-42 draws and
    # the duality suite's sequences, each with its 2^18-midpoint sample
    g = np.random.default_rng(11)
    small = [c for c in (random_seq(g, n_max=16) for _ in range(30)) if any(c.values)]
    cases = [(c, [PQ(float(g.uniform(1.2, 4.0)), float(g.choice([0.5, 1.0, 2.0, math.inf])))]) for c in small]
    cases += [(c, []) for c in _fourier_suite_draws(42)[::5]]
    cases += [(ComplexSeq(tuple(k**-beta for k in range(1, n + 1))), [PQ(2, 2), PQ(3, 1), PQ(1.5, math.inf)])
              for beta in (0.3, 0.5, 0.8) for n in (64, 128, 256)]
    for c, pqs in cases:
        fine = _fine_midpoints(c)
        upper = weak_l1_report(c).lhs
        lower = _weak_l1_lower(c, 1 << 13)
        for estimate in (_weak_l1_by_doubling(c), _weak_sup(fine)):
            assert lower <= estimate <= upper
        for pq in pqs:
            r = duality_ratio(c, pq, len(c))
            seq = lorentz_norm_seq(c, pq.with_conjugate_p())
            for fn in (_lorentz_by_doubling(c, pq), _cell_lorentz(fine, pq)):
                assert r.constant * (1.0 - 1e-12) <= seq / fn <= r.ratio * (1.0 + 1e-12)


def test_l1_norm_meets_its_tolerance_on_a_draw_of_many_periods():
    # the 41st draw at seed 1: 16-node seed panels spanning several periods
    # of e^{38ix} agreed by accident and left the value 1.8e-7 off
    c = _fourier_suite_draws(1)[40]
    assert len(c) == 38
    panels = 1 << 19
    h = math.pi / panels
    coeffs = np.asarray(c.values)
    ks = np.arange(1, len(c) + 1)

    def slope(x: float) -> float:
        f, df = np.sum(coeffs * np.exp(1j * ks * x)), np.sum(1j * ks * coeffs * np.exp(1j * ks * x))
        return float((np.conj(f) * df).real / abs(f))

    # midpoint rule with its Euler-Maclaurin endpoint term h^2/24 (g'(pi) - g'(0))
    oracle = h * math.fsum(_fine_midpoints(c, panels).tolist()) + h * h / 24.0 * (slope(math.pi) - slope(0.0))
    assert l1_norm_trig(c, tol=1e-8) == pytest.approx(oracle, rel=1e-8)


def test_weak_l1_zero_and_validation():
    assert weak_l1_report(ComplexSeq((0.0,))).passed
    with pytest.raises(ValueError):
        weak_l1_report(E1, x_samples=1)


def test_dirichlet_report_plain_spike():
    r = dirichlet_bound_report(E1, 1, 1, [math.pi / 2.0], "plain")
    assert r.name == "window-variation-bound"
    assert r.lhs == pytest.approx(1.0)
    assert r.constant == pytest.approx(4.0 * math.pi)
    assert r.passed


def test_dirichlet_report_gm2_window():
    c = ComplexSeq((1.0,) * 8)
    xs = np.linspace(1e-3, math.pi, 200)
    r = dirichlet_bound_report(c, 2, 8, xs, "gm2")
    assert r.name == "window-tail-bound"
    assert r.passed


def test_dirichlet_report_validation():
    with pytest.raises(ValueError):
        dirichlet_bound_report(E1, 1, 1, [], "plain")
    with pytest.raises(ValueError):
        dirichlet_bound_report(E1, 1, 1, [4.0], "plain")
    with pytest.raises(ValueError):
        dirichlet_bound_report(E1, 1, 1, [-0.1], "plain")
    with pytest.raises(ValueError):
        dirichlet_bound_report(E1, 1, 1, [1.0], "hybrid")


def test_duality_ratio_power_sequence():
    c = ComplexSeq(tuple(1.0 / math.sqrt(k) for k in range(1, 65)))
    r = duality_ratio(c, PQ(2.0, 2.0), 64, grid=1 << 10)
    assert r.passed
    assert r.ratio == r.lhs / r.rhs
    assert 0.5 < r.constant < r.ratio < 0.65  # the two ends of the ratio
    coarse = duality_ratio(c, PQ(2.0, 2.0), 64, grid=1 << 8)
    assert coarse.constant < r.constant and r.ratio < coarse.ratio  # a finer grid narrows it


def test_duality_ratio_validation():
    with pytest.raises(ValueError):
        duality_ratio(E1, PQ(1.0, 1.0), 1)
    with pytest.raises(ValueError):
        duality_ratio(E1, PQ(2.0, 2.0), 1, grid=1)
    z = duality_ratio(ComplexSeq((0.0, 0.0)), PQ(2.0, 2.0), 2)
    assert z.passed and z.lhs == 0.0 and math.isnan(z.ratio)
