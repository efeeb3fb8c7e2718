"""Seeded input families for the property suites.

Every family draws from a ``numpy.random.Generator``, so a fixed seed
reproduces the exact inputs byte for byte.  The monotone-ish families are
built from cumulative small relative perturbations whose per-index step size
shrinks like 1/k; that keeps each window's variation a bounded multiple of
the local value by construction.  Callers must still re-measure whatever
constant they rely on — the construction gives headroom, not a certificate.
"""

from __future__ import annotations

import math

import numpy as np

from .gm import gm_constant_step, gms_constant
from .model import ComplexSeq, PowerHead, StepFunction


def rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_seq(gen: np.random.Generator, n_max: int = 64) -> ComplexSeq:
    """Arbitrary complex sequence with occasional exact zeros and tied moduli."""
    n = int(gen.integers(1, n_max + 1))
    vals = gen.normal(size=n) + 1j * gen.normal(size=n)
    vals[gen.random(n) < 0.1] = 0.0
    if n >= 4 and gen.random() < 0.3:
        i, j = gen.integers(0, n, size=2)
        vals[j] = vals[i]  # duplicate to exercise tie handling downstream
    return ComplexSeq(tuple(vals))


def random_step(gen: np.random.Generator, m_max: int = 12) -> StepFunction:
    """Arbitrary complex step function; moduli collide ~30% of the time."""
    m = int(gen.integers(1, m_max + 1))
    gaps = gen.uniform(0.05, 2.0, size=m)
    bps = np.cumsum(gaps)
    vals = gen.normal(size=m) + 1j * gen.normal(size=m)
    vals[gen.random(m) < 0.15] = 0.0
    if m >= 3 and gen.random() < 0.3:
        i, j = gen.integers(0, m, size=2)
        vals[j] = vals[i] * np.exp(1j * gen.uniform(0, 2 * math.pi))
    return StepFunction(tuple(bps), tuple(vals))


def _walk_moduli(gen: np.random.Generator, n: int, scale: float) -> np.ndarray:
    # relative steps ~ scale/k keep every dyadic window's variation O(value)
    k = np.arange(1, n)
    steps = gen.uniform(-1.0, 1.0, size=n - 1) * scale / k
    drops = gen.random(n - 1) < 0.04
    steps[drops] -= math.log(2.0) * gen.uniform(0.3, 1.0, size=int(drops.sum()))
    return np.exp(np.concatenate(([0.0], np.cumsum(steps))))


def random_gms_seq(
    gen: np.random.Generator,
    n_max: int = 256,
    alpha: float = 0.0,
    phi: float = 0.0,
    b_cap: float = 8.0,
) -> ComplexSeq:
    """Sequence with finite window-variation constant, re-measured <= b_cap.

    Moduli follow a multiplicative random walk with 1/k step decay plus rare
    discrete drops; arguments stay inside the sector [alpha - phi, alpha + phi]
    with phase increments that also decay like 1/k.  If a draw measures above
    b_cap the step scale is damped and the draw repeated.
    """
    n = int(gen.integers(8, n_max + 1))
    scale = 1.2
    for _ in range(8):
        moduli = _walk_moduli(gen, n, scale)
        if phi > 0.0:
            k = np.arange(1, n)
            dphase = gen.uniform(-1.0, 1.0, size=n - 1) * min(phi, scale / 2.0) / k
            phases = alpha + np.clip(np.concatenate(([0.0], np.cumsum(dphase))), -phi, phi)
        else:
            phases = np.full(n, alpha)
        seq = ComplexSeq(tuple(moduli * np.exp(1j * phases)))
        if gms_constant(seq).constant <= b_cap:
            return seq
        scale *= 0.6
    raise RuntimeError("could not draw a sequence under the requested constant cap")


def random_gm_step(
    gen: np.random.Generator,
    m_max: int = 24,
    positive: bool = True,
    b_cap: float = 8.0,
) -> StepFunction:
    """Positive step function with finite doubling-variation constant <= b_cap.

    Breakpoints are a jittered geometric grid, so each octave [x, 2x] meets a
    bounded number of jumps; values move by |delta ln| <= 0.3 per piece.
    """
    m = int(gen.integers(3, m_max + 1))
    jitter = 0.3
    for _ in range(8):
        ratios = gen.uniform(1.25, 2.2, size=m)
        bps = gen.uniform(0.2, 1.0) * np.cumprod(ratios)
        steps = gen.uniform(-jitter, jitter, size=m - 1)
        vals = np.exp(np.concatenate(([0.0], np.cumsum(steps))))
        if not positive:
            vals = vals * np.exp(1j * gen.uniform(-0.3, 0.3, size=m))
        f = StepFunction(tuple(bps), tuple(vals))
        if gm_constant_step(f).constant <= b_cap:
            return f
        jitter *= 0.6
    raise RuntimeError("could not draw a step function under the requested constant cap")


def random_gm_headed(
    gen: np.random.Generator,
    m_max: int = 16,
    b_cap: float = 12.0,
) -> StepFunction:
    """Power head glued to a gently varying positive step, constant <= b_cap."""
    base = random_gm_step(gen, m_max=m_max, positive=True, b_cap=b_cap / 2.0)
    gamma = float(gen.uniform(0.3, 3.0))
    x1 = base.breakpoints[0]
    # the head replaces the first piece; match it there with mild jitter so the
    # junction jump stays comparable to the ordinary piece-to-piece steps
    c = abs(base.values[0]) * float(gen.uniform(0.8, 1.25)) / x1**gamma
    tail = base.values[1:]
    f = StepFunction(base.breakpoints, tail, PowerHead(c, gamma))
    if gm_constant_step(f).constant <= b_cap:
        return f
    return StepFunction(
        base.breakpoints, tail, PowerHead(abs(base.values[0]) / x1**gamma, gamma)
    )


def random_sector_values(
    gen: np.random.Generator, n: int, alpha: float, phi: float
) -> list[complex]:
    """Nonzero values with arguments in [alpha - phi, alpha + phi]."""
    moduli = gen.uniform(0.1, 3.0, size=n)
    args = alpha + gen.uniform(-phi, phi, size=n)
    return [complex(m * math.cos(a), m * math.sin(a)) for m, a in zip(moduli, args)]
