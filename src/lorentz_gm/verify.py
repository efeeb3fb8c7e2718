"""Verification suites: each runs a seeded family through one certified claim
and returns pass/fail rows.

Every suite is deterministic in its seed argument.  Rows report the worst
margin observed over the family, so a passing table documents actual headroom
rather than a bare boolean.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .fourier import dirichlet_bound_report, duality_ratio, l1_log_weight_report, weak_l1_report
from .generate import random_gm_headed, random_gm_step, random_gms_seq, random_seq, random_step
from .gm import gm_constant_step, gms1_constant, gms2_constant, gms_constant, gms_scan, splice
from .hardy import hardy_report
from .interpolate import (
    gilbert_bracket,
    gilbert_functional,
    gms_decomposition,
    gms_decompositions,
    k_functional,
    k_functional_oracle,
)
from .model import (
    PQ,
    ComplexSeq,
    PowerHead,
    Sector,
    StepFunction,
    VerificationReport,
    make_report,
    sector_mask,
)
from .norms import equivalence_report, weighted_norm_seq
from .rearrange import distribution, left_limit, rearrange_seq, rearrange_step


def _rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.default_rng([seed, lane])


def suite_equimeasurability(seed: int = 42) -> list[VerificationReport]:
    """Level sets of f and its rearrangement have identical measure, exactly."""
    g = _rng(seed, 1)
    mismatches = 0
    for _ in range(1000):
        f = random_step(g)
        fs = rearrange_step(f)
        levels = list(g.uniform(0.0, 3.0, size=90))
        # hit the stored moduli exactly: ties are where sloppy comparisons leak
        mods = [abs(v) for v in f.values]
        levels += list(g.choice(mods, size=min(10, len(mods)), replace=True))
        for a in levels:
            if distribution(fs, float(a)) != distribution(f, float(a)):
                mismatches += 1
    return [make_report("equimeasurable-exact", float(mismatches), 0.0, 1.0)]


def suite_kfun(seed: int = 42) -> list[VerificationReport]:
    """Split-couple functional equals its grid oracle and its two-sum display."""
    g = _rng(seed, 2)
    worst = 0.0
    display_off = 0
    for _ in range(1000):
        c = random_seq(g, n_max=512)
        t = float(g.uniform(1e-4, 3.0))
        k = k_functional(c, t)
        oracle = k_functional_oracle(c, t)
        worst = max(worst, abs(k - oracle) / max(oracle, 1e-300))
        mods = c.moduli()
        head = t * math.fsum(m for n, m in enumerate(mods, 1) if 1.0 / n >= t)
        tail = math.fsum(m / n for n, m in enumerate(mods, 1) if 1.0 / n < t)
        if k != head + tail:
            display_off += 1
    return [
        make_report("k-matches-oracle", worst, 1e-12, 1.0),
        make_report("k-two-sum-display-exact", float(display_off), 0.0, 1.0),
    ]


_COST_WORKED = 325.0 / 168.0  # = 1.934524 at the printed precision
_K_WORKED = 1373.0 / 840.0  # = 1.634524


def suite_decompose(seed: int = 42) -> list[VerificationReport]:
    """Near-optimal splitting: cost within 9/2 of the functional, the bounded
    part stays in class and in sector, plus the c = 1 worked instance."""
    g = _rng(seed, 3)
    tgrid = np.logspace(-3.0, 1.0, 50)
    worst_ratio = 0.0
    worst_member = 0.0
    sector_bad = 0
    alpha, phi = 0.2, math.pi / 3.0
    sec = Sector(alpha, phi, 1e-9)
    for _ in range(200):
        c = random_gms_seq(g, n_max=256, alpha=alpha, phi=phi)
        b = gms_constant(c).constant
        parts = []  # every nonempty b of the draw, for one scan and one sector test
        for d in gms_decompositions(c, tgrid, alpha=alpha):
            worst_ratio = max(worst_ratio, d.ratio)
            if len(d.b):
                parts.append(d.b)
        batch = np.concatenate(parts)
        offsets = np.cumsum([0, *map(len, parts)])
        bb = np.maximum.reduceat(gms_scan(batch, offsets), offsets[:-1])  # each b's constant, or -1 for 0
        worst_member = max([worst_member, *(bb[np.isfinite(bb)] / (63.0 * b**4)).tolist()])
        sector_bad += int(np.count_nonzero(~np.logical_and.reduceat(sector_mask(batch, sec), offsets[:-1])))
    ones = ComplexSeq((1.0,) * 8)
    d = gms_decomposition(ones, 0.25)
    return [
        make_report("decompose-cost-within-9/2", worst_ratio, 4.5, 1.0),
        make_report("decompose-part-stays-bounded", worst_member, 1.0, 1.0),
        make_report("decompose-part-in-sector", float(sector_bad), 0.0, 1.0),
        make_report("decompose-worked-cost", abs(d.cost - _COST_WORKED), 1e-9, 1.0),
        make_report("decompose-worked-k", abs(d.k_value - _K_WORKED), 1e-9, 1.0),
    ]


def suite_splice(seed: int = 42) -> list[VerificationReport]:
    g = _rng(seed, 4)
    worst = 0.0
    for _ in range(500):
        a = random_gms_seq(g, n_max=96)
        c = random_gms_seq(g, n_max=96)
        n = int(g.integers(1, min(len(a), len(c)) + 1))
        sr = splice(a, c, n)
        if sr.predicted > 0 and math.isfinite(sr.measured.constant):
            worst = max(worst, sr.measured.constant / sr.predicted)
    return [make_report("splice-within-predicted", worst, 1.0, 1.0)]


def suite_inclusions(seed: int = 42) -> list[VerificationReport]:
    """Window-sum class sits inside the windowed-sup and tail-variation classes
    with constants 2B and 2B^2, and conversely inside 2*max(...)^2."""
    g = _rng(seed, 5)
    w_sup = w_tail = w_back = 0.0

    def probe(a) -> None:
        nonlocal w_sup, w_tail, w_back
        if isinstance(a, ComplexSeq):
            b, b1, b2 = (scan(a).constant for scan in (gms_constant, gms1_constant, gms2_constant))
        else:
            b, b1, b2 = (gm_constant_step(a, variant=v).constant for v in ("GM", "GM1", "GM2"))
        if math.isfinite(b) and b > 0:
            w_sup = max(w_sup, b1 / (2.0 * b))
            w_tail = max(w_tail, b2 / (2.0 * b * b))
        if all(map(math.isfinite, (b, b1, b2))) and max(b1, b2) > 0:
            w_back = max(w_back, b / (2.0 * max(b1, b2) ** 2))

    for _ in range(400):
        probe(random_gms_seq(g, n_max=128))
    kept = 0
    while kept < 100:  # short arbitrary draws that happen to have finite constants
        a = random_seq(g, n_max=10)
        if any(v == 0 for v in a.values) or not a.values:
            continue
        probe(a)
        kept += 1
    for _ in range(200):
        probe(random_gm_step(g, m_max=20, positive=False))

    return [
        make_report("inclusion-windowed-sup-2B", w_sup, 1.0, 1.0),
        make_report("inclusion-tail-variation-2B2", w_tail, 1.0, 1.0),
        make_report("inclusion-back-2max2", w_back, 1.0, 1.0),
    ]


def suite_pointwise(seed: int = 42) -> list[VerificationReport]:
    """|c_n| <= B1 * c*_{floor(n/2)+1} and |f(x)| <= B1 * f*((x/2)-)."""
    g = _rng(seed, 6)
    bad = 0
    for _ in range(300):
        c = random_gms_seq(g, n_max=128)
        b1 = gms1_constant(c).constant
        cs = rearrange_seq(c)
        for n in range(1, len(c) + 1):
            if abs(c[n]) > b1 * abs(cs[n // 2 + 1]) * (1.0 + 1e-12):
                bad += 1
    for _ in range(200):
        f = random_gm_step(g, m_max=20, positive=False)
        b1 = gm_constant_step(f, variant="GM1").constant
        if not math.isfinite(b1):
            continue
        fs = rearrange_step(f)
        # both sides are constant on the left-open cells between consecutive
        # points of {x_j} u {2 y_k}, so each cell's right end decides it
        for x in sorted({*f.breakpoints, *(2.0 * y for y in fs.breakpoints)}):
            if abs(f.eval(x)) > b1 * left_limit(fs, x / 2.0) * (1.0 + 1e-12):
                bad += 1
                break
    return [make_report("pointwise-rearrangement-bounds", float(bad), 0.0, 1.0)]


_EQUIV_PQS = (PQ(1, 2), PQ(2, 1), PQ(2, 2), PQ(3, 0.5), PQ(2, math.inf))


def suite_norms(seed: int = 42) -> list[VerificationReport]:
    """Four-norm equivalence rows across the pq lattice, all at once."""
    g = _rng(seed, 7)
    worst: dict[str, float] = {}
    fails = 0
    for _ in range(200):
        f = random_gm_step(g, m_max=22, positive=False)
        b1 = gm_constant_step(f, variant="GM1").constant
        if not math.isfinite(b1):
            continue
        for pq in _EQUIV_PQS:
            for row in equivalence_report(f, pq, b1):
                if not row.passed:
                    fails += 1
                if row.rhs > 0 and row.constant > 0:
                    m = row.lhs / (row.constant * row.rhs)
                    worst[row.name] = max(worst.get(row.name, 0.0), m)
    rows = [make_report("equivalence-rows-all-pass", float(fails), 0.0, 1.0)]
    for name in sorted(worst):
        rows.append(make_report(f"margin:{name}", worst[name], 1.0, 1.0))
    return rows


def suite_fourier(seed: int = 42) -> list[VerificationReport]:
    """Partial-sum window bound on arbitrary coefficients; L1 and weak-L1
    bounds on tail-variation-bounded families."""
    g = _rng(seed, 8)
    xs = tuple(np.linspace(1e-3, math.pi, 400))
    worst_win = 0.0
    win_fails = 0
    for _ in range(60):
        c = random_seq(g, n_max=48)
        if len(c) < 2 or not any(c.values):
            continue
        m = int(g.integers(1, len(c)))
        rep = dirichlet_bound_report(c, m, len(c), xs, variant="plain")
        if not rep.passed:
            win_fails += 1
        if rep.rhs > 0:
            worst_win = max(worst_win, rep.lhs / (rep.constant * rep.rhs))

    worst_l1 = 0.0
    weak_fails = 0
    worst_weak = 0.0
    for _ in range(100):
        c = random_gms_seq(g, n_max=512)
        b2 = gms2_constant(c).constant
        worst_l1 = max(worst_l1, l1_log_weight_report(c, b2=b2).ratio)
        w = weak_l1_report(c, b2=b2)
        if not w.passed:
            weak_fails += 1
        if w.rhs > 0:
            worst_weak = max(worst_weak, w.lhs / (w.constant * w.rhs))
    return [
        make_report("window-bound-all-pass", float(win_fails), 0.0, 1.0),
        make_report("margin:window-bound", worst_win, 1.0, 1.0),
        make_report("l1-log-weight-bound", worst_l1, 1.0, 1.0),
        make_report("weak-l1-all-pass", float(weak_fails), 0.0, 1.0),
        make_report("margin:weak-l1", worst_weak, 1.0, 1.0),
    ]


def suite_hardy(seed: int = 42) -> list[VerificationReport]:
    """Averaging-transform inequality: exact worked ratio, then the (alpha, q)
    lattice over a seeded family, gated on the classical 1/alpha for q >= 1 (an
    identity at q = 1) and on the frozen envelope at q = 1/2."""
    worked = StepFunction((1.0,), (), PowerHead(1.0, 1.0))
    worked_err = abs(hardy_report(worked, 0.5, 2.0).ratio - math.sqrt(2.0))

    g = _rng(seed, 9)
    fails = 0
    worst_env = worst_q1 = worst_classical = 0.0
    for _ in range(100):
        f = random_gm_headed(g)
        for a in (0.25, 0.5, 1.0, 2.0):
            for q in (0.5, 1.0, 2.0, math.inf):
                rep = hardy_report(f, a, q)
                if not rep.passed or not math.isfinite(rep.ratio):
                    fails += 1
                elif not 0.0 < rep.rhs < math.inf:
                    continue  # vacuous: no ratio to compare
                elif q < 1.0:
                    worst_env = max(worst_env, rep.ratio / rep.constant)
                elif q == 1.0:
                    worst_q1 = max(worst_q1, abs(rep.ratio * a - 1.0))
                else:
                    worst_classical = max(worst_classical, rep.ratio * a)
    return [
        make_report("hardy-worked-ratio-sqrt2", worked_err, 1e-10, 1.0),
        make_report("hardy-lattice-all-pass", float(fails), 0.0, 1.0),
        make_report("margin:hardy-envelope", worst_env, 1.0, 1.0),
        make_report("hardy-q1-identity", worst_q1, 1e-12, 1.0),
        make_report("margin:hardy-classical", worst_classical, 1.0, 1.0),
    ]


_DUALITY_PQS = (PQ(2, 2), PQ(3, 1), PQ(1.5, math.inf))


def suite_duality(seed: int = 42) -> list[VerificationReport]:
    """Coefficient-norm vs function-norm ratio: stable across truncation
    length within a factor-2 bracket, certified at both ends."""
    rows = []
    for beta in (0.3, 0.5, 0.8):
        c = ComplexSeq(tuple(k**-beta for k in range(1, 257)))
        for pq in _DUALITY_PQS:
            reps = [duality_ratio(c, pq, n) for n in (64, 128, 256)]  # c cut at n
            spread = max(r.ratio for r in reps) / min(r.constant for r in reps)
            q_tag = "inf" if math.isinf(pq.q) else f"{pq.q:g}"
            name = f"duality-b{beta:g}-p{pq.p:g}-q{q_tag}"
            rows.append(make_report(name, spread, 2.0, 1.0))
    return rows


def suite_gilbert(seed: int = 42) -> list[VerificationReport]:
    g = _rng(seed, 10)
    bad = 0
    lo_margin = math.inf
    hi_margin = 0.0
    thetas, qs = (0.25,) * 3 + (0.5,) * 3 + (0.75,) * 3, (0.5, 1.0, 2.0) * 3
    for _ in range(200):
        c = random_gms_seq(g, n_max=200)
        b1 = max(1.0, gms1_constant(c).constant)
        vals = gilbert_functional(c, thetas, qs)  # cells and windows built once
        norms = weighted_norm_seq(c, [PQ(1.0 / theta, q) for theta, q in zip(thetas, qs)])
        for theta, q, val, w in zip(thetas, qs, vals, norms):
            if w == 0.0:
                continue
            lo, hi = gilbert_bracket(theta, q, b1)
            r = val / w
            lo_margin = min(lo_margin, r / lo)
            hi_margin = max(hi_margin, r / hi)
            if not lo * (1.0 - 1e-9) <= r <= hi * (1.0 + 1e-9):
                bad += 1
    n = 4096
    c = ComplexSeq(tuple(1.0 / k for k in range(1, n + 1)))
    inst = gilbert_functional(c, 0.5, 2.0) / weighted_norm_seq(c, PQ(2, 2))
    return [
        make_report("gilbert-in-bracket", float(bad), 0.0, 1.0),
        make_report("margin:gilbert-upper", hi_margin, 1.0, 1.0),
        make_report("gilbert-worked-instance-lower", 0.5, inst, 1.0),
    ]


SUITES: dict[str, Callable[[int], list[VerificationReport]]] = {
    "equimeasurability": suite_equimeasurability,
    "kfun": suite_kfun,
    "decompose": suite_decompose,
    "splice": suite_splice,
    "inclusions": suite_inclusions,
    "pointwise": suite_pointwise,
    "norms": suite_norms,
    "fourier": suite_fourier,
    "hardy": suite_hardy,
    "duality": suite_duality,
    "gilbert": suite_gilbert,
}


def run_suites(names: list[str], seed: int = 42) -> dict[str, list[VerificationReport]]:
    out = {}
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        out[name] = SUITES[name](seed)
    return out
