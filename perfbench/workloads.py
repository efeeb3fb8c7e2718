"""The benchmark's three workloads: their inputs, operations and output checks.

A workload is built from the imported package and the seed (that is its
set-up).  ``ops()`` lists the operations of one round; each has a ``run``
that calls the program and a ``check`` that returns ``None`` for a correct
output or a one-line reason.  Checks compare against :mod:`reference`,
never against a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

# verify-core: the suites with their own end-to-end timing; the other five
# count in wall_s and get a per-layer timing.
TIMED_SUITES = ("decompose", "duality", "kfun", "inclusions", "hardy")
OTHER_SUITES = ("equimeasurability", "splice", "pointwise", "norms", "gilbert")

# trig-sums: of the suite's 100 GMS draws, the one nearest each target length.
# Evaluation cost grows with the length, so fixed targets keep a round's cost
# steady across seeds.
TRIG_TARGETS = (60, 140, 220, 300, 380, 460)
L1_REL_TOL = 1e-8  # the tolerance l1_norm_trig is asked for, against the FFT midpoint rule
WINDOW_REL_TOL = 1e-9

# cli-large
SEQ_SIZES = (4096, 32768)
# `gm --seq` runs on fixed draws, not on --seed's.  gms_constant takes each
# window sum as a difference of one global prefix sum, and misses the exact
# window sum by more than 1e-12 relative on some draws only; an operation that
# failed on some seeds only would make the failed share differ between runs.
# The N = 4096 draw from this lane is one it misses (by 3.3e-12), so the fault
# shows as one failed operation in every round.  N = 32768 is left out: the
# O(N^2) gms2_constant would take about 16 s there.
GM_SEQ_LANE = (12, 100)
GM_SEQ_SIZES = (4096, 1024)
GM_SEQ_FAULT = r"gms [^;]*"  # the only mismatch the known fault may cause
PLAIN_FN_SIZES = (4096, 8192, 16384)  # three sizes for the rearrange_step slope
HEADED_FN_SIZES = (4096, 16384)
GM_FN_SIZES = (64, 128, 256)
GM_HEADED_SIZE = 128
NORM_P, NORM_Q = 2.0, 1.5
T_GRID = "1e-4:10:50"
DECOMPOSE_GRID = "1e-3:10:50"
INTERP_THETA, INTERP_Q = 0.5, 2.0
INTERP_REL_TOL = 1e-7  # interpolation_norm at the CLI's 1e-8 against the Gauss log-grid rule
HARDY_ALPHA, HARDY_Q = 0.5, 2.0


@dataclass
class Op:
    """One operation: a program call whose time counts toward ``group``.

    ``out`` is the file the call writes; the round moves it aside after the
    call and hands ``check`` the pair (result, kept path).  A failure whose
    reason matches ``known_fault`` in full is a known program fault: it counts
    as failed but leaves the run's ``correct`` true."""

    name: str
    group: str | None
    run: Callable[[], object]
    check: Callable[[object], str | None]
    out: str | None = None
    known_fault: str | None = None

    def is_known(self, reason: str) -> bool:
        return self.known_fault is not None and re.fullmatch(self.known_fault, reason) is not None


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def run_cli(pkg, argv: list[str]) -> int:
    """cli.main in-process, its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return pkg.cli.main(argv)


def _read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines() if line and not line.startswith("#")]


def _cli_op(pkg, name, group, argv, check_file, known_fault=None) -> Op:
    def check(result):
        code, path = result
        if code != 0:
            return f"exit code {code}"
        return check_file(path) if path else "no output written"

    return Op(name, group, lambda: run_cli(pkg, argv), check, out=argv[argv.index("--out") + 1],
              known_fault=known_fault)


# ---------------------------------------------------------------------------
# verify-core
# ---------------------------------------------------------------------------


class VerifyCore:
    """The ten suites other than fourier, each through ``verify --suite``."""

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg, self.seed, self.workdir = pkg, seed, workdir
        self.suites = sorted(TIMED_SUITES + OTHER_SUITES)

    def group(self, suite: str) -> str:
        return f"suite_s.{suite}" if suite in TIMED_SUITES else f"verify.{suite}.s"

    def check_csv(self, path: str) -> str | None:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != f"# seed={self.seed}":
            return "missing seed line"
        rows = [line.split(",") for line in lines[2:]]
        if not rows:
            return "no rows"
        bad = [r[1] for r in rows if r[-1] != "true"]
        return f"failing rows {bad}" if bad else None

    def ops(self) -> list[Op]:
        return [
            _cli_op(
                self.pkg, suite, self.group(suite),
                ["verify", "--suite", suite, "--seed", str(self.seed),
                 "--out", os.path.join(self.workdir, f"{suite}.csv")],
                self.check_csv,
            )
            for suite in self.suites
        ]


# ---------------------------------------------------------------------------
# trig-sums
# ---------------------------------------------------------------------------


class TrigSums:
    """The fourier suite's three report kinds on a seeded slice of its draws.

    The draws are the suite's own, from its generator lane: its 60 window
    draws (random_seq, n_max=48), then its 100 random_gms_seq(n_max=512)
    draws, of which the one nearest each of TRIG_TARGETS in length is kept."""

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg = pkg
        gen = pkg.generate
        g = np.random.default_rng([seed, 8])
        self.windows = []
        for _ in range(60):
            c = gen.random_seq(g, n_max=48)
            if len(c) < 2 or not any(c.values):
                continue
            self.windows.append((c, int(g.integers(1, len(c)))))
        draws = [gen.random_gms_seq(g, n_max=512) for _ in range(100)]
        self.gms = [min(draws, key=lambda c: abs(len(c) - n)) for n in TRIG_TARGETS]
        self.xs = tuple(np.linspace(1e-3, math.pi, 400))
        self._l1_ref: dict[int, float] = {}

    def l1_ref(self, i: int) -> float:
        if i not in self._l1_ref:
            self._l1_ref[i] = ref.l1_trig_midpoint(np.asarray(self.gms[i].values))
        return self._l1_ref[i]

    def check_window(self, c, m: int, rep) -> str | None:
        if not rep.passed:
            return "window bound row fails"
        vals = np.asarray(c.values, dtype=complex)
        xs = np.asarray(self.xs)
        lhs = np.abs(ref.trig_horner(vals[m - 1 :], m, xs))
        diffs = np.abs(np.diff(vals[m - 1 :]))
        base = abs(vals[m - 1]) / 2.0 + math.fsum(diffs.tolist())
        rhs = base / xs
        j = int(np.argmin(np.abs(rhs - rep.rhs)))
        if _rel(rhs[j], rep.rhs) > 1e-12:
            return f"window rhs {rep.rhs!r} is on no grid point"
        if _rel(lhs[j], rep.lhs) > WINDOW_REL_TOL:
            return f"window lhs {rep.lhs!r} != reference {lhs[j]!r}"
        margin = lhs - 4.0 * math.pi * rhs
        if margin[j] < margin.max() - WINDOW_REL_TOL * max(1.0, abs(margin.max())):
            return "reported point is not the worst grid point"
        return None

    def check_l1(self, i: int, value: float) -> str | None:
        mods = np.abs(np.asarray(self.gms[i].values))
        if _rel(value, self.l1_ref(i)) > L1_REL_TOL:
            return f"l1 {value!r} != reference {self.l1_ref(i)!r}"
        k = np.arange(1, len(mods) + 1, dtype=float)
        b = max(1.0, ref.gms2_sup(self.gms[i].values))
        bound = 2.0 * math.pi * mods[0] + 27.0 * math.pi * b * math.fsum((mods[1:] * np.log(k[1:]) / k[1:]).tolist())
        return None if value <= bound else f"l1 {value!r} above the log-weight bound {bound!r}"

    def check_weak(self, i: int, rep) -> str | None:
        if not rep.passed:
            return "weak-l1 row fails"
        mods = np.abs(np.asarray(self.gms[i].values))
        rhs = math.fsum((mods / np.arange(1, len(mods) + 1)).tolist())
        if _rel(rep.rhs, rhs) > 1e-12:
            return f"weak-l1 rhs {rep.rhs!r} != sum |c_k|/k {rhs!r}"
        if rep.lhs > self.l1_ref(i) * (1.0 + L1_REL_TOL):
            return f"weak-l1 {rep.lhs!r} above int|f| {self.l1_ref(i)!r} (Chebyshev)"
        return None

    def ops(self) -> list[Op]:
        fourier = self.pkg.fourier
        out = []
        for c, m in self.windows:
            out.append(Op(
                f"dirichlet N={len(c)}", "report_s.dirichlet",
                lambda c=c, m=m: fourier.dirichlet_bound_report(c, m, len(c), self.xs, variant="plain"),
                lambda rep, c=c, m=m: self.check_window(c, m, rep),
            ))
        for i, c in enumerate(self.gms):
            out.append(Op(
                f"l1_norm_trig N={len(c)}", "report_s.l1_trig",
                lambda c=c: fourier.l1_norm_trig(c, tol=1e-8),
                lambda v, i=i: self.check_l1(i, v),
            ))
            out.append(Op(
                f"weak_l1_report N={len(c)}", "report_s.weak_l1",
                lambda c=c: fourier.weak_l1_report(c),
                lambda rep, i=i: self.check_weak(i, rep),
            ))
        return out


# ---------------------------------------------------------------------------
# cli-large
# ---------------------------------------------------------------------------


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def make_sequence(g, n: int) -> np.ndarray:
    """Complex sequence with a power-law modulus and slowly turning phase;
    the perturbations decay like 1/k, so window constants stay bounded."""
    k = np.arange(1, n + 1, dtype=float)
    beta = g.uniform(0.4, 0.8)
    wobble = 0.3 * np.sin(g.uniform(0, 2 * math.pi) + 2.5 * np.log(k)) + g.uniform(-0.5, 0.5, n) / k
    phase = 0.3 * np.sin(g.uniform(0, 2 * math.pi) + 1.5 * np.log(k))
    return k**-beta * np.exp(wobble) * np.exp(1j * phase)


def make_long_step(g, m: int, headed: bool) -> dict:
    """m pieces of length in [0.5, 1.5] with a decaying modulus and ~2% tied
    moduli.  Plain: complex values.  Headed: nonnegative reals after a power
    head c x^gamma that starts near the first step value."""
    bps = np.cumsum(g.uniform(0.5, 1.5, m))
    mods = bps ** -g.uniform(0.2, 0.6) * np.exp(0.3 * np.sin(g.uniform(0, 2 * math.pi) + np.sqrt(bps)))
    tied = g.choice(m, size=m // 50, replace=False)
    mods[tied] = mods[g.choice(m, size=len(tied))]
    if not headed:
        vals = mods * np.exp(1j * g.uniform(-math.pi, math.pi, m))
        return {"breakpoints": bps.tolist(), "re": vals.real.tolist(), "im": vals.imag.tolist()}
    gamma = float(g.uniform(0.8, 2.0))
    c = float(mods[1] * g.uniform(0.8, 1.25) / bps[0] ** gamma)
    return {"breakpoints": bps.tolist(), "re": mods[1:].tolist(), "head": {"c": c, "gamma": gamma}}


def make_gm_step(g, m: int, headed: bool) -> dict:
    """Jittered geometric breakpoints and gently varying values, as in the
    package's doubling-variation families, so every GM constant is finite."""
    bps = g.uniform(0.2, 1.0) * np.cumprod(g.uniform(1.25, 2.2, m))
    mods = np.exp(np.concatenate(([0.0], np.cumsum(g.uniform(-0.3, 0.3, m - 1)))))
    vals = mods * np.exp(1j * g.uniform(-0.3, 0.3, m))
    if not headed:
        return {"breakpoints": bps.tolist(), "re": vals.real.tolist(), "im": vals.imag.tolist()}
    gamma = float(g.uniform(0.5, 2.0))
    c = float(mods[1] * g.uniform(0.8, 1.25) / bps[0] ** gamma)
    return {"breakpoints": bps.tolist(), "re": vals[1:].real.tolist(), "im": vals[1:].imag.tolist(),
            "head": {"c": c, "gamma": gamma}}


def _seq_of(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj.get("im", [0.0] * len(obj["re"])), dtype=float)


def _step_of(obj) -> ref.StepRef:
    mods = ref.moduli(_seq_of(obj))
    head = (obj["head"]["c"], obj["head"]["gamma"]) if obj.get("head") else None
    return ref.StepRef(obj["breakpoints"], mods, head)


class CliLarge:
    """The CLI on a few large inputs, written to disk at set-up."""

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg, self.workdir = pkg, workdir
        g = np.random.default_rng([seed, 100])
        self.inputs: dict[str, dict] = {}
        for n in SEQ_SIZES:
            v = make_sequence(g, n)
            self.inputs[f"seq{n}"] = {"re": v.real.tolist(), "im": v.imag.tolist()}
        fixed = np.random.default_rng(GM_SEQ_LANE)
        for n in GM_SEQ_SIZES:
            v = make_sequence(fixed, n)
            self.inputs[f"gmseq{n}"] = {"re": v.real.tolist(), "im": v.imag.tolist()}
        for m in PLAIN_FN_SIZES:
            self.inputs[f"fn{m}"] = make_long_step(g, m, headed=False)
        for m in HEADED_FN_SIZES:
            self.inputs[f"hfn{m}"] = make_long_step(g, m, headed=True)
        for m in GM_FN_SIZES:
            self.inputs[f"gm{m}"] = make_gm_step(g, m, headed=False)
        self.inputs[f"hgm{GM_HEADED_SIZE}"] = make_gm_step(g, GM_HEADED_SIZE, headed=True)
        for name, obj in self.inputs.items():
            _write_json(self.path(name), obj)
        self.samples = np.random.default_rng([seed, 101])

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.json")

    def out(self, tag: str) -> str:
        return os.path.join(self.workdir, f"out-{tag}")

    # -- checks ---------------------------------------------------------------

    def check_rearrange_seq(self, name):
        def check(path):
            with open(path, encoding="utf-8") as fh:
                got = np.asarray(json.load(fh)["re"], dtype=float)
            want = np.sort(ref.moduli(_seq_of(self.inputs[name])))[::-1]
            return None if np.array_equal(got, want) else "rearranged moduli differ from numpy's sort"
        return check

    def check_rearrange_fn(self, name):
        def check(path):
            with open(path, encoding="utf-8") as fh:
                out = json.load(fh)
            vals = np.asarray(out["re"], dtype=float)
            bps = np.asarray(out["breakpoints"], dtype=float)
            if np.any(np.diff(vals) > 0):
                return "rearrangement is not non-increasing"
            obj = self.inputs[name]
            mods = ref.moduli(_seq_of(obj))
            levels = np.concatenate((self.samples.uniform(0, mods.max(), 200), self.samples.choice(mods, 50), [0.0]))
            for a in levels:
                live = vals > a
                got = float(bps[np.nonzero(live)[0][-1]]) if live.any() else 0.0
                if got != ref.level_measure(obj["breakpoints"], mods, float(a)):
                    return f"distribution differs at level {a!r}"
            return None
        return check

    def check_norm(self, name):
        def check(path):
            rows = dict((r[0], float(r[1])) for r in _read_csv(path)[1:])
            obj = self.inputs[name]
            mods = ref.moduli(_seq_of(obj))
            if "breakpoints" in obj:
                want = (ref.weighted_step(obj["breakpoints"], mods, NORM_P, NORM_Q),
                        ref.lorentz_step(obj["breakpoints"], mods, NORM_P, NORM_Q))
            else:
                want = (ref.weighted_seq(mods, NORM_P, NORM_Q), ref.lorentz_seq(mods, NORM_P, NORM_Q))
            for tag, w in zip(("weighted", "lorentz"), want):
                if _rel(rows[tag], w) > 1e-10:
                    return f"{tag} norm {rows[tag]!r} != reference {w!r}"
            return None
        return check

    def check_gm_seq(self, name):
        def check(path):
            rows = dict((r[0], float(r[1])) for r in _read_csv(path)[1:])
            vals = _seq_of(self.inputs[name])
            bad = []
            for tag, scan in (("gms", ref.gms_sup), ("gms1", ref.gms1_sup), ("gms2", ref.gms2_sup)):
                want = scan(vals)
                if _rel(rows[tag], want) > 1e-12:
                    bad.append(f"{tag} {rows[tag]!r} != brute force {want!r} ({_rel(rows[tag], want):.1e} relative)")
            return "; ".join(bad) or None
        return check

    def check_gm_fn(self, name):
        def check(path):
            rows = dict((r[0], float(r[1])) for r in _read_csv(path)[1:])
            b, b1, b2 = rows["GM"], rows["GM1"], rows["GM2"]
            f = _step_of(self.inputs[name])
            span = (math.log(f.bps[0] / 4.0), math.log(f.bps[-1] * 1.1))
            x = np.exp(self.samples.uniform(*span, 4000))
            edges = np.concatenate((f.bps, f.bps / 2.0)) * (1.0 + 1e-12)
            x = np.concatenate((x, edges))
            end = np.exp(self.samples.uniform(*span, len(x)))
            x2, end2 = np.minimum(x, end), np.maximum(x, end)
            at_jump = f.jump_at * (1.0 + 1e-12)
            pair_x = np.repeat(f.hi, len(at_jump))
            pair_end = np.tile(at_jump, len(f.hi))
            keep = pair_x < pair_end
            x2, end2 = np.concatenate((x2, pair_x[keep])), np.concatenate((end2, pair_end[keep]))
            for tag, const, sampled in (("GM", b, f.gm_ratio(x)), ("GM1", b1, f.gm1_ratio(x)),
                                        ("GM2", b2, f.gm2_ratio(x2, end2))):
                top = float(np.max(sampled))
                if const < top * (1.0 - 1e-9):
                    return f"{tag} {const!r} below a sampled ratio {top!r}"
            if b1 > 2.0 * b * (1 + 1e-9) or b2 > 2.0 * b * b * (1 + 1e-9) or b > 2.0 * max(b1, b2) ** 2 * (1 + 1e-9):
                return f"inclusion bounds fail for GM={b!r} GM1={b1!r} GM2={b2!r}"
            return None
        return check

    def check_kfun(self, name):
        def check(path):
            mods = ref.moduli(_seq_of(self.inputs[name]))
            for t, k in ((float(a), float(b)) for a, b in _read_csv(path)[1:]):
                want = ref.k_value(mods, t)
                if _rel(k, want) > 1e-12:
                    return f"K({t!r}) = {k!r} != {want!r}"
            return None
        return check

    def check_decompose(self, name):
        def check(path):
            mods = ref.moduli(_seq_of(self.inputs[name]))
            for t, cost, k, ratio in (tuple(map(float, r)) for r in _read_csv(path)[1:]):
                want = ref.k_value(mods, t)
                if _rel(k, want) > 1e-12:
                    return f"K({t!r}) = {k!r} != {want!r}"
                if ratio != cost / k or ratio > 4.5:
                    return f"ratio {ratio!r} at t={t!r} is not cost/K or above 4.5"
            return None
        return check

    def check_interp(self, name):
        def check(path):
            with open(path, encoding="utf-8") as fh:
                value = float(fh.read().strip())
            want = ref.interp_norm(ref.moduli(_seq_of(self.inputs[name])), INTERP_THETA, INTERP_Q)
            return None if _rel(value, want) <= INTERP_REL_TOL else f"interp {value!r} != {want!r}"
        return check

    def check_hardy(self, name):
        def check(path):
            rows = _read_csv(path)[1:]
            return "hardy row fails" if not rows or any(r[-1] != "true" for r in rows) else None
        return check

    # -- operations -----------------------------------------------------------

    def ops(self) -> list[Op]:
        pkg = self.pkg
        spec = []
        for n in SEQ_SIZES:
            spec.append(("rearrange", f"seq{n}", ["--seq"], self.check_rearrange_seq))
        for m in PLAIN_FN_SIZES:
            spec.append(("rearrange", f"fn{m}", ["--fn"], self.check_rearrange_fn))
        for n in SEQ_SIZES:
            spec.append(("norm", f"seq{n}", ["--seq", "--p", str(NORM_P), "--q", str(NORM_Q)], self.check_norm))
        spec.append(("norm", f"fn{PLAIN_FN_SIZES[0]}", ["--fn", "--p", str(NORM_P), "--q", str(NORM_Q)], self.check_norm))
        for n in GM_SEQ_SIZES:
            spec.append(("gm", f"gmseq{n}", ["--seq"], self.check_gm_seq))
        for m in GM_FN_SIZES:
            spec.append(("gm", f"gm{m}", ["--fn"], self.check_gm_fn))
        spec.append(("gm", f"hgm{GM_HEADED_SIZE}", ["--fn"], self.check_gm_fn))
        for n in SEQ_SIZES:
            spec.append(("kfun", f"seq{n}", ["--seq", "--t-grid", T_GRID], self.check_kfun))
        for n in SEQ_SIZES:
            spec.append(("interp", f"seq{n}", ["--seq", "--theta", str(INTERP_THETA), "--q", str(INTERP_Q)],
                         self.check_interp))
        for n in SEQ_SIZES:
            spec.append(("decompose", f"seq{n}", ["--seq", "--t-grid", DECOMPOSE_GRID], self.check_decompose))
        for m in HEADED_FN_SIZES:
            spec.append(("hardy", f"hfn{m}", ["--fn", "--alpha", str(HARDY_ALPHA), "--q", str(HARDY_Q)],
                         self.check_hardy))
        ops = []
        for cmd, name, flags, make_check in spec:
            tag = f"{cmd}-{name}"
            argv = [cmd, flags[0], self.path(name), *flags[1:], "--out", self.out(tag)]
            fault = GM_SEQ_FAULT if (cmd, flags[0]) == ("gm", "--seq") else None
            ops.append(_cli_op(pkg, tag, f"cmd_s.{cmd}", argv, make_check(name), fault))
        return ops


WORKLOADS = {"verify-core": VerifyCore, "trig-sums": TrigSums, "cli-large": CliLarge}
