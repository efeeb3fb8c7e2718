"""Command-line driver: one subcommand per module, plus the verify suites.

Exit codes: 0 success, 1 malformed input, 2 failed verification,
3 quadrature nonconvergence (fourier only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .fourier import dirichlet_bound_report, l1_log_weight_report, weak_l1_report
from .gm import gm_constant_step, gms1_constant, gms2_constant, gms_constant
from .hardy import hardy_report
from .interpolate import gms_decompositions, interpolation_norm, k_functional, k_functional_oracle
from .model import (
    PQ,
    RepresentationError,
    VerificationReport,
    dump_function,
    dump_sequence,
    load_function,
    load_sequence,
    write_reports_csv,
)
from .norms import lorentz_norm_seq, lorentz_norm_step, weighted_norm_seq, weighted_norm_step
from .quadrature import NonconvergenceError
from .rearrange import rearrange_seq, rearrange_step
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_FAILED = 2
EXIT_NONCONVERGED = 3

# The most points or entries a command builds or scans from a size it is
# given: the fourier --grid, a --t-grid count, decompose's ray of
# 1 + floor(1/t), and the len(c) x --grid splits of kfun's oracle.
MAX_POINTS = 2**22


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _parse_t_grid(text: str) -> np.ndarray:
    """'1e-3:10:50' -> 50 log-spaced points from 1e-3 to 10."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("t-grid must look like lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not 0 < lo < hi < math.inf or count < 2:
        raise ValueError("t-grid needs 0 < lo < hi < inf and count >= 2")
    _check_points(count, "the t-grid count")
    return np.geomspace(lo, hi, count)


def _check_points(count: int, what: str) -> None:
    if count > MAX_POINTS:
        raise ValueError(f"{what} is {count}; at most {MAX_POINTS} points are allowed")


def _check_ray(t: float) -> None:
    """Refuse a t whose decomposition ray of 1 + floor(1/t) entries exceeds the cap."""
    if t > 0 and 1.0 / t >= MAX_POINTS:
        raise ValueError(f"decompose at t = {t!r} builds a ray of more than {MAX_POINTS} entries")


def _load_input(args, want="either"):
    seq = getattr(args, "seq", None)
    fn = getattr(args, "fn", None)
    if seq and fn:
        raise ValueError("give --seq or --fn, not both")
    if want in ("either", "seq") and seq:
        return "seq", load_sequence(seq)
    if want in ("either", "fn") and fn:
        return "fn", load_function(fn)
    raise ValueError(f"this command needs --{'seq' if want == 'seq' else 'fn' if want == 'fn' else 'seq or --fn'}")


def _emit_lines(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_reports(rows: list[VerificationReport], out: str | None) -> int:
    if out:
        write_reports_csv(rows, out)
    for r in rows:
        print(f"{r.name}: lhs={r.lhs:.9g} rhs={r.rhs:.9g} c={r.constant:.9g} "
              f"-> {'pass' if r.passed else 'FAIL'}")
    return EXIT_OK if all(r.passed for r in rows) else EXIT_FAILED


def _cmd_rearrange(args) -> int:
    kind, obj = _load_input(args)
    if kind == "seq":
        payload = dump_sequence(rearrange_seq(obj))
    else:
        payload = dump_function(rearrange_step(obj))
    text = json.dumps(payload, indent=2, sort_keys=True)
    _emit_lines([text], args.out)
    return EXIT_OK


def _cmd_norm(args) -> int:
    pq = PQ(args.p, args.q)
    kind, obj = _load_input(args)
    lines = ["name,value"]
    if kind == "seq":
        lines.append(f"weighted,{weighted_norm_seq(obj, pq)!r}")
        lines.append(f"lorentz,{lorentz_norm_seq(obj, pq)!r}")
    else:
        if obj.head is not None:
            raise RepresentationError("function carries a power head")
        lines.append(f"weighted,{weighted_norm_step(obj, pq)!r}")
        lines.append(f"lorentz,{lorentz_norm_step(obj, pq)!r}")
    _emit_lines(lines, args.out)
    return EXIT_OK


def _cmd_gm(args) -> int:
    kind, obj = _load_input(args)
    lines = ["name,value"]
    if kind == "seq":
        for tag, fn in (("gms", gms_constant), ("gms1", gms1_constant), ("gms2", gms2_constant)):
            lines.append(f"{tag},{fn(obj).constant!r}")
    else:
        for tag in ("GM", "GM1", "GM2"):
            lines.append(f"{tag},{gm_constant_step(obj, variant=tag).constant!r}")
    _emit_lines(lines, args.out)
    return EXIT_OK


def _cmd_kfun(args) -> int:
    _, c = _load_input(args, want="seq")
    if args.t_grid:
        ts = _parse_t_grid(args.t_grid)
        rows = [f"{t!r},{k!r}" for t, k in zip(ts.tolist(), k_functional(c, ts).tolist())]
        _emit_lines(["t,k", *rows], args.out)
        return EXIT_OK
    if args.t is None:
        raise ValueError("kfun needs --t or --t-grid")
    k = k_functional(c, args.t)
    lines = [f"{k!r}"]
    if args.grid is not None:
        _check_points(len(c) * args.grid, "kfun's oracle scan of len(c) x --grid splits")
        oracle = k_functional_oracle(c, args.t, grid_resolution=args.grid)
        lines.append(f"oracle {oracle!r} (diff {abs(k - oracle):.3e})")
    _emit_lines(lines, args.out)
    return EXIT_OK


def _cmd_interp(args) -> int:
    _, c = _load_input(args, want="seq")
    if args.theta is None:
        raise ValueError("interp needs --theta")
    value = interpolation_norm(c, args.theta, args.q)
    _emit_lines([f"{value!r}"], args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    _, c = _load_input(args, want="seq")
    alpha = args.alpha if args.alpha is not None else 0.0
    if args.t_grid:
        ts = _parse_t_grid(args.t_grid)
        _check_ray(float(ts[0]))  # the smallest t builds the longest ray
        rows = [f"{d.t!r},{d.cost!r},{d.k_value!r},{d.ratio!r}" for d in gms_decompositions(c, ts, alpha=alpha)]
        _emit_lines(["t,cost,k,ratio", *rows], args.out)
        return EXIT_OK
    if args.t is None:
        raise ValueError("decompose needs --t or --t-grid")
    _check_ray(args.t)
    (d,) = gms_decompositions(c, [args.t], alpha=alpha)
    _emit_lines([f"t={d.t!r} cost={d.cost!r} k={d.k_value!r} ratio={d.ratio!r}"], args.out)
    return EXIT_OK


def _cmd_fourier(args) -> int:
    _, c = _load_input(args, want="seq")
    # the moduli first, so that a modulus past the float range stops here
    if not any(c.moduli()):
        raise ValueError("fourier needs a nonzero sequence")
    grid = 400 if args.grid is None else args.grid
    _check_points(grid, "--grid")
    xs = tuple(np.linspace(1e-3, math.pi, grid))
    rows = [dirichlet_bound_report(c, 1, len(c), xs, variant="plain"),
            l1_log_weight_report(c, tol=args.tol), weak_l1_report(c)]
    return _emit_reports(rows, args.out)


def _cmd_hardy(args) -> int:
    _, f = _load_input(args, want="fn")
    if args.alpha is None:
        raise ValueError("hardy needs --alpha")
    rep = hardy_report(f, args.alpha, args.q)
    return _emit_reports([rep], args.out)


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite in (None, "all") else [args.suite]
    results = run_suites(names, seed=args.seed)
    rows = []
    all_pass = True
    print(f"seed={args.seed}")
    for suite in names:
        for r in results[suite]:
            rows.append((suite, r))
            mark = "pass" if r.passed else "FAIL"
            all_pass &= r.passed
            print(f"[{mark}] {suite:18s} {r.name:34s} lhs={r.lhs:.6g} rhs={r.rhs:.6g}")
    if args.out:
        lines = [f"# seed={args.seed}", "suite," + VerificationReport.CSV_HEADER]
        for suite, r in sorted(rows, key=lambda sr: (sr[0], sr[1].name)):
            lines.append(f"{suite},{r.csv_row()}")
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK if all_pass else EXIT_FAILED


# Every flag once; each subcommand registers only the ones its handler reads.
_FLAGS = {
    "--seq": {"help": "JSON sequence path"},
    "--fn": {"help": "JSON step-function path"},
    "--p": {"type": float, "default": 1.0},
    "--q": {"type": float, "default": 1.0},
    "--alpha": {"type": float},
    "--t": {"type": float},
    "--t-grid": {"help": "lo:hi:count, log-spaced"},
    "--theta": {"type": float},
    "--tol": {"type": float, "default": 1e-8},
    "--grid": {"type": int},
    "--seed": {"type": int, "default": 42},
    "--suite": {"default": "all", "help": "suite name or 'all'"},
    "--out": {},
}


def build_parser() -> _Parser:
    p = _Parser(prog="lorentz-gm", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, flags, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=fn)
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])

    add("rearrange", _cmd_rearrange, "--seq --fn --out", "decreasing rearrangement of the input")
    add("norm", _cmd_norm, "--seq --fn --p --q --out", "weighted and rearranged norms for (p, q)")
    add("gm", _cmd_gm, "--seq --fn --out", "window-variation constants of the input")
    add("kfun", _cmd_kfun, "--seq --t --t-grid --grid --out",
        "splitting functional at --t or over --t-grid")
    add("interp", _cmd_interp, "--seq --theta --q --out",
        "interpolation-scale norm for (theta, q)")
    add("decompose", _cmd_decompose, "--seq --alpha --t --t-grid --out",
        "near-optimal splitting at --t or over --t-grid")
    add("fourier", _cmd_fourier, "--seq --grid --tol --out",
        "partial-sum, L1, and weak-L1 bound reports")
    add("hardy", _cmd_hardy, "--fn --alpha --q --out",
        "averaging-transform bound report for (alpha, q)")
    add("verify", _cmd_verify, "--suite --seed --out", "run verification suites")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (ValueError, KeyError, OSError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
