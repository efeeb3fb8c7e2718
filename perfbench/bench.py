"""One workload in one process: set-up, timed rounds, checks, optional trace.

Run through ``run.py``, which starts this file in a fresh single-threaded
process per workload.  The last line of standard output is the result
object; the full record (machine facts, every operation's time, the trace)
goes to ``.perfbench_out/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# set-up repeats at least this often and for at least this long; the median
# of many short repeats rides out the machine's speed swings of a few seconds
SETUP_MIN_REPEATS = 7
SETUP_MIN_S = 2.0

import numpy as np  # noqa: E402  (imported before set-up is timed)

import tracer as tracing  # noqa: E402
from workloads import OTHER_SUITES, TIMED_SUITES, WORKLOADS  # noqa: E402

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
# timings of single workloads, reported with the per-layer metrics
WORKLOAD_TIMINGS = (
    *(f"suite_s.{s}" for s in TIMED_SUITES),
    "report_s.weak_l1",
    "report_s.l1_trig",
    *(f"cmd_s.{c}" for c in ("rearrange", "gm", "interp", "decompose", "hardy")),
    *(f"verify.{s}.s" for s in OTHER_SUITES),
)
# (traced name, fields): "calls" and "self_s" as recorded, work fields summed
# over calls, "exponent" the log-log slope of time against input size.  Calls
# are kept where the count can move (at most 128 per-layer metrics in all).
TRACED_METRICS = (
    ("fourier.partial_sum_grid", ("calls", "self_s", "points", "terms", "exponent")),
    ("fourier.weak_l1_report", ("calls", "self_s")),
    ("fourier.l1_norm_trig", ("calls", "self_s")),
    ("fourier.dirichlet_bound_report", ("self_s",)),
    ("fourier.duality_ratio", ("self_s",)),
    ("quadrature.adaptive_integral", ("calls", "self_s", "points", "exponent")),
    ("gm.gms_constant", ("calls", "self_s", "entries", "exponent")),
    ("gm.gms1_constant", ("calls", "self_s", "entries", "exponent")),
    ("gm.gms2_constant", ("calls", "self_s", "entries", "exponent")),
    ("gm.gm_constant_step.GM", ("calls", "self_s", "pieces", "exponent")),
    ("gm.gm_constant_step.GM1", ("calls", "self_s", "pieces", "exponent")),
    ("gm.gm_constant_step.GM2", ("calls", "self_s", "pieces", "exponent")),
    ("rearrange.rearrange_step", ("calls", "self_s", "pieces", "exponent")),
    ("rearrange.rearrange_seq", ("self_s",)),
    ("rearrange.distribution", ("self_s",)),
    ("rearrange.left_limit", ("self_s",)),
    ("interpolate.k_functional", ("calls", "self_s", "exponent")),
    ("interpolate.k_functional_oracle", ("self_s",)),
    ("interpolate.gms_decomposition", ("calls", "self_s")),
    ("interpolate.interpolation_norm", ("calls", "self_s", "exponent")),
    ("interpolate.gilbert_functional", ("calls", "self_s", "exponent")),
    ("norms.weighted_norm_seq", ("self_s",)),
    ("norms.weighted_norm_step", ("self_s",)),
    ("norms.lorentz_norm_seq", ("self_s",)),
    ("norms.lorentz_norm_step", ("self_s",)),
    ("norms.equivalence_report", ("self_s",)),
    ("hardy.hardy_report", ("self_s",)),
    ("hardy.hardy_lhs", ("calls", "self_s", "exponent")),
    ("hardy.hardy_rhs", ("self_s",)),
    ("model.ComplexSeq", ("calls", "self_s", "entries")),
    ("model.StepFunction", ("calls", "self_s", "entries")),
    ("model.HeadedStepFunction", ("calls", "self_s", "entries")),
    ("model.sector_contains", ("calls", "self_s")),
    ("model.load_sequence", ("self_s", "bytes")),
    ("model.load_function", ("self_s", "bytes")),
    ("model.dump_sequence", ("self_s", "bytes")),
    ("model.dump_function", ("self_s", "bytes")),
    ("model.write_reports_csv", ("self_s", "bytes")),
    ("generate.random_seq", ("self_s",)),
    ("generate.random_step", ("self_s",)),
    ("generate.random_gms_seq", ("self_s",)),
    ("generate.random_gm_step", ("self_s",)),
    ("generate.random_gm_headed", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "exponent": "1", "bytes": "B", "points": "count",
         "terms": "count", "entries": "count", "pieces": "count"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(name, "s") for name in WORKLOAD_TIMINGS]
    out += [("trace.overhead_s", "s")]
    out += [(f"{m}.self_s", "s") for m in tracing.MODULES]
    out += [(f"{name}.{field}", UNITS[field]) for name, fields in TRACED_METRICS for field in fields]
    return out


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count, if one is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


# ---------------------------------------------------------------------------
# Timed parts
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int, workdir: str):
    """Import lorentz_gm afresh and build the workload's inputs."""
    for name in [k for k in sys.modules if k == "lorentz_gm" or k.startswith("lorentz_gm.")]:
        del sys.modules[name]
    pkg = importlib.import_module("lorentz_gm")
    for sub in ("cli", "fourier", "generate", "verify"):
        importlib.import_module(f"lorentz_gm.{sub}")
    return pkg, WORKLOADS[workload](pkg, seed, workdir)


def run_round(ops, tag: str) -> tuple[float, list[dict], list]:
    """Every operation once, unchecked: returns the summed program time, the
    per-op records and the outputs.  An operation's output file is moved aside
    under ``tag``, so later rounds do not overwrite it before it is checked."""
    records, outputs = [], []
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception:  # a program fault is one failed operation, not a crashed benchmark
            result, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        if op.out:
            kept = f"{op.out}.{tag}.{i}"
            result = (result, kept if os.path.exists(op.out) else None)
            if result[1]:
                os.replace(op.out, kept)
        records.append({"op": op.name, "group": op.group, "s": elapsed, "error": error})
        outputs.append(result)
    return math.fsum(r["s"] for r in records), records, outputs


def check_round(ops, records: list[dict], outputs: list) -> None:
    """Check a round's outputs, setting each record's ``error`` and ``known``."""
    for op, rec, result in zip(ops, records, outputs):
        if rec["error"] is None:
            try:
                rec["error"] = op.check(result)
            except Exception:
                rec["error"] = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        rec["known"] = bool(rec["error"]) and op.is_known(rec["error"])


def group_medians(rounds: list[list[dict]]) -> dict[str, float]:
    """Per group, the median over rounds of the group's summed time."""
    per_round = []
    for records in rounds:
        sums: dict[str, float] = {}
        for r in records:
            if r["group"]:
                sums[r["group"]] = sums.get(r["group"], 0.0) + r["s"]
        per_round.append(sums)
    groups = sorted({g for sums in per_round for g in sums})
    return {g: statistics.median(s.get(g, 0.0) for s in per_round) for g in groups}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lorentz_gm", "__init__.py")):
        print(f"perfbench: no package source at {os.path.relpath(SRC, ROOT)}/lorentz_gm", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or math.fsum(setup_times) < SETUP_MIN_S:
        start = time.perf_counter()
        pkg, wl = set_up(args.workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported lorentz_gm from {pkg.__file__}, not from the checkout", file=sys.stderr)
        return 2
    ops = wl.ops()

    rounds, walls = [], []
    started = time.perf_counter()
    while True:
        wall, records, outputs = run_round(ops, f"r{len(rounds)}")
        rounds.append((records, outputs))
        walls.append(wall)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    wall_s = statistics.median(walls)
    # read before any check runs, so the benchmark's reference code is not in it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "rounds": len(rounds), "setup_s_all": setup_times,
        "round_wall_s": walls, "ops": rounds[0][0],
    }
    if args.trace:
        metrics, traced = traced_metrics(ops, [r for r, _ in rounds], wall_s, record)
        rounds.append(traced)  # one more round of the same operations
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for records, outputs in rounds:
        check_round(ops, records, outputs)
    attempted = sum(len(r) for r, _ in rounds)
    failures = [rec for r, _ in rounds for rec in r if rec["error"]]
    record.update(metrics=metrics, failures=failures)
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for rec in failures[:10]:
        print(f"# FAILED{' (known fault)' if rec['known'] else ''} {rec['op']}: {rec['error']}")
    print("# machine " + json.dumps(record["machine"]))
    # correct: every operation that did not fail on a known program fault gave a correct output
    print(json.dumps({"correct": all(rec["known"] for rec in failures), "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def traced_metrics(ops, rounds: list[list[dict]], wall_s: float, record: dict) -> tuple[dict, tuple]:
    """Per-layer metrics from one traced round, plus the workload timings of
    the untraced rounds; also returns the traced round's records and outputs."""
    tr = tracing.Tracer()
    tr.install()
    try:
        traced_wall, traced_records, traced_outputs = run_round(ops, "traced")
    finally:
        tr.uninstall()
    groups = group_medians(rounds)
    record["traced_wall_s"] = traced_wall
    record["traced_ops"] = traced_records
    record["trace"] = tr.dump()
    values = {name: groups.get(name, 0.0) for name in WORKLOAD_TIMINGS}
    values["trace.overhead_s"] = traced_wall - wall_s
    for module in tracing.MODULES:
        values[f"{module}.self_s"] = tr.module_self_s(module)
    for name, fields in TRACED_METRICS:
        st = tr.stats.get(name, {})
        for field in fields:
            if field == "exponent":
                values[f"{name}.{field}"] = tr.exponent(name)
            elif field == "self_s":
                values[f"{name}.{field}"] = st.get(field, 0.0)
            else:
                values[f"{name}.{field}"] = int(st.get(field, 0))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    return metrics, (traced_records, traced_outputs)


if __name__ == "__main__":
    sys.exit(main())
