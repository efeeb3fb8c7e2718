"""Per-layer tracing from outside the package.

The tracer replaces every module-level binding of a layer's public function
with one timing wrapper, so calls made inside the package (``fourier``
calling ``partial_sum_grid``, or ``gms2_constant`` as bound in ``fourier``,
``verify`` and ``cli``) are seen as well as calls from the benchmark.  Value
classes are traced through their ``__post_init__``, which keeps ``isinstance``
checks against the class intact.

Spans are aggregated in memory as they close: per traced name the calls,
total time, self time (span time minus the time of its child spans) and work
counts; per (parent, child) edge the calls and time; and, for size-dependent
kernels, time per distinct input size, from which a log-log slope is fitted.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _json_bytes(obj) -> int:
    return len(json.dumps(obj))


def _grid_work(args, kwargs, result):
    points = int(np.size(_arg(args, kwargs, 3, "xs")))
    terms = points * (int(_arg(args, kwargs, 2, "n_hi")) - int(_arg(args, kwargs, 1, "m")) + 1)
    return {"points": points, "terms": terms}, terms


def _entries_of_first(args, kwargs, result):
    n = _size(args[0]) if args else 0
    return {"entries": n}, n


def _pieces_of_first(args, kwargs, result):
    n = _size(args[0].breakpoints) if args else 0
    return {"pieces": n}, n


def _loaded_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[0] if args else None)}, None


def _dumped_bytes(args, kwargs, result):
    return {"bytes": _json_bytes(result)}, None


def _written_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(_arg(args, kwargs, 1, "path"))}, None


def _gm_step_label(args, kwargs):
    variant = _arg(args, kwargs, 1, "variant") or "GM"
    return "gm.gm_constant_step." + str(variant).upper().replace("_", "")


# module -> {public function: work counter or None}.  A counter maps
# (args, kwargs, result) to (work counts, input size for the exponent fit).
LAYERS = {
    "fourier": {
        "partial_sum_grid": _grid_work,
        "weak_l1_report": None,
        "l1_norm_trig": None,
        "dirichlet_bound_report": None,
        "duality_ratio": None,
    },
    "quadrature": {"adaptive_integral": None},  # points counted by wrapping the integrand
    "gm": {
        "gms_constant": _entries_of_first,
        "gms1_constant": _entries_of_first,
        "gms2_constant": _entries_of_first,
        "gm_constant_step": _pieces_of_first,
    },
    "rearrange": {
        "rearrange_step": _pieces_of_first,
        "rearrange_seq": None,
        "distribution": None,
        "left_limit": None,
    },
    "interpolate": {
        "k_functional": _entries_of_first,
        "k_functional_oracle": None,
        "gms_decomposition": _entries_of_first,
        "interpolation_norm": _entries_of_first,
        "gilbert_functional": _entries_of_first,
    },
    "norms": {
        "weighted_norm_seq": None,
        "weighted_norm_step": None,
        "lorentz_norm_seq": None,
        "lorentz_norm_step": None,
        "equivalence_report": None,
    },
    "hardy": {"hardy_report": None, "hardy_lhs": _pieces_of_first, "hardy_rhs": None},
    "model": {
        "sector_contains": None,
        "load_sequence": _loaded_bytes,
        "load_function": _loaded_bytes,
        "dump_sequence": _dumped_bytes,
        "dump_function": _dumped_bytes,
        "write_reports_csv": _written_bytes,
    },
    "generate": {
        "random_seq": None,
        "random_step": None,
        "random_gms_seq": None,
        "random_gm_step": None,
        "random_gm_headed": None,
        "random_sector_values": None,
    },
    "verify": {},  # filled with every suite_* function at install time
    "cli": {"main": None},
}
TRACED_CLASSES = ("ComplexSeq", "StepFunction", "HeadedStepFunction")
MODULES = tuple(LAYERS)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child time]
        self.stats = defaultdict(lambda: defaultdict(float))  # name -> calls/total_s/self_s/work
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> [calls, total_s]
        self.by_size = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))  # name -> size -> [n, s]
        self._undo: list = []

    # -- span bookkeeping ---------------------------------------------------

    def _close(self, frame: list, entered: float, elapsed: float, work) -> None:
        stack = self.stack
        stack.pop()
        name = frame[0]
        st = self.stats[name]
        st["calls"] += 1
        st["total_s"] += elapsed
        st["self_s"] += elapsed - frame[1]
        edge = self.edges[(stack[-1][0] if stack else None, name)]
        edge[0] += 1
        edge[1] += elapsed
        if work:
            counts, size = work
            for key, value in counts.items():
                st[key] += value
            if size:
                cell = self.by_size[name][size]
                cell[0] += 1
                cell[1] += elapsed
        if stack:
            # the parent's child time covers the whole wrapper, so the
            # tracer's own bookkeeping is nobody's self time
            stack[-1][1] += time.perf_counter() - entered

    def _wrap(self, fn, name, counter=None, label=None, count_integrand=False):
        stack, close, perf = self.stack, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf()
            frame = [label(args, kwargs) if label else name, 0.0]
            stack.append(frame)
            if count_integrand:
                integrand, evals = args[0], [0]

                def counted(xs):
                    evals[0] += int(np.size(xs))
                    return integrand(xs)

                args = (counted,) + args[1:]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, entered, perf() - entered, None)
                raise
            elapsed = perf() - entered
            if count_integrand:
                work = ({"points": evals[0]}, evals[0])
            else:
                work = counter(args, kwargs, result) if counter else None
            close(frame, entered, elapsed, work)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at every module-level binding in the package."""
        package = [m for k, m in list(sys.modules.items()) if k == "lorentz_gm" or k.startswith("lorentz_gm.")]
        verify = sys.modules["lorentz_gm.verify"]
        suites = {k: None for k in vars(verify) if k.startswith("suite_")}
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"lorentz_gm.{module_name}"]
            table = suites if module_name == "verify" else functions
            for fn_name, counter in table.items():
                original = getattr(module, fn_name)
                wrapper = self._wrap(
                    original,
                    f"{module_name}.{fn_name}",
                    counter=counter,
                    label=_gm_step_label if fn_name == "gm_constant_step" else None,
                    count_integrand=fn_name == "adaptive_integral",
                )
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
                if module_name == "verify":
                    for key, value in list(verify.SUITES.items()):
                        if value is original:
                            self._undo.append((verify.SUITES, key, value))
                            verify.SUITES[key] = wrapper
        model = sys.modules["lorentz_gm.model"]
        for cls_name in TRACED_CLASSES:
            cls = getattr(model, cls_name)
            original = cls.__post_init__
            self._undo.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(
                original, f"model.{cls_name}", counter=lambda a, k, r: ({"entries": len(a[0].values)}, None)
            )

    def uninstall(self) -> None:
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def exponent(self, name: str) -> float:
        """Least-squares slope of log(mean time) against log(size).

        0.0 when the workload holds fewer than two sizes a factor 2 apart."""
        cells = self.by_size.get(name, {})
        sizes = sorted(s for s in cells if s > 0)
        if len(sizes) < 2 or sizes[-1] < 2 * sizes[0]:
            return 0.0
        x = np.log([float(s) for s in sizes])
        y = np.log([cells[s][1] / cells[s][0] for s in sizes])
        return float(np.polyfit(x, y, 1)[0])

    def module_self_s(self, module: str) -> float:
        return math.fsum(st["self_s"] for name, st in self.stats.items() if name.split(".")[0] == module)

    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "functions": {name: dict(st) for name, st in sorted(self.stats.items())},
            "edges": [
                {"parent": p, "child": c, "calls": n, "total_s": s}
                for (p, c), (n, s) in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
            ],
            "sizes": {
                name: {str(size): {"calls": n, "total_s": s} for size, (n, s) in sorted(cells.items())}
                for name, cells in sorted(self.by_size.items())
            },
        }
