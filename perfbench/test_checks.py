"""Tests of the benchmark's own output checks.

Each workload's checker is handed one correct and one deliberately corrupted
output of the same operation; the corrupted one must count as a failed
operation.  Run from the root of a checkout:

    python3 perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402
import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402

sys.path.insert(0, bench.SRC)


def _with_output(op, corrupt):
    """The same operation, its output passed through ``corrupt`` before the check."""
    return dataclasses.replace(op, name=op.name + " (corrupted)", run=lambda: corrupt(op.run()))


def _edit_file(path, edit):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))


class CheckTests(unittest.TestCase):
    def setUp(self):
        os.makedirs(bench.OUT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_checked(self, ops):
        _, records, outputs = bench.run_round(ops, "test")
        bench.check_round(ops, records, outputs)
        return records

    def assert_one_failure(self, good, bad):
        records = self.run_checked([good, bad])
        self.assertIsNone(records[0]["error"], records[0])
        self.assertIsNotNone(records[1]["error"], records[1])
        self.assertFalse(records[1]["known"])

    def op(self, workload, name, seed=3):
        _, wl = bench.set_up(workload, seed, self.workdir)
        ops = {op.name: op for op in wl.ops()}
        return wl, ops[name]

    def test_verify_core_flags_a_failing_row(self):
        wl, op = self.op("verify-core", "splice")
        path = os.path.join(self.workdir, "splice.csv")

        def corrupt(code):
            _edit_file(path, lambda t: t[::-1].replace("eurt", "eslaf", 1)[::-1])
            return code

        self.assert_one_failure(op, _with_output(op, corrupt))

    def test_trig_sums_flags_weak_l1_above_the_l1_norm(self):
        _, wl = bench.set_up("trig-sums", 3, self.workdir)
        weak = next(op for op in wl.ops() if op.group == "report_s.weak_l1")
        above = lambda rep: dataclasses.replace(rep, lhs=wl.l1_ref(0) * 1.001)  # noqa: E731
        self.assert_one_failure(weak, _with_output(weak, above))

    def test_trig_sums_flags_a_window_value_off_by_1e_8(self):
        _, wl = bench.set_up("trig-sums", 3, self.workdir)
        window = next(op for op in wl.ops() if op.group == "report_s.dirichlet")
        nudged = lambda rep: dataclasses.replace(rep, lhs=rep.lhs * (1 + 1e-8))  # noqa: E731
        self.assert_one_failure(window, _with_output(window, nudged))

    def test_cli_large_flags_a_swapped_rearranged_value(self):
        wl, op = self.op("cli-large", "rearrange-seq4096")

        def corrupt(code):
            path = wl.out("rearrange-seq4096")
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
            obj["re"][10], obj["re"][11] = obj["re"][11], obj["re"][10]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            return code

        self.assert_one_failure(op, _with_output(op, corrupt))

    def test_cli_large_flags_a_k_value_off_by_1e_9(self):
        wl, op = self.op("cli-large", "kfun-seq4096")

        def corrupt(code):
            def edit(text):
                lines = text.splitlines()
                t, k = lines[5].split(",")
                lines[5] = f"{t},{float(k) * (1 + 1e-9)!r}"
                return "\n".join(lines) + "\n"

            _edit_file(wl.out("kfun-seq4096"), edit)
            return code

        self.assert_one_failure(op, _with_output(op, corrupt))

    def test_cli_large_counts_only_the_gms_fault_as_known(self):
        wl, op = self.op("cli-large", "gm-gmseq4096")

        def corrupt(code):
            _edit_file(wl.out("gm-gmseq4096"), lambda t: t.replace("gms2,", "gms2,1"))
            return code

        records = self.run_checked([op, _with_output(op, corrupt)])
        self.assertRegex(records[0]["error"], r"^gms [^;]* relative\)$")
        self.assertTrue(records[0]["known"])
        self.assertIn("gms2 ", records[1]["error"])
        self.assertFalse(records[1]["known"])

    def test_reference_scans_match_the_program_on_small_inputs(self):
        pkg, _ = bench.set_up("verify-core", 3, self.workdir)
        g = np.random.default_rng(5)
        for _ in range(20):
            c = pkg.generate.random_gms_seq(g, n_max=64)
            vals = np.asarray(c.values)
            for fn, scan in ((pkg.gm.gms_constant, ref.gms_sup), (pkg.gm.gms1_constant, ref.gms1_sup),
                             (pkg.gm.gms2_constant, ref.gms2_sup)):
                want = scan(vals)
                self.assertLessEqual(abs(fn(c).constant - want), 1e-12 * want)

    def test_tracer_sees_calls_made_inside_the_package(self):
        pkg, _ = bench.set_up("verify-core", 3, self.workdir)
        c = pkg.model.ComplexSeq(tuple(1.0 / k for k in range(1, 40)))
        tr = tracing.Tracer()
        tr.install()
        try:
            pkg.fourier.weak_l1_report(c, x_samples=256)
        finally:
            tr.uninstall()
        self.assertIs(pkg.fourier.gms2_constant, pkg.gm.gms2_constant)
        self.assertEqual(tr.edges[("fourier.weak_l1_report", "gm.gms2_constant")][0], 1)
        self.assertGreaterEqual(tr.edges[("fourier.weak_l1_report", "fourier.partial_sum_grid")][0], 2)
        grid = tr.stats["fourier.partial_sum_grid"]
        self.assertEqual(grid["terms"], grid["points"] * 39)
        report = tr.stats["fourier.weak_l1_report"]
        self.assertLess(report["self_s"], report["total_s"])

    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(bench.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], bench.per_layer_names())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
