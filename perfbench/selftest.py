"""Tests of the benchmark itself; they need the dgkit source in ../src.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(wl: workloads.Workload, prefix: str) -> workloads.Workload:
    """The cheap items of a workload whose name starts with `prefix`."""
    return workloads.Workload(wl.name, [i for i in wl.items if i.name.startswith(prefix)])


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
        names = ["root", "a", "b", "c"]
        span_name = array("i", [0, 1, 2, 3])
        parents = array("i", [-1, 0, 0, 1])
        starts = array("d", [0.0, 1.0, 5.0, 2.0])
        ends = array("d", [10.0, 4.0, 9.0, 3.0])
        self.assertEqual(tracing.self_times(parents, starts, ends), [3.0, 2.0, 4.0, 1.0])
        table = tracing.layer_table(names, span_name, parents, starts, ends)
        self.assertEqual(table["root"], {"calls": 1, "total_s": 10.0, "self_s": 3.0})
        self.assertEqual(table["a"]["self_s"], 2.0)

    def test_repeated_name_sums(self):
        names = ["f"]
        table = tracing.layer_table(names, array("i", [0, 0]), array("i", [-1, 0]),
                                    array("d", [0.0, 1.0]), array("d", [4.0, 2.0]))
        self.assertEqual(table["f"], {"calls": 2, "total_s": 5.0, "self_s": 4.0})

    def test_wrapper_nests_spans_and_counts_errors(self):
        tracer = tracing.Tracer()

        def boom():
            raise ValueError("x")

        inner = tracer.wrap("derived.inner", boom)
        outer = tracer.wrap("derived.outer", inner)
        with self.assertRaises(ValueError):
            outer()
        self.assertEqual(list(tracer.span_parent), [-1, 0])
        self.assertEqual(tracer.errors, {"derived": 1})


class SpeedProbeTest(unittest.TestCase):
    def test_inside_and_reference(self):
        probe = speed.Probe()
        # one sample every 0.1 s from t = 0, each 1 ms, but the one at 0.5 s 9 ms
        for i in range(30):
            probe.starts.append(0.1 * i)
            probe.durations.append(0.009 if i == 5 else 0.001)
        self.assertAlmostEqual(probe.inside(0.45, 0.75), 0.011)
        self.assertAlmostEqual(probe.inside(0.75, 0.8), 0.0)
        # the window around t = 1.0 holds ten samples; the trim drops the 9 ms one
        self.assertAlmostEqual(probe.reference(1.0, 1.0), 0.001)
        # too few samples near t = 10: the whole run's trimmed mean (slowest tenth out)
        self.assertAlmostEqual(probe.reference(10.0, 10.0), 0.001)

    def test_trimmed_mean_drops_the_slowest_tenth(self):
        self.assertEqual(speed.trimmed_mean([1.0] * 9 + [100.0]), 1.0)
        self.assertEqual(speed.trimmed_mean([2.0]), 2.0)

    def test_probed_pass_keeps_outputs_and_gives_refs(self):
        dg = run.import_dgkit()
        wl = small(workloads.BY_NAME["derived-ring"](dg, 2), "e^2|-1|/GF")
        plain = run.run_pass(wl)
        probe = speed.Probe()
        probed = run.run_pass(wl, probe)
        self.assertEqual(plain.digest, probed.digest)
        self.assertGreater(len(probe.durations), 0)
        self.assertGreater(probed.wall_ref, 0)
        self.assertTrue(all(r.ref > 0 and r.seconds > 0 for r in probed.records))
        self.assertEqual(probed.probe["samples"], len(probe.durations))


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_digest(self):
        dg = run.import_dgkit()
        for workload in ("derived-ring", "scenario-deform"):
            a = workloads.BY_NAME[workload](dg, 5)
            b = workloads.BY_NAME[workload](dg, 5)
            c = workloads.BY_NAME[workload](dg, 6)
            self.assertEqual(run.input_digest(a), run.input_digest(b))
            self.assertNotEqual(run.input_digest(a), run.input_digest(c))
        wl = small(workloads.BY_NAME["derived-ring"](dg, 5), "e^2|-1|")
        self.assertEqual(run.run_pass(wl).digest, run.run_pass(wl).digest)


class NamesTest(unittest.TestCase):
    def test_emitted_names_are_declared(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(declared_e2e, run.END_TO_END)
        self.assertEqual(declared_layer, run.per_layer_units())
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.BY_NAME))
        for name in list(declared_e2e) + list(declared_layer):
            self.assertRegex(name, NAME)

        dg = run.import_dgkit()
        wl = small(workloads.BY_NAME["derived-ring"](dg, 1), "e^2|-1|/QQ/k")
        untraced = run.forked_pass(wl)
        e2e, _ = run.end_to_end_metrics([untraced], [0.1])
        self.assertTrue(all(value > 0 for value in e2e.values()))
        self.assertEqual(set(e2e), set(declared_e2e))
        tracer = tracing.Tracer()
        tracing.install_layers(tracer, vars(dg))
        try:
            traced = run.run_pass(wl)
        finally:
            tracer.uninstall()
        layer = run.per_layer_metrics(untraced, traced, tracer)
        self.assertEqual(set(layer), set(declared_layer))
        self.assertGreater(layer["derived.resolve_module.calls"], 0)
        self.assertEqual(layer["derived.resolve_module.minimal_ratio"], 1.0)


class WrappingTest(unittest.TestCase):
    def test_wrapping_changes_no_output(self):
        dg = run.import_dgkit()
        wl = workloads.BY_NAME["scenario-deform"](dg, 3)
        wl = workloads.Workload(wl.name, [i for i in wl.items if i.name.startswith("corpus/")])
        wl.items += small(workloads.BY_NAME["derived-ring"](dg, 3), "e^2|-1|/GF").items
        before = {name: getattr(dg.derived, name) for name in ("resolve_module", "derived_tensor")}
        plain = run.run_pass(wl)
        tracer = tracing.Tracer()
        tracing.install_layers(tracer, vars(dg))
        try:
            self.assertIsNot(dg.derived.resolve_module, before["resolve_module"])
            self.assertIs(dg.verify.resolve_module, dg.derived.resolve_module)
            traced = run.run_pass(wl)
        finally:
            tracer.uninstall()
        self.assertEqual(plain.digest, traced.digest)
        for name, fn in before.items():
            self.assertIs(getattr(dg.derived, name), fn)
        status = run.check_outcomes([plain, traced])
        self.assertTrue(status["correct"])
        self.assertEqual(status["failed"], 0)
        self.assertGreater(tracer.layer_table()["cli.run"]["calls"], 0)


if __name__ == "__main__":
    unittest.main()
