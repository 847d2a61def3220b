"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the tracer sees calls made through imported names and
leaves nothing installed, that a wrong carrier is caught, that a seed
reproduces its inputs and counts exactly, also when a longer run repeats
more items, and that every per-layer
metric in BENCHMARK.json is mapped to one end-to-end metric and one
workload.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import laws  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from domkit.doms import CutDom  # noqa: E402

MODS = workloads.import_layers()


class WrongAdd(CutDom):
    """A cut carrier whose sum is the right sum: wrong on half-open cuts."""

    def add(self, x, y):
        return super().radd(x, y)


def traced_counts(seed: int, count: int) -> tuple:
    wl = workloads.make("law-suite", seed, MODS, ROOT, HERE / ".work")
    items = workloads.trace_items(wl, wl.next_item())[:count]
    tracer = Tracer(MODS, [workloads, inputs, laws])
    tracer.install()
    try:
        for item in items:
            wl.run(item)
    finally:
        tracer.remove()
    return tuple(tracer.calls), dict(tracer.entries), tracer.span_count()


class TracerTest(unittest.TestCase):
    def test_sees_imported_names_and_restores(self):
        cuts, oracle, groups = MODS["cuts"], MODS["oracle"], MODS["groups"]
        originals = (cuts.make_node, oracle.make_node, oracle.shift_by,
                     groups.Group.__dict__["quotient"])
        g = groups.Group.lex(groups.Group.Q(), groups.Group.Q())
        a = cuts.level_edge(g, 1)
        b = cuts.make_node(g, 0, (0, 0), cuts.PLUS)
        tracer = Tracer(MODS, [])
        tracer.install()
        try:
            self.assertIsNot(oracle.make_node, originals[1])
            oracle.oracle_sum(g, a, b)
        finally:
            tracer.remove()
        self.assertGreater(tracer.calls_from("cuts.make_node", "oracle"), 0)
        self.assertGreater(tracer.calls_from("cuts.shift_by", "oracle"), 0)
        self.assertGreater(tracer.calls_of("groups.Group.quotient"), 0)
        self.assertEqual(tracer.entries["oracle"], 1)
        self.assertEqual(tracer.installed_wrappers(), [])
        self.assertEqual((cuts.make_node, oracle.make_node, oracle.shift_by,
                          groups.Group.__dict__["quotient"]), originals)

    def test_calls_inside_a_layer_open_no_span(self):
        cuts, groups = MODS["cuts"], MODS["groups"]
        g = groups.Group.Q()
        a = cuts.make_node(g, 0, (1,), cuts.PLUS)
        tracer = Tracer(MODS, [])
        tracer.install()
        try:
            cuts.rsub(g, a, a)
        finally:
            tracer.remove()
        # rsub -> neg, radd -> make_node stay in cuts: counted, one span
        self.assertEqual(tracer.entries["cuts"], 1)
        self.assertGreaterEqual(tracer.calls_of("cuts.make_node"), 2)


class CorrectnessTest(unittest.TestCase):
    def run_items(self, name: str, count: int, wrong: bool) -> list:
        wl = workloads.make(name, 3, MODS, ROOT, HERE / ".work")
        if wrong:
            wl.carriers = {k: WrongAdd(d.group, d.field) for k, d in wl.carriers.items()}
        return [wl.run(wl.next_item())[1] for _ in range(count)]

    def test_wrong_add_fails_the_law_suite(self):
        self.assertEqual([f for f in self.run_items("law-suite", 100, False) if f], [])
        failures = [f for f in self.run_items("law-suite", 100, True) if f]
        self.assertGreater(len(failures), 0)
        self.assertTrue(all(f.known is None for f in failures))

    def test_wrong_add_fails_the_oracle_check(self):
        failures = [f for f in self.run_items("oracle-verify", 100, True) if f]
        self.assertTrue(any(f.known is None and "add(" in f.detail for f in failures))


def text(make_stream, seed: int) -> str:
    """Canonical text of the first 200 generated items."""
    carriers = inputs.make_carriers()
    stream = make_stream(seed, carriers)
    return "\n".join(" ".join(carriers[name].fmt(c) for c in cuts)
                     for name, cuts in (next(stream) for _ in range(200)))


class SeedTest(unittest.TestCase):
    def orders(self, name: str, seed: int) -> list:
        wl = workloads.make(name, seed, MODS, ROOT, HERE / ".work")
        items = [wl.next_item() for _ in range(3 * wl.request_size)]
        return [c[0] for c in items] if name == "enumerate" else [spec["id"] for spec in items]

    def test_same_seed_same_inputs(self):
        for make_stream in (inputs.law_tuples, inputs.oracle_pairs):
            self.assertEqual(text(make_stream, 5), text(make_stream, 5))
            self.assertNotEqual(text(make_stream, 5), text(make_stream, 6))
        for name in ("enumerate", "cli"):
            self.assertEqual(self.orders(name, 5), self.orders(name, 5))
            self.assertNotEqual(self.orders(name, 5), self.orders(name, 6))

    def test_same_seed_same_counts(self):
        self.assertEqual(traced_counts(5, 20), traced_counts(5, 20))

    def test_counts_do_not_depend_on_run_length(self):
        import run

        def counts(seconds: float) -> tuple:
            wl = workloads.make("oracle-verify", 5, MODS, ROOT, HERE / ".work")
            wl.round_size = wl.request_size = 40
            _, _, _, items, distinct, failures = run.timed_loop(wl, wl.next_item(), seconds)
            return items, distinct, [f.detail for f in failures]

        short, long = counts(0.0), counts(0.3)
        self.assertEqual(short[0], 40)
        self.assertGreater(long[0], 40)
        self.assertEqual(short[1:], long[1:])

    def test_irrational_values_only_at_anchors(self):
        stream = inputs.law_tuples(9, inputs.make_carriers())
        for _ in range(500):
            _, tup = next(stream)
            for c in tup:
                if c.kind == "n":
                    self.assertTrue(all(getattr(v, "b", 0) == 0 for v in c.prefix[:-1]))


class MetricMapTest(unittest.TestCase):
    def test_every_layer_metric_is_mapped(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        mapping = json.loads((HERE / "metrics.json").read_text())["per_layer"]
        e2e = {m["name"] for m in bench["end_to_end"]}
        names = {w["name"] for w in bench["workloads"]}
        for m in bench["per_layer"]:
            entry = mapping.get(m["name"])
            self.assertIsNotNone(entry, m["name"])
            self.assertIn(entry["moves"], e2e, m["name"])
            self.assertIn(entry["workload"], names, m["name"])
        self.assertEqual(set(mapping), {m["name"] for m in bench["per_layer"]})


if __name__ == "__main__":
    unittest.main()
