"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Checks that installing the tracer replaces every alias of each wrapped
function and that uninstalling restores them; that a traced pass gives
the same counts twice; and that the cells predicted to be zero (a layer a
workload never calls) are zero. Takes about a minute.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

# workload -> count metrics (or metric prefixes) predicted to be zero on it
PREDICTED_ZERO = {
    "search": ("linalg.rref_calls", "linalg.matmul_calls", "linalg.rref_cells",
               "matrep.image_calls", "matrep.fixdim_calls", "matrep.image_entries"),
    "characters": ("matrep.", "gensearch.", "bounds."),
    "modules": ("chartab.", "weights.", "gensearch."),
}


def counts_only(metrics):
    return {k: v for k, v in metrics.items() if run.unit_of(k) == "count"}


def traced_counts(name):
    """Count metrics of two traced runs of pass 0 of one workload."""
    wl = workloads.make(name, run.ROOT)
    ctx = wl.setup()
    tasks = wl.tasks(ctx, 1)
    out = []
    for _ in range(2):
        if isinstance(wl, workloads.Verify):
            wl.mode = "spans"
            outputs, _, _ = run.run_pass(tasks)
            metrics = run.sum_layers([o[2] for o in outputs])
        else:
            t = tr.Tracer()
            t.install()
            try:
                run.run_pass(tasks)
            finally:
                t.uninstall()
            metrics = tr.layer_metrics(t)
        out.append(counts_only(metrics))
    return out


class Aliases(unittest.TestCase):
    def test_every_alias_replaced_and_restored(self):
        import fixspace.cli  # noqa: F401  (loads every fixspace module)
        points = tr.SPAN_POINTS + tr.COUNT_POINTS + tr.FIELD_OPS
        before = {}
        for modname, clsname, attr, _ in points:
            owner = sys.modules[modname]
            if clsname:
                owner = getattr(owner, clsname)
            before[(modname, clsname, attr)] = vars(owner)[attr]
        originals = {id(f) for f in before.values()}
        bound = [(m, k) for m in list(sys.modules.values())
                 if m is not None and m.__name__.startswith("fixspace")
                 for k, v in vars(m).items() if id(v) in originals]
        self.assertIn(("fixspace.bounds", "fixed_space_dim"),
                      [(m.__name__, k) for m, k in bound])
        self.assertIn(("fixspace.gensearch", "element_order"),
                      [(m.__name__, k) for m, k in bound])

        t = tr.Tracer()
        t.install(spans=True, field_ops=True)
        try:
            for m in list(sys.modules.values()):
                if m is None or not m.__name__.startswith("fixspace"):
                    continue
                for k, v in vars(m).items():
                    self.assertNotIn(id(v), originals, f"{m.__name__}.{k} not wrapped")
            for (modname, clsname, attr), fn in before.items():
                if clsname:
                    owner = getattr(sys.modules[modname], clsname)
                    self.assertIs(vars(owner)[attr].__wrapped__, fn)
        finally:
            t.uninstall()
        for module, name in bound:
            self.assertIn(id(getattr(module, name)), originals)
        for (modname, clsname, attr), fn in before.items():
            owner = sys.modules[modname]
            if clsname:
                owner = getattr(owner, clsname)
            self.assertIs(vars(owner)[attr], fn)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        t = tr.Tracer()
        t.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0),
                   ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
        st = t.self_times()
        self.assertEqual(st["a"], (1, 6.0))
        self.assertEqual(st["b"], (2, 3.0))
        self.assertEqual(st["c"], (1, 1.0))


class Counts(unittest.TestCase):
    def check_workload(self, name):
        first, second = traced_counts(name)
        self.assertEqual(first, second, f"{name}: counts differ between traced runs")
        for prefix in PREDICTED_ZERO.get(name, ()):
            for key, value in first.items():
                if key.startswith(prefix):
                    self.assertEqual(value, 0, f"{name}: {key} predicted zero")
        return first

    def test_modules(self):
        self.assertGreater(self.check_workload("modules")["linalg.rref_calls"], 0)

    def test_search(self):
        self.assertGreater(self.check_workload("search")["perm.chain_builds"], 0)

    def test_characters(self):
        self.assertGreater(self.check_workload("characters")["chartab.triple_counts"], 0)

    def test_verify(self):
        self.assertGreater(self.check_workload("verify")["gensearch.attempts"], 0)


if __name__ == "__main__":
    unittest.main()
