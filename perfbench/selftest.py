"""Self-test of the benchmark harness on tiny inputs.

Runs every workload's code path (the certify pass on example1 and example2,
the audit pass on the failing twelve-set family and a small passing code
check, a short trace mix on the twelve-user code), checks that the gate
catches a wrong pin, that the tracer patches every lookup site and restores
it, and that self time is computed correctly, in seconds.  Run from the
root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import acckit
from acckit import arrays, families, gf, presets

import workloads as wl
from spans import Span, Tracer


def build_example1():
    book = arrays.load_codebook(presets.fixture_path("example2_code.json"))
    return acckit.build_theorem1_acc(book, wl.singletons(3), 2)[0]


def tiny_checks(out_dir, gate):
    family = presets.fixture_path("example1_family.json")
    twelve = families.load_family(family)
    w3 = arrays.build_W(gf.GF(3), 2, 3)
    return [
        wl.Check("family verify cff",
                 lambda: wl.run_cli(["family", "verify", "--family",
                                     str(family), "--prop", "cff", "--K",
                                     "2"]),
                 {"exit": 1, "ok": False, "checked": 792,
                  "witness": {"kind": "cover", "j2": [0, 4], "covered": 9}},
                 replay_on=twelve),
        wl.Check("is_k_ud_code W3",
                 lambda: families.is_k_ud_code(w3, 2).to_json_dict(),
                 {"ok": True, "checked": 78}),
    ]


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(dir=ROOT)
        self.out = Path(self.tmp.name)
        self.gate = wl.Gate()

    def tearDown(self):
        self.tmp.cleanup()

    def run_workload(self, workload, passes=1, tracer=None):
        workload.setup(7, self.out, self.gate)
        ops = [workload.run_pass(i, self.gate, tracer or wl.NullTracer())
               for i in range(passes)]
        self.assertEqual(self.gate.problems, [])
        return ops

    def test_certify_pass(self):
        certify = wl.Certify("tiny", ["example1", "example2"],
                             heavy="preset example1")
        (ops,) = self.run_workload(certify)
        self.assertEqual([label for label, _ in ops],
                         ["preset example1", "preset example2"])
        self.assertEqual(self.gate.attempted, 2)
        self.assertTrue(all(dt > 0 for _, dt in ops))

    def test_audit_pass_pins_failing_witness(self):
        audit = wl.Audit("tiny", tiny_checks, heavy="family verify cff")
        (ops,) = self.run_workload(audit)
        self.assertEqual(len(ops), 2)
        self.assertEqual(self.gate.failed, 0)

    def test_gate_counts_a_wrong_pin(self):
        def wrong(out_dir, gate):
            checks = tiny_checks(out_dir, gate)
            checks[0].want = {**checks[0].want,
                              "witness": {"kind": "cover", "j2": [0, 5],
                                          "covered": 9}}
            return checks

        audit = wl.Audit("tiny", wrong, heavy="family verify cff")
        audit.setup(7, self.out, self.gate)
        audit.run_pass(0, self.gate, wl.NullTracer())
        self.assertEqual((self.gate.attempted, self.gate.failed), (2, 1))

    def test_trace_mix(self):
        mix = wl.TraceMixed("tiny", [("example1", build_example1, 1)],
                            zero="example1", batch=40)
        ops = self.run_workload(mix, passes=2)
        self.assertEqual([len(p) for p in ops], [41, 41])
        self.assertEqual(self.gate.attempted, 1 + 2 * 41)
        # Same seed and pass index, same inputs.
        again = wl.TraceMixed("tiny", [("example1", build_example1, 1)],
                              zero="example1", batch=40)
        tracer = Tracer()
        with tracer.installed():
            self.run_workload(again, passes=1, tracer=tracer)
        first = Tracer()
        with first.installed():
            mix.run_pass(0, self.gate, first)
        cands = [s.counts["candidates"] for s in tracer.spans
                 if s.name == "collusion.trace"]
        self.assertEqual(cands, [s.counts["candidates"] for s in first.spans
                                 if s.name == "collusion.trace"])

    def test_tracer_patches_every_lookup_and_restores(self):
        original, init = families.is_k_cff, gf.GF.__init__
        tracer = Tracer()
        with tracer.installed():
            self.assertIsNot(acckit.accs.is_k_cff, original)
            self.assertIsNot(gf.GF.__init__, init)
            self.assertIs(acckit.accs.is_k_cff, acckit.presets.is_k_cff)
            self.assertIs(acckit.accs.is_k_cff, acckit.families.is_k_cff)
            acckit.run_preset("example1")
        self.assertIs(acckit.accs.is_k_cff, original)
        self.assertIs(acckit.presets.is_k_cff, original)
        self.assertIs(gf.GF.__init__, init)
        names = {s.name for s in tracer.spans}
        self.assertLessEqual({"presets.run_preset", "families.is_k_cff",
                              "families.is_k_udf", "accs.build_theorem1_acc",
                              "accs.build_h0", "accs.acc_to_family"}, names)
        by_id = {s.id: s for s in tracer.spans}
        cff = next(s for s in tracer.spans if s.name == "families.is_k_cff")
        chain = []
        while cff.parent is not None:
            cff = by_id[cff.parent]
            chain.append(cff.name)
        self.assertEqual(chain[-1], "presets.run_preset")

    def test_self_time_arithmetic(self):
        t = Tracer()
        t.spans = [Span(0, None, 0, "outer", 0.0, 10.0),
                   Span(1, 0, 0, "inner", 1.0, 4.0),
                   Span(2, 0, 0, "inner", 6.0, 7.5),
                   Span(3, 2, 0, "inner", 6.5, 7.0)]
        self.assertEqual(t.self_times(), {0: 5.5, 1: 3.0, 2: 1.0, 3: 0.5})
        totals = t.totals()
        self.assertEqual(totals["inner"]["s"], 4.5)  # span 3 is nested
        self.assertEqual(totals["inner"]["self_s"], 4.5)
        self.assertEqual(totals["outer"]["self_s"], 5.5)

    def test_self_time_in_seconds(self):
        t = Tracer()
        inner = t.wrap("inner", lambda: time.sleep(0.05))

        def body():
            time.sleep(0.02)
            inner()
            time.sleep(0.03)

        with t.request("op"):
            t.wrap("outer", body)()
        selfs = t.self_times()
        outer, inner_span = t.spans[1], t.spans[2]
        self.assertEqual((outer.parent, inner_span.parent), (0, 1))
        self.assertAlmostEqual(outer.duration, 0.10, delta=0.03)
        self.assertAlmostEqual(selfs[outer.id], 0.05, delta=0.02)
        self.assertAlmostEqual(selfs[inner_span.id], 0.05, delta=0.02)
        self.assertLess(selfs[t.spans[0].id], 0.01)


if __name__ == "__main__":
    unittest.main()
