"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

Covers the self-time arithmetic, the reference gate, the seed (which may
reorder jobs but never change them) and the tracer's installation on a
small real job.
"""

from __future__ import annotations

import copy
import time
import unittest
from types import SimpleNamespace

import numpy as np

from jobs import WORKLOADS, job_id, job_order, prepare
from reference import compare, known_value_problems, load_reference
from run import ROOT, run_pass
from tracer import MODULES, Tracer, outermost_time, self_times

SMALL_JOB = ("compute", "--space", "t:circle", "--ring", "z",
             "--max-degree", "2")


class SelfTimeTest(unittest.TestCase):
    # root [0,10] -> a [1,4] -> b [2,3];  root -> c [5,9] -> c' [6,7]
    START = [0.0, 1.0, 2.0, 5.0, 6.0]
    END = [10.0, 4.0, 3.0, 9.0, 7.0]
    PARENT = [-1, 0, 1, 0, 3]

    def test_self_time_is_duration_minus_children(self):
        own = self_times(self.START, self.END, self.PARENT)
        self.assertEqual(own.tolist(), [3.0, 2.0, 1.0, 3.0, 1.0])
        self.assertEqual(own.sum(), 10.0)

    def test_nested_spans_of_one_group_count_once(self):
        names = [0, 1, 2, 3, 3]
        totals = outermost_time(names, self.START, self.END, self.PARENT,
                                {3: 0, 2: 1}, 2)
        self.assertEqual(totals.tolist(), [4.0, 1.0])

    def test_module_self_times_sum_to_root_time(self):
        tracer = Tracer()
        ids = [tracer.name_id(n) for n in
               ("cli.main", "stable.spectrum_homology", "chains.homology",
                "simplicial.NormalizedChains", "simplicial.MSSet.cell")]
        tracer.span_name.extend(ids)
        tracer.span_start.extend(self.START)
        tracer.span_end.extend(self.END)
        tracer.span_parent.extend(self.PARENT)
        tracer.span_job.extend([0] * 5)
        own = tracer.module_self_times()
        self.assertEqual(own, {"cli": 3.0, "stable": 2.0, "segal": 0.0,
                               "simplicial": 4.0, "chains": 1.0,
                               "gamma": 0.0, "trace": 0.0})
        self.assertEqual(sum(own.values()), tracer.root_time())


class HookTest(unittest.TestCase):
    def test_hook_time_is_kept_out_of_program_spans(self):
        tracer = Tracer()

        def slow_hook(*_):
            time.sleep(0.02)
            inner()  # a traced call made by a hook records no span

        inner = tracer.wrap(lambda: None, "chains.coo_mul")
        leaf = tracer.wrap(lambda: None, "chains.homology",
                           before=slow_hook, after=slow_hook)
        root = tracer.wrap(leaf, "cli.main")
        root()
        names = [tracer.names[i] for i in tracer.span_name]
        self.assertEqual(names, ["cli.main", "trace.hooks",
                                 "chains.homology", "trace.hooks"])
        own = tracer.module_self_times()
        self.assertGreaterEqual(own["trace"], 0.04)
        self.assertLess(own["cli"] + own["chains"], 0.01)
        self.assertAlmostEqual(sum(own.values()), tracer.root_time(),
                               places=9)

    def test_rank_repeats_follow_the_entries_the_kernel_ranks(self):
        def coo(row, col, val):
            return SimpleNamespace(
                shape=(2, 3), nnz=len(val),
                row=np.array(row, dtype=np.int64),
                col=np.array(col, dtype=np.int64),
                val=np.array(val, dtype=np.int64))

        tracer = Tracer()
        tracer._count_elimination(coo([], [], []), 2)  # empty
        tracer._count_elimination(coo([0], [1], [2]), 2)  # empty mod 2
        tracer._count_elimination(coo([0, 1], [0, 2], [1, 3]), 2)
        tracer._count_elimination(coo([0, 1], [0, 2], [3, -1]), 2)  # repeat
        tracer._count_elimination(coo([0, 1], [0, 2], [3, -1]))  # over Z
        self.assertEqual(tracer.counts["chains.rank_empty_calls"], 2)
        self.assertEqual(tracer.counts["chains.rank_repeats"], 1)


class ReferenceGateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = load_reference()

    def outcome(self, jid):
        return copy.deepcopy(self.reference[jid])

    def test_every_workload_job_has_a_reference(self):
        for jobs in WORKLOADS.values():
            for job in jobs:
                self.assertIn(job_id(job), self.reference)

    def test_wrong_label_is_caught(self):
        job = WORKLOADS["em-fields"][0]
        wrong = self.outcome(job_id(job))
        wrong["groups"]["deg3"] = "F2^3"
        self.assertTrue(compare(job, self.reference[job_id(job)], wrong))

    def test_wrong_exit_code_is_caught(self):
        job = WORKLOADS["torsion-z"][0]
        wrong = self.outcome(job_id(job))
        wrong["exit"] = 1
        self.assertTrue(compare(job, self.reference[job_id(job)], wrong))

    def test_new_undecided_degree_is_caught(self):
        # A lower budget that leaves a decided degree open, with the exit
        # code the CLI gives for it, must not pass as a faster run.
        job = WORKLOADS["em-fields"][0]
        partial = self.outcome(job_id(job))
        partial["groups"]["deg3"] = "?"
        partial["exit"] = 3
        self.assertTrue(compare(job, self.reference[job_id(job)], partial))

    def test_new_undecided_degree_in_a_check_is_caught(self):
        job = WORKLOADS["segal-checks"][0]
        partial = self.outcome(job_id(job))
        partial["groups"]["r1.wedge-iso.target.deg1"] = "?"
        partial["passed"]["r1.wedge-iso"] = False
        partial["exit"] = 1
        self.assertTrue(compare(job, self.reference[job_id(job)], partial))

    def test_resolving_the_budget_stop_is_not_a_failure(self):
        job = WORKLOADS["segal-checks"][0]
        resolved = self.outcome(job_id(job))
        resolved["groups"]["r2.wedge-iso.target.deg2"] = "F2^3"
        resolved["passed"]["r2.wedge-iso"] = True
        resolved["exit"] = 0
        self.assertEqual(compare(job, self.reference[job_id(job)], resolved),
                         [])
        resolved["groups"]["r2.wedge-iso.target.deg2"] = "F2^2"
        resolved["passed"]["r2.wedge-iso"] = False
        resolved["exit"] = 1
        self.assertTrue(compare(job, self.reference[job_id(job)], resolved))

    def test_reference_agrees_with_known_values(self):
        self.assertEqual(known_value_problems(self.reference), [])
        wrong = copy.deepcopy(self.reference)
        wrong[job_id(SMALL_JOB)]["groups"]["deg1"] = "0"
        self.assertTrue(known_value_problems(wrong))

    def test_wrong_reference_fails_a_real_run(self):
        main = prepare(ROOT)
        wrong = copy.deepcopy(self.reference)
        wrong[job_id(SMALL_JOB)]["groups"]["deg1"] = "Z^2"
        self.assertEqual(len(run_pass(main, [SMALL_JOB], wrong).failures), 1)
        self.assertEqual(run_pass(main, [SMALL_JOB], self.reference).failures,
                         [])


class SeedTest(unittest.TestCase):
    def test_seed_permutes_but_keeps_the_job_set(self):
        for workload, jobs in WORKLOADS.items():
            orders = {tuple(job_order(workload, seed)) for seed in range(20)}
            self.assertGreater(len(orders), 1, workload)
            for order in orders:
                self.assertEqual(sorted(order), sorted(jobs))

    def test_same_seed_same_order(self):
        self.assertEqual(job_order("em-fields", 7), job_order("em-fields", 7))


class TracerTest(unittest.TestCase):
    def test_traced_job_spans_and_restore(self):
        main = prepare(ROOT)
        from gammahom import chains, simplicial, stable
        originals = (chains.homology, stable.homology, simplicial.homology,
                     simplicial.MSSet.cell)
        tracer = Tracer()
        traced_main = tracer.wrap(main, "cli.main")
        reference = load_reference()
        tracer.install()
        self.assertIsNot(stable.homology, originals[1])
        self.assertIs(stable.homology, simplicial.homology)
        try:
            result = run_pass(traced_main, [SMALL_JOB], reference, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(result.failures, [])
        self.assertEqual((chains.homology, stable.homology,
                          simplicial.homology, simplicial.MSSet.cell),
                         originals)
        names = {tracer.names[i] for i in tracer.span_name}
        self.assertTrue({"cli.main", "stable.spectrum_homology",
                         "chains.homology", "chains.smith_normal_form",
                         "simplicial.NormalizedChains"} <= names)
        own = tracer.module_self_times()
        self.assertEqual(set(own), set(MODULES))
        self.assertAlmostEqual(sum(own.values()), tracer.root_time(),
                               places=9)
        metrics = tracer.layer_metrics(1, result.wall, 0.0, result.undecided)
        self.assertGreater(metrics["chains.snf_s"], 0.0)
        self.assertGreater(metrics["simplicial.complexes"], 0)
        self.assertGreaterEqual(metrics["trace.unspanned_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
