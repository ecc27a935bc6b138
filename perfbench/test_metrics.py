"""Self-tests of the benchmark's metric definitions.

    python3 perfbench/test_metrics.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

MS = 1_000_000  # ns


class TailPercentile(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_reported_value(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = metrics.tail_percentile(values)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(n, 100)

    def test_percentile_rises_with_sample_count(self):
        value, pct, n = metrics.tail_percentile(list(range(1000)))
        self.assertEqual(value, 989)
        self.assertAlmostEqual(pct, 99.0)

    def test_order_of_input_does_not_matter(self):
        values = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 0, 12]
        self.assertEqual(metrics.tail_percentile(values)[0], 2)

    def test_too_few_samples(self):
        self.assertIsNone(metrics.tail_percentile(list(range(10))))
        self.assertEqual(metrics.tail_percentile(list(range(11)))[0], 0)


class SteadySteps(unittest.TestCase):
    def test_drops_first_step_and_epoch_crossings(self):
        # 2 epochs × 4 batches; each step b of epoch e takes (10e + b + 1) ms,
        # and evaluation between epochs takes 500 ms.
        probes, t = [], 0
        for e in range(2):
            for b in range(4):
                probes.append((e, b, t))
                t += (10 * e + b + 1) * MS
            t += 500 * MS
        steps = metrics.steady_steps(probes)
        # Epoch 0 keeps steps 1, 2 (step 0 is the run's first; step 3 ends
        # at the next epoch's first probe, after evaluation). Epoch 1 keeps
        # steps 0..2.
        self.assertEqual(steps, [2 * MS, 3 * MS, 11 * MS, 12 * MS, 13 * MS])

    def test_resumed_run_drops_its_own_first_step(self):
        probes = [(3, 0, 0), (3, 1, 7 * MS), (3, 2, 9 * MS)]
        self.assertEqual(metrics.steady_steps(probes), [2 * MS])


class WaitXferMerge(unittest.TestCase):
    def test_synthetic_three_rank_timeline(self):
        # seq 0: ranks enter at 0, 2, 5 ms; all leave at 6 ms.
        # seq 1: rank 1 enters last at 20 ms; exits 21, 22, 23 ms.
        ranks = [
            [(0, 0 * MS, 6 * MS), (1, 10 * MS, 21 * MS)],
            [(0, 2 * MS, 6 * MS), (1, 20 * MS, 22 * MS)],
            [(0, 5 * MS, 6 * MS), (1, 15 * MS, 23 * MS)],
        ]
        split = metrics.merge_wait_xfer(ranks)
        self.assertEqual(split[0][0], (5 * MS, 1 * MS))
        self.assertEqual(split[1][0], (3 * MS, 1 * MS))
        self.assertEqual(split[2][0], (0, 1 * MS))
        self.assertEqual(split[0][1], (10 * MS, 1 * MS))
        self.assertEqual(split[1][1], (0, 2 * MS))
        self.assertEqual(split[2][1], (5 * MS, 3 * MS))
        for rank_split, comms in zip(split, ranks):
            for seq, entry, exit_ in comms:
                wait, xfer = rank_split[seq]
                self.assertEqual(wait + xfer, exit_ - entry)

    def test_exit_before_last_entry_is_all_wait(self):
        # A clock-skew artefact must not produce negative transfer.
        split = metrics.merge_wait_xfer([[(0, 0, 3)], [(0, 5, 9)]])
        self.assertEqual(split[0][0], (3, 0))


class TimeToTarget(unittest.TestCase):
    def setUp(self):
        self.probes = [(0, 0, 1000 * MS), (0, 1, 1100 * MS)]
        # Evaluation of epoch e (0-based) ends at 2 s, 4 s, 6 s after start.
        self.evals = [(0, 3000 * MS), (1, 5000 * MS), (2, 7000 * MS)]

    def epochs(self, accs):
        return [{"epoch": i + 1, "val_accuracy": a} for i, a in enumerate(accs)]

    def test_counts_to_end_of_first_crossing_evaluation(self):
        got = metrics.time_to_target(self.probes, self.evals,
                                     self.epochs([0.5, 0.91, 0.95]), target=0.9)
        self.assertEqual(got, (4.0, 2))

    def test_later_dip_does_not_matter(self):
        got = metrics.time_to_target(self.probes, self.evals,
                                     self.epochs([0.92, 0.5, 0.95]), target=0.9)
        self.assertEqual(got, (2.0, 1))

    def test_reaching_exactly_the_target_counts(self):
        got = metrics.time_to_target(self.probes, self.evals,
                                     self.epochs([0.5, 0.5, 0.9]), target=0.9)
        self.assertEqual(got, (6.0, 3))

    def test_never_reached(self):
        self.assertIsNone(metrics.time_to_target(
            self.probes, self.evals, self.epochs([0.5, 0.6, 0.7]), target=0.9))

    def test_setup_seconds_ends_at_first_step(self):
        self.assertAlmostEqual(metrics.setup_seconds(900 * MS, self.probes), 0.2)


class CommCounts(unittest.TestCase):
    def rank_file(self, backend):
        comms = [[0, "broadcast", "other", 0, 1, 40, 0, 0, False],
                 [1, "allreduce", "grad", 2, 3, 400, 0, 1, False],
                 [2, "allreduce", "factor", 4, 5, 100, 0, 2, False],
                 [3, "barrier", "other", 6, 7, 0, 0, 3, False],
                 [4, "allgather", "decomp", 8, 9, 64, 0, 4, False]]
        return {"rank": 0, "comms": comms, "backend": backend}

    def test_exact_match_and_mismatch(self):
        backend = {"allreduce_calls": 2, "allreduce_bytes": 500,
                   "allgather_calls": 1, "allgather_bytes": 64,
                   "broadcast_calls": 1, "broadcast_bytes": 40}
        self.assertEqual(metrics.comm_count_mismatches(self.rank_file(backend)), [])
        backend["allreduce_calls"] = 3
        self.assertEqual(len(metrics.comm_count_mismatches(self.rank_file(backend))), 1)


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         metrics.per_layer_specs())

    def test_layer_names_are_the_22_kfac_layers(self):
        names = metrics.layer_names()
        self.assertEqual(len(names), 22)
        self.assertEqual(len(set(names)), 22)


if __name__ == "__main__":
    unittest.main()
