"""Self-tests of the benchmark: python3 -m unittest discover -s bench"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import unittest
from dataclasses import replace
from unittest import mock

import oracle
import run
import spans
import workloads

CYCLES = {
    "cli_mix": len(workloads.CLI_TEMPLATES),
    "product_kunneth": len(workloads.PRODUCT_TEMPLATES),
    "snf_presentations": len(workloads.SNF_TEMPLATES),
}


def one_cycle(name: str, seed: int = 7):
    homcap = run.import_homcap()
    inputs = run.WORKLOADS[name].build(homcap, random.Random(seed))
    return homcap, list(itertools.islice(inputs, CYCLES[name]))


def tiny(name: str) -> run.Spec:
    return replace(run.WORKLOADS[name], pool=CYCLES[name], warmup=1, traced=CYCLES[name])


class WorkloadsComplete(unittest.TestCase):
    def test_every_template_of_every_workload_passes_its_check(self):
        for name in run.WORKLOADS:
            _, cases = one_cycle(name)
            for case in cases:
                answer, _, error = run.attempt(case)
                with self.subTest(workload=name, case=case.text[:80]):
                    self.assertIsNone(error)
                    self.assertTrue(run.judge(case, answer, error))

    def test_end_to_end_reports_every_metric(self):
        metrics, attempted, failed, _ = run.end_to_end(tiny("cli_mix"), 3, 0.05)
        self.assertEqual(
            set(metrics),
            {"setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"},
        )
        self.assertGreaterEqual(attempted, 1)
        self.assertEqual(failed, 0)
        self.assertTrue(all(value > 0 for value, _ in metrics.values()))


class FailuresAreCounted(unittest.TestCase):
    def assert_one_failure(self, case):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            calls, failed = run.measure([case], 0.0)
        self.assertEqual((len(calls.wall), failed), (1, 1))
        self.assertIn("failed:", err.getvalue())

    def test_wrong_expected_value_is_a_failure(self):
        _, cases = one_cycle("cli_mix")
        right = cases[0]  # capacity of a sphere wedge
        wrong = dict(right.expected(), capacity={"kind": "finite", "value": -1})
        self.assert_one_failure(
            workloads.Case(right.text, right.call, lambda: wrong, workloads._cli_judge)
        )

    def test_exception_is_a_failure(self):
        def boom():
            raise ValueError("boom")

        self.assert_one_failure(workloads.Case("raises", boom, dict, lambda a, e: True))

    def test_nonzero_exit_is_a_failure(self):
        run.import_homcap()
        import homcap.cli as cli

        call = workloads._cli_call(cli, ["capacity", "S^", "--json"])
        self.assert_one_failure(workloads.Case("parse error", call, dict, workloads._cli_judge))


class Scaling(unittest.TestCase):
    def test_steps_are_scaled_by_the_reference_around_their_block(self):
        r = run.REFERENCE_S
        with mock.patch.object(run, "reference", side_effect=[2 * r, 4 * r, 4 * r]):
            blocks = run.Blocks()
            blocks.add(run.BLOCK_S)  # fills the first block, which closes
            blocks.add(0.01)
            blocks.close()
        self.assertEqual(blocks.wall, [run.BLOCK_S, 0.01])
        self.assertEqual(blocks.refs, [2 * r, 4 * r, 4 * r])
        for got, want in zip(blocks.scaled, [run.BLOCK_S / 3, 0.01 / 4]):
            self.assertAlmostEqual(got, want)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        spec = tiny("snf_presentations")
        self.assertEqual(run.setup(spec, 5)[2], run.setup(spec, 5)[2])
        self.assertNotEqual(run.setup(spec, 5)[2], run.setup(spec, 6)[2])


class Tracing(unittest.TestCase):
    def test_capacity_of_three_factor_product_has_eight_profile_spans(self):
        homcap = run.import_homcap()
        space = homcap.Product((homcap.Sphere(2), homcap.Sphere(3), homcap.Sphere(4)))
        original = homcap.capacity
        rec = spans.Recorder()
        restore = spans.install(rec)
        try:
            answer = homcap.capacity(space)
        finally:
            restore()
        self.assertIs(homcap.capacity, original)
        self.assertEqual(answer.value, 8)
        m = spans.layer_metrics(rec, 1)
        self.assertEqual(m["capacity.capacity.calls"], 1)
        self.assertEqual(m["spaces.homology_profile.calls"], 8)
        self.assertEqual(m["capacity.profiles_per_answer"], 8)
        self.assertEqual(m["capacity.distinct_profile_frac"], 1.0)
        self.assertEqual(m["cli.main.calls"], 0)
        self.assertEqual(m["abelian.smith_normal_form.calls"], 0)

    def test_traced_answers_match_and_layers_are_bypassed(self):
        bypassed = {
            "cli_mix": ["abelian.smith_normal_form.calls"],
            "product_kunneth": [
                "grammar.parse.calls", "cli.main.calls", "abelian.smith_normal_form.calls",
            ],
            "snf_presentations": [
                "grammar.parse.calls", "cli.main.calls", "spaces.canonicalize.calls",
                "spaces.homology_profile.calls", "capacity.capacity.calls",
            ],
        }
        exercised = {
            "cli_mix": ["grammar.parse.calls", "cli.main.calls", "abelian.summands.self_s"],
            "product_kunneth": [
                "capacity.capacity.calls", "spaces.homology_profile.calls", "abelian.tor.calls",
            ],
            "snf_presentations": ["abelian.smith_normal_form.calls"],
        }
        for name in run.WORKLOADS:
            metrics, attempted, failed, _ = run.traced(tiny(name), 3, 0.0)
            with self.subTest(workload=name):
                self.assertEqual(failed, 0)
                self.assertEqual(attempted, 2 * CYCLES[name])
                for metric in bypassed[name]:
                    self.assertEqual(metrics[metric][0], 0, metric)
                for metric in exercised[name]:
                    self.assertGreater(metrics[metric][0], 0, metric)


class Oracle(unittest.TestCase):
    def test_sphere_products_have_distinct_sub_multisets(self):
        for dims in ([2, 2, 3], [2, 3, 4, 4, 2], [3, 3, 3, 3, 3]):
            descs = [("S", d) for d in dims]
            self.assertEqual(oracle.product_lower_bound(descs), oracle.sub_multisets(dims))

    def test_invariant_factors_and_rendering(self):
        g = oracle.group(2, [12, 2, 9])
        self.assertEqual(oracle.invariant_factors(g), (6, 36))
        self.assertEqual(oracle.render(g), "Z^2 + Z/6 + Z/36")
        self.assertEqual(oracle.summand_count(g), 3 * 2 * 2 * 2 * 2)
        self.assertEqual(len(oracle.summand_classes(g)), oracle.summand_count(g))

    def test_kunneth_tor_term(self):
        # M(Z/2,2) x M(Z/2,2): H_2 = (Z/2)^2, H_4 = Z/2, H_5 = Tor(Z/2, Z/2)
        h = oracle.product_homology([("M", 2, 2), ("M", 2, 2)], 6)
        self.assertEqual(
            {n: oracle.render(g) for n, g in h.items()},
            {0: "Z", 2: "Z/2 + Z/2", 4: "Z/2", 5: "Z/2"},
        )


if __name__ == "__main__":
    unittest.main()
