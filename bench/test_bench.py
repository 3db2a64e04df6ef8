"""Tests of the benchmark itself: span arithmetic, and that each check
catches a corrupted output. Run with `python3 -m unittest discover -s bench`
(or `python3 -m pytest bench`) from the repository root."""

from __future__ import annotations

import copy
import dataclasses
import re
import time
import unittest

import checks
import inputs
import program
import run
import spans
from checks import OwnDb
from workloads import Corpus, Correct, Roundtrip

_ENV: list = []


def _env():
    """Program set-up and own databases over the store generated for seed 7, built once."""
    if not _ENV:
        out_dir = run.OUT / "test"
        scripts = run.write_dbs(7, out_dir / "dbs")
        prog = program.setup(run.ROOT, out_dir / "dbs")
        _ENV.append((prog, {name: OwnDb(script) for name, script in scripts.items()}, out_dir))
    return _ENV[0]


class SmallRoundtrip(Roundtrip):
    QUERIES = 40


class SmallCorpus(Corpus):
    SEEDS = 40


class SmallCorrect(Correct):
    SEEDS = 30


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] has children a [1, 4] and b [3, 6], which overlap as
        # spans of two threads would; a has child c [2, 3]; d [9, 12]
        # overruns its parent and is clipped to it.
        tree = [["root", 0.0, 10.0, -1, None, 0],
                ["a", 1.0, 4.0, 0, None, 0],
                ["b", 3.0, 6.0, 0, None, 0],
                ["c", 2.0, 3.0, 1, None, 0],
                ["d", 9.0, 12.0, 0, None, 0]]
        self.assertEqual(spans.self_times(tree), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_nested_wrappers_sum_to_wall(self):
        tracer = spans.Tracer()

        def leaf():
            time.sleep(0.002)

        leaf_t = tracer.wrap("leaf", leaf)

        def outer():
            leaf_t()
            time.sleep(0.001)
            leaf_t()

        outer_t = tracer.wrap("outer", outer)
        tracer.on = True
        start = time.perf_counter()
        outer_t()
        wall = time.perf_counter() - start
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["outer", "leaf", "leaf"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        selfs = spans.self_times(tracer.spans)
        self.assertLessEqual(sum(selfs), wall)
        self.assertAlmostEqual(sum(selfs), tracer.spans[0][2] - tracer.spans[0][1], places=9)

    def test_install_rebinds_every_name_and_uninstall_restores(self):
        prog, _, _ = _env()
        originals = (prog.m["pipeline"].parse_trajectory, prog.m["trajectory"].parse_trajectory)
        self.assertIs(originals[0], originals[1])
        tracer = spans.Tracer()
        tracer.install(prog.m, prog.backends)
        try:
            self.assertIsNot(prog.m["pipeline"].parse_trajectory, originals[0])
            self.assertIs(prog.m["pipeline"].parse_trajectory,
                          prog.m["trajectory"].parse_trajectory)
            self.assertIn("invoke", vars(prog.backends["bam"]))
        finally:
            tracer.uninstall()
        self.assertIs(prog.m["pipeline"].parse_trajectory, originals[0])
        self.assertNotIn("invoke", vars(prog.backends["bam"]))


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        ddl = inputs.store_ddl((run.FIXTURES / "dbs" / "store.sqlite.sql").read_text("utf-8"))
        self.assertEqual(inputs.store_script(ddl, 3), inputs.store_script(ddl, 3))
        self.assertNotEqual(inputs.store_script(ddl, 3), inputs.store_script(ddl, 4))
        queries = [f"SELECT customers.name FROM customers WHERE customers.age > {i}"
                   for i in range(10)]
        self.assertEqual(inputs.make_seeds(queries, 5), inputs.make_seeds(queries, 5))

    def test_rewrite_keeps_literals(self):
        sql = "SELECT orders.status FROM orders WHERE orders.status = 'SELECT' LIMIT 2"
        self.assertEqual(inputs.lower_keywords(sql),
                         "select orders.status from orders where orders.status = 'SELECT' limit 2")
        self.assertIsNone(inputs.single_table(
            "SELECT customers.name FROM customers JOIN orders ON orders.customer_id = customers.id"))


def _literal_changes(sql: str):
    """`sql` with one integer literal changed, for each integer literal."""
    for m in re.finditer(r"(?<![\w.'])(\d+)(?![\w.'])", sql):
        yield sql[:m.start()] + str(int(m.group(1)) + 17) + sql[m.end():]


class RoundtripCheckTest(unittest.TestCase):
    def test_passes_then_catches_changed_literal(self):
        prog, own, out_dir = _env()
        work = SmallRoundtrip(prog, 7, own, out_dir)
        reports = work.run(spans.Tracer())
        self.assertEqual(work.check(reports), [])
        i, changed = next(
            (i, changed) for i, r in enumerate(reports) for changed in _literal_changes(r.reverted.text)
            if not checks.same_rows(own["store"].rows(changed), work.rows[i],
                                    inputs.has_order_by(changed)))
        reports[i] = dataclasses.replace(reports[i], reverted=dataclasses.replace(
            reports[i].reverted, text=changed))
        self.assertEqual(work.check(reports), [i])


class CorpusCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        prog, own, out_dir = _env()
        cls.work = SmallCorpus(prog, 7, own, out_dir)
        cls.out = cls.work.run(spans.Tracer())

    def test_only_the_probe_pair_fails(self):
        self.assertEqual(set(self.work.check(self.out)), set(inputs.PROBE_IDS))

    def test_catches_dropped_lom_record(self):
        out = copy.deepcopy(self.out)
        dropped = next(r for r in out.lom.records
                       if r.provenance.get("source") == "initial-error")
        out.lom.records.remove(dropped)
        failed = set(self.work.check(out))
        self.assertIn(dropped.provenance["seed_id"], failed)
        self.assertIn("<lom totals>", failed)

    def test_catches_record_credited_to_wrong_seed(self):
        out = copy.deepcopy(self.out)
        index, record = next((i, r) for i, r in enumerate(out.lom.records)
                             if r.provenance.get("source") == "perturbation"
                             and r.provenance["seed_id"] not in inputs.PROBE_IDS)
        owner = record.provenance["seed_id"]
        other = next(s["id"] for s in self.work.seed_dicts if s["id"] != owner)
        out.lom.records[index] = dataclasses.replace(
            record, provenance={**record.provenance, "seed_id": other})
        failed = set(self.work.check(out))
        self.assertTrue({owner, other} <= failed)


class CorrectCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        prog, own, out_dir = _env()
        cls.work = SmallCorrect(prog, 7, own, out_dir)
        cls.results, cls.report = cls.work.run(spans.Tracer())
        cls.own = own

    def test_passes(self):
        self.assertEqual(self.work.check((self.results, self.report)), [])

    def test_catches_wrong_verdict(self):
        flipped = copy.deepcopy(self.report)
        verdict = flipped.per_instance[0]
        verdict.baseline_correct = not verdict.baseline_correct
        self.assertEqual(self.work.check((self.results, flipped)), [verdict.seed_id])

    def test_catches_reverted_query_with_changed_literal(self):
        truths = self.work.truths
        i, changed = next(
            (i, changed) for i, r in enumerate(self.results) if r.feedback and r.feedback.reverted_sql
            for changed in _literal_changes(r.feedback.reverted_sql)
            if not checks.same_rows(self.own["store"].rows(changed), truths[r.seed_id].initial_rows,
                                    truths[r.seed_id].initial_ordered))
        results = list(self.results)
        results[i] = dataclasses.replace(results[i], feedback=dataclasses.replace(
            results[i].feedback, reverted_sql=changed))
        self.assertEqual(self.work.check((results, self.report)), [results[i].seed_id])


if __name__ == "__main__":
    unittest.main()
