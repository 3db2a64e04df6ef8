"""The three workloads. Each one builds its inputs from the workload seed,
runs one round of the same operations per call to `run`, and checks a
round's outputs with `check`, which returns the ids of failed items.

Program functions are looked up on their modules at call time, so the
tracer's wrappers apply when they are installed.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
import inputs
from checks import OwnDb, SeedTruth


def _empty_share(rows: list) -> float:
    return round(sum(1 for r in rows if not r) / len(rows), 4) if rows else 0.0


class Roundtrip:
    """`bridge.round_trip(parse_sql(q), store)` on each generated query."""

    name = "roundtrip"
    QUERIES = 2000
    expected_failures: frozenset = frozenset()

    def __init__(self, prog, seed: int, own_dbs: dict[str, OwnDb], out_dir: Path):
        self.prog = prog
        self.store = prog.schemas["store"]
        self.queries = prog.m["querygen"].random_queries(self.QUERIES, seed)
        self.db = own_dbs["store"]
        self.rows = [self.db.rows(q) for q in self.queries]
        self.items = len(self.queries)
        self.mix = {**inputs.query_mix(self.queries), "empty_result_share": _empty_share(self.rows)}

    def run(self, tracer):
        sqlast, bridge = self.prog.m["sqlast"], self.prog.m["bridge"]
        reports = []
        for i, query in enumerate(self.queries):
            tracer.item = i
            reports.append(bridge.round_trip(sqlast.parse_sql(query), self.store))
        return reports

    def check(self, reports) -> list:
        return checks.check_roundtrip(self.queries, self.rows, reports, self.db)


class _SeedWorkload:
    """Shared seed-list set-up: generated store seeds plus the fixture seeds
    of other databases, with the benchmark's own execution facts per seed."""

    SEEDS = 600
    distinct_golds = False
    expected_failures: frozenset = frozenset()

    def __init__(self, prog, seed: int, own_dbs: dict[str, OwnDb], out_dir: Path):
        self.prog = prog
        self.out_dir = out_dir
        random_queries = prog.m["querygen"].random_queries
        if self.distinct_golds:
            queries, drawn = inputs.distinct_queries(random_queries, self.SEEDS, seed)
        else:
            queries, drawn = random_queries(self.SEEDS, seed), self.SEEDS
        fixture_file = prog.root / "tests" / "fixtures" / "seeds" / "fixture_seeds.jsonl"
        fixture = [json.loads(line) for line in fixture_file.read_text("utf-8").splitlines()
                   if line.strip() and not line.startswith("#")]
        fixture = [s for s in fixture if s["db"] != "store"]
        self.seed_dicts = inputs.make_seeds(queries, seed) + fixture + self.extra_seeds()
        self.seeds = [prog.m["corpus"].SeedExample.from_dict(s) for s in self.seed_dicts]
        self.truths: dict[str, SeedTruth] = {
            s["id"]: checks.seed_truth(s, own_dbs[s["db"]]) for s in self.seed_dicts}
        self.own_dbs = own_dbs
        self.items = len(self.seeds)
        kinds = [s.get("initial_kind") for s in self.seed_dicts]
        gold_rows = [self.truths[s["id"]].gold_rows for s in self.seed_dicts]
        self.mix = {
            **inputs.query_mix(queries),
            "queries_drawn": drawn,
            "seeds": self.items,
            "rewrite_initial_share": round(kinds.count("rewrite") / self.items, 4),
            "other_initial_share": round(kinds.count("other") / self.items, 4),
            "initial_correct_share": round(
                sum(t.initial_correct for t in self.truths.values()) / self.items, 4),
            "empty_gold_share": _empty_share(gold_rows),
            "fixture_seeds": len(fixture),
        }

    def extra_seeds(self) -> list[dict]:
        return []


class Corpus(_SeedWorkload):
    """`build-corpus --target all`: bam, sam and lom builds, each written and read back."""

    name = "corpus"
    K = 2
    # Each generated gold is distinct, so every verified trajectory is too and
    # the lom provenance fault can strike only the fixed probe pair: the
    # failed share is then the same for every seed.
    distinct_golds = True
    expected_failures = frozenset(inputs.PROBE_IDS)

    def __init__(self, *args):
        super().__init__(*args)
        self.mix["probe_seeds"] = len(inputs.PROBE_IDS)
        self._db_of = {s["id"]: s["db"] for s in self.seed_dicts}
        self._filled: dict[tuple[str, str], str] = {}

    def extra_seeds(self) -> list[dict]:
        return inputs.probe_seeds()

    def run(self, tracer) -> checks.CorpusRound:
        m, prog = self.prog.m, self.prog
        corpus = m["corpus"]
        cfg = m["perturb"].PerturbationConfig(k=self.K)
        bam = corpus.build_bam_corpus(self.seeds, prog.schemas)
        corpus.write_corpus(bam.records, self.out_dir / "bam.corpus", "bam", bam.stats)
        sam = corpus.build_sam_corpus(bam.records, self.seeds, prog.schemas)
        corpus.write_corpus(sam.records, self.out_dir / "sam.corpus", "sam", sam.stats)
        lom = corpus.build_lom_corpus(bam.records, self.seeds, cfg, prog.schemas, dbs=prog.dbs)
        corpus.write_corpus(lom.records, self.out_dir / "lom.corpus", "lom", lom.stats)
        read_back = {t: corpus.read_corpus(self.out_dir / f"{t}.corpus")
                     for t in ("bam", "sam", "lom")}
        return checks.CorpusRound(bam, sam, lom, read_back)

    def check(self, out: checks.CorpusRound) -> list:
        m, schemas = self.prog.m, self.prog.schemas

        def mask_fill(seed_id: str, text: str) -> str:
            # the inverse is checked once per distinct (seed, trajectory text)
            if (seed_id, text) not in self._filled:
                masked = m["masking"].mask_schema(m["trajectory"].parse_trajectory(text))
                filled = m["masking"].fill_mask(masked, masked.slot_values(),
                                                schemas[self._db_of[seed_id]])
                self._filled[(seed_id, text)] = m["trajectory"].render_trajectory(filled)
            return self._filled[(seed_id, text)]

        return checks.check_corpus(self.seed_dicts, self.truths, self.K, out, mask_fill,
                                   m["corpus"].compute_stats)


class Correct(_SeedWorkload):
    """`orchestrate` then `eval`: `correct_batch` with rule backends, then
    `evaluate_correction` on the same seeds."""

    name = "correct"
    JOBS = 1  # one caller; the GIL gives rule stages no gain from threads

    def run(self, tracer):
        m, prog = self.prog.m, self.prog
        results = m["pipeline"].correct_batch(self.seeds, prog.backends, prog.schemas,
                                              jobs=self.JOBS)
        report = m["evaluate"].evaluate_correction(results, self.seeds, prog.dbs, prog.schemas)
        return results, report

    def check(self, out) -> list:
        results, report = out
        return checks.check_correct(self.seed_dicts, self.truths, results, report, self.own_dbs)


WORKLOADS = {w.name: w for w in (Roundtrip, Corpus, Correct)}
