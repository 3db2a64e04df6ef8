"""Command-line interface: one executable multiplexing every verb."""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import bridge, corpus, evaluate, pipeline
from .actions import ACTION_SPACE
from .errors import FormatError, MissingSchemaError, SqlStepsError, UnsupportedSqlError, UsageError
from .masking import fill_mask, mask_schema, parse_masked_template
from .perturb import PerturbationConfig, augment
from .schema import DatabaseInput, extract_schema, load_schema_dir, parse_database_input
from .sqlast import SqlQuery, parse_sql
from .trajectory import parse_trajectory, render_trajectory

log = logging.getLogger("sqlsteps")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSUPPORTED = 2

_ENV_PREFIX = "SQLSTEPS_"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


class _Version(argparse.Action):
    """`--version`, which hashes the action catalog only when it is given."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"sqlsteps 0.1.0 (actions {ACTION_SPACE.catalog_hash()})")
        parser.exit()


def _env_default(action: argparse.Action) -> None:
    """Take a flag's default from its nonempty override (`--log-level` reads SQLSTEPS_LOG_LEVEL)
    through the flag's own type and choices; a bad value is a UsageError naming it."""
    name = _ENV_PREFIX + action.option_strings[0].lstrip("-").replace("-", "_").upper()
    raw = os.environ.get(name)
    if not raw:
        return
    try:
        action.default = action.type(raw) if action.type is not None else raw
    except ValueError:
        raise UsageError(f"{name}: invalid {action.type.__name__} value {raw!r}") from None
    if action.choices is not None and action.default not in action.choices:
        raise UsageError(f"{name}: invalid choice {raw!r} "
                         f"(choose from {', '.join(action.choices)})")


def build_parser() -> _Parser:
    parser = _Parser(prog="sqlsteps", description=__doc__)
    parser.add_argument("--version", action=_Version, nargs=0, default=argparse.SUPPRESS,
                        help="show program's version number and exit")
    for action in (
        parser.add_argument("--schemas", help="directory of *.schema files"),
        parser.add_argument("--seed", type=int,
                            help="seed for stochastic verbs (required by them)"),
        parser.add_argument("--log-level", default="warning", type=str.lower,
                            metavar="LEVEL", choices=("debug", "info", "warning", "warn",
                                                      "error", "critical", "fatal", "notset")),
        parser.add_argument("--format", dest="output_format", default="text",
                            choices=("text", "structured")),
        parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                            help="seeds corrected at once when a stage backend is remote or "
                                 "a generator is given; rule stages run one seed at a time"),
    ):
        _env_default(action)
    sub = parser.add_subparsers(dest="verb", metavar="verb")

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, **kwargs)

    for name in ("decompose", "revert", "roundtrip"):
        p = add(name)
        p.add_argument("--schema", help="schema file (alternative to --schemas + --db)")
        p.add_argument("--db", help="database name inside --schemas")
        p.add_argument("--in", dest="infile", help="input file (default stdin)")
        p.add_argument("--sql", help="inline SQL text")

    p = add("extract-schema")
    p.add_argument("--in", dest="infile")
    p.add_argument("--sql")

    p = add("mask")
    p.add_argument("--in", dest="infile")
    p.add_argument("--bare", action="store_true", help="emit unindexed mask tokens")

    p = add("fill")
    p.add_argument("--schema")
    p.add_argument("--db")
    p.add_argument("--in", dest="infile")
    p.add_argument("--values", required=True,
                   help="comma-separated schema elements, one per slot")

    p = add("perturb")
    p.add_argument("--schema")
    p.add_argument("--db")
    p.add_argument("--in", dest="infile")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--weights", default="0.333333,0.333333,0.333334",
                   help="add,delete,substitute probabilities")

    p = add("build-corpus")
    p.add_argument("--target", required=True, choices=("bam", "sam", "lom", "all"))
    p.add_argument("--seeds", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--weights", default="0.333333,0.333333,0.333334")
    p.add_argument("--dbs", help="fixture database directory (initial-SQL classification)")

    p = add("corpus-stats")
    p.add_argument("--in", dest="infile", required=True)

    p = add("orchestrate")
    p.add_argument("--backends", help="backend config JSON file (default: all rule)")
    p.add_argument("--seeds", required=True)
    p.add_argument("--generator", help="remote generator endpoint")
    p.add_argument("--out", help="write JSONL results here (default stdout)")
    p.add_argument("--templates", help="prompt template directory override")

    p = add("eval")
    p.add_argument("--pred", required=True, help="JSONL of {id, sql}")
    p.add_argument("--seeds", required=True)
    p.add_argument("--dbs", required=True, help="fixture database directory")
    p.add_argument("--out", help="also write the structured report here")

    p = add("tag-errors")
    p.add_argument("--pred", required=True, help="JSONL of {id, sql}")
    p.add_argument("--seeds", required=True)

    add("catalog")
    return parser


# --- helpers -------------------------------------------------------------------

def _read_input(args) -> str:
    if getattr(args, "sql", None):
        return args.sql
    if getattr(args, "infile", None):
        return Path(args.infile).read_text(encoding="utf-8")
    return sys.stdin.read()


def _input_file(args):
    """`--in` opened for reading bytes, else standard input's bytes, for a `with`."""
    if args.infile:
        return open(args.infile, "rb")
    return contextlib.nullcontext(sys.stdin.buffer)


def _database(args) -> DatabaseInput:
    if getattr(args, "schema", None):
        return parse_database_input(args.schema)
    if getattr(args, "db", None):
        if not args.schemas:
            raise UsageError("--db requires --schemas")
        schemas = load_schema_dir(args.schemas)
        if args.db not in schemas:
            raise UsageError(f"no schema named {args.db!r} in {args.schemas}")
        return schemas[args.db]
    raise UsageError("provide --schema FILE or --db NAME")


def _schemas(args) -> dict[str, DatabaseInput]:
    if not args.schemas:
        raise UsageError("this verb requires --schemas")
    return load_schema_dir(args.schemas)


def _require_seed(args, verb: str) -> int:
    if args.seed is None:
        raise UsageError(f"{verb} is stochastic and requires --seed")
    return args.seed


def _perturbation_config(args, seed: int) -> PerturbationConfig:
    try:
        weights = tuple(float(x) for x in args.weights.split(","))
    except ValueError:
        weights = ()
    if len(weights) != 3:
        raise UsageError("--weights takes three comma-separated numbers")
    try:
        return PerturbationConfig(k=args.k, weights=weights, seed=seed)  # type: ignore[arg-type]
    except ValueError as exc:  # a negative --k, or weights that are no distribution
        raise UsageError(str(exc)) from None


def _emit(args, payload: dict, text: str) -> None:
    if args.output_format == "structured":
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
        print(text)


# --- verb implementations ----------------------------------------------------------

def _cmd_decompose(args) -> int:
    d = _database(args)
    query = parse_sql(_read_input(args))
    trajectory = bridge.decompose(query, d)
    text = render_trajectory(trajectory)
    _emit(args, {"trajectory": text}, text.rstrip("\n"))
    return EXIT_OK


def _cmd_revert(args) -> int:
    d = _database(args)
    trajectory = parse_trajectory(_read_input(args))
    query = bridge.revert(trajectory, d)
    _emit(args, {"sql": query.text}, query.text)
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    d = _database(args)
    query = parse_sql(_read_input(args))
    report = bridge.round_trip(query, d)
    payload = {"verdict": report.verdict, "reason": report.reason, "diff": report.diff}
    lines = [report.verdict.replace("_", " ").title() if report.verdict != "pass" else "Pass"]
    if report.reason:
        lines.append(report.reason)
    if report.diff:
        lines.append(report.diff)
    _emit(args, payload, "\n".join(lines))
    if report.verdict == bridge.PASS:
        return EXIT_OK
    if report.verdict == bridge.UNSUPPORTED:
        return EXIT_UNSUPPORTED
    return EXIT_ERROR


def _cmd_extract_schema(args) -> int:
    query = parse_sql(_read_input(args))
    schema_list = extract_schema(query)
    _emit(args, {"tables": list(schema_list.tables),
                 "columns": [f"{t}.{c}" for t, c in schema_list.columns]},
          schema_list.render())
    return EXIT_OK


def _cmd_mask(args) -> int:
    masked = mask_schema(parse_trajectory(_read_input(args)))
    template = masked.bare_template() if args.bare else masked.template
    _emit(args, {"template": template,
                 "slots": [{"index": s.index, "kind": s.kind, "value": s.value,
                            "position": s.position} for s in masked.slots]},
          template.rstrip("\n"))
    return EXIT_OK


def _cmd_fill(args) -> int:
    d = _database(args)
    masked = parse_masked_template(_read_input(args))
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    trajectory = fill_mask(masked, values, d)
    text = render_trajectory(trajectory)
    _emit(args, {"trajectory": text}, text.rstrip("\n"))
    return EXIT_OK


def _cmd_perturb(args) -> int:
    seed = _require_seed(args, "perturb")
    d = _database(args)
    trajectories = []
    with _input_file(args) as file:
        for lineno, record in corpus.json_records(file):
            text = corpus.text_field(record, "trajectory", lineno)
            try:
                trajectories.append(parse_trajectory(text))
            except SqlStepsError as exc:
                raise FormatError(f"trajectory does not parse: {exc}", lineno) from None
    config = _perturbation_config(args, seed)
    report = augment(trajectories, config, d)
    for pair in report.pairs:
        print(json.dumps({
            "erroneous": render_trajectory(pair.erroneous),
            "verified": render_trajectory(pair.verified),
            "record": pair.record.to_dict(),
        }, sort_keys=True, ensure_ascii=False))
    for index, reason in report.skipped:
        log.warning("trajectory %d skipped: %s", index, reason)
    return EXIT_OK


def _cmd_build_corpus(args) -> int:
    schemas = _schemas(args)
    seeds = corpus.read_seed_file(args.seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dbs = evaluate.load_fixture_dbs(args.dbs) if args.dbs else None
    targets = ("bam", "sam", "lom") if args.target == "all" else (args.target,)
    bam = corpus.build_bam_corpus(seeds, schemas)
    summary: dict[str, dict] = {}
    if "bam" in targets:
        corpus.write_corpus(bam.records, out_dir / "bam.corpus", "bam", bam.stats)
        summary["bam"] = {"records": len(bam.records), "failures": len(bam.failures),
                          "stats": bam.stats.to_dict()}
    if "sam" in targets:
        sam = corpus.build_sam_corpus(bam.records, seeds, schemas)
        corpus.write_corpus(sam.records, out_dir / "sam.corpus", "sam", sam.stats)
        summary["sam"] = {"records": len(sam.records), "failures": len(sam.failures),
                          "stats": sam.stats.to_dict()}
    if "lom" in targets:
        seed = _require_seed(args, "build-corpus --target lom")
        config = _perturbation_config(args, seed)
        lom = corpus.build_lom_corpus(bam.records, seeds, config, schemas, dbs=dbs)
        corpus.write_corpus(lom.records, out_dir / "lom.corpus", "lom", lom.stats)
        summary["lom"] = {"records": len(lom.records), "failures": len(lom.failures),
                          "stats": lom.stats.to_dict()}
    for target, info in sorted(summary.items()):
        _emit(args, {target: info},
              f"{target}: {info['records']} records, {info['failures']} failures")
    return EXIT_OK


def _cmd_corpus_stats(args) -> int:
    records, stored, target = corpus.read_corpus(args.infile)
    recomputed = corpus.compute_stats(records)
    payload = {"target": target, "stored": stored.to_dict(),
               "recomputed": recomputed.to_dict(),
               "consistent": stored.to_dict() == recomputed.to_dict()}
    _emit(args, payload,
          f"{target}: {len(records)} records; stored == recomputed: {payload['consistent']}\n"
          + json.dumps(recomputed.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if payload["consistent"] else EXIT_ERROR


def _cmd_orchestrate(args) -> int:
    schemas = _schemas(args)
    seeds = corpus.read_seed_file(args.seeds)
    config = {}
    if args.backends:
        try:
            config = json.loads(Path(args.backends).read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad backend config JSON: {exc.msg}", exc.lineno) from None
    base_dir = Path(args.backends).parent if args.backends else Path(".")
    backends = pipeline.build_backends(config, base_dir)
    generator = None
    if args.generator:
        remote = pipeline.RemoteBackend("generate", args.generator)
        generator = remote.invoke
    results = pipeline.correct_batch(seeds, backends, schemas, generator=generator,
                                     jobs=args.jobs, template_dir=args.templates)
    lines = []
    for result in results:
        lines.append(json.dumps({
            "id": result.seed_id,
            "initial_sql": result.initial_sql,
            "reverted_sql": result.feedback.reverted_sql if result.feedback else None,
            "regenerated_sql": result.regenerated_sql,
            "overcorrection_flag": result.overcorrection_flag,
            "error": result.error,
        }, sort_keys=True, ensure_ascii=False))
    text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


def _read_predictions(path: str) -> dict[str, str]:
    """The SQL of each prediction by id: its `sql`, else, for a record of
    `orchestrate --out`, the SQL that `eval` scores for a correction result
    (`evaluate._corrected_sql`): its regenerated SQL, else its reverted SQL,
    else its initial SQL."""
    preds: dict[str, str] = {}
    with open(path, "rb") as file:
        for lineno, record in corpus.json_records(file):
            if "id" not in record:
                raise FormatError("prediction has no 'id'", lineno)
            preds[str(record["id"])] = _prediction_sql(record, lineno)
    return preds


def _prediction_sql(record: dict, lineno: int) -> str:
    sql = record.get("sql")
    if isinstance(sql, str):
        return sql
    for key in ("regenerated_sql", "reverted_sql"):
        sql = record.get(key)
        if isinstance(sql, str) and sql:
            return sql
    sql = record.get("initial_sql")
    if isinstance(sql, str):
        return sql
    raise FormatError("record has no string field 'sql', 'regenerated_sql', 'reverted_sql' "
                      "or 'initial_sql'", lineno)


def _cmd_eval(args) -> int:
    schemas = _schemas(args)
    seeds = corpus.read_seed_file(args.seeds)
    preds = _read_predictions(args.pred)
    dbs = evaluate.load_fixture_dbs(args.dbs)
    results = []
    for seed in seeds:
        sql = preds.get(seed.id, seed.initial_sql)
        results.append(pipeline.CorrectionResult(
            seed_id=seed.id, initial_sql=seed.initial_sql, feedback=None,
            regenerated_sql=sql, overcorrection_flag=False, trace=None))
    report = evaluate.evaluate_correction(results, seeds, dbs, schemas)
    rows = [f"{v.seed_id}: ex={'Y' if v.ex_match else 'N'}"
            f" baseline={'Y' if v.baseline_correct else 'N'}"
            f" overcorrection={'Y' if v.overcorrection else 'N'}"
            + (f" tag={v.tag.coarse}/{v.tag.subtype}" if v.tag else "")
            for v in report.per_instance]
    rows += [f"{seed_id}: {verdict}: {reason}" for seed_id, verdict, reason in report.failures]
    payload = {"aggregates": report.aggregates,
               "per_instance": [asdict(v) for v in report.per_instance]}
    if report.failures:
        payload["failures"] = [{"seed_id": seed_id, "verdict": verdict, "reason": reason}
                               for seed_id, verdict, reason in report.failures]
    if args.out:
        Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                                  encoding="utf-8")
    _emit(args, payload,
          "\n".join(rows) + "\n" + json.dumps(report.aggregates, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_tag_errors(args) -> int:
    schemas = _schemas(args)
    seeds = corpus.read_seed_file(args.seeds)
    preds = _read_predictions(args.pred)
    lines = []
    for seed in seeds:
        if seed.id not in preds:
            continue
        pred = SqlQuery.raw(preds[seed.id])
        gold = SqlQuery.raw(seed.gold_sql)
        try:
            if seed.db not in schemas:
                raise MissingSchemaError(f"no schema for database {seed.db!r}")
            tag, same = evaluate.tag_prediction(pred, gold, schemas[seed.db])
        except SqlStepsError as exc:
            lines.append((seed.id, {"error": str(exc)}, f"{seed.id}: error: {exc}"))
        else:
            lines.append((seed.id, {"match": True}, f"{seed.id}: match") if same else
                         (seed.id, {"coarse": tag.coarse, "subtype": tag.subtype},
                          f"{seed.id}: {tag.coarse}/{tag.subtype}"))
    for seed_id, payload, text in lines:
        _emit(args, {"id": seed_id, **payload}, text)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    catalog = ACTION_SPACE.catalog()
    if args.output_format == "structured":
        print(json.dumps({"actions": catalog, "hash": ACTION_SPACE.catalog_hash()},
                         sort_keys=True))
    else:
        width = max(len(e["name"]) for e in catalog)
        for entry in catalog:
            print(f"{entry['name']:<{width}}  {entry['category']:<12} {entry['params']}")
        print(f"catalog hash: {ACTION_SPACE.catalog_hash()}")
    return EXIT_OK


_COMMANDS = {
    "decompose": _cmd_decompose,
    "revert": _cmd_revert,
    "roundtrip": _cmd_roundtrip,
    "extract-schema": _cmd_extract_schema,
    "mask": _cmd_mask,
    "fill": _cmd_fill,
    "perturb": _cmd_perturb,
    "build-corpus": _cmd_build_corpus,
    "corpus-stats": _cmd_corpus_stats,
    "orchestrate": _cmd_orchestrate,
    "eval": _cmd_eval,
    "tag-errors": _cmd_tag_errors,
    "catalog": _cmd_catalog,
}


def dispatch(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=args.log_level.upper(),
                            format="%(levelname)s %(name)s: %(message)s")
        if args.verb is None:
            raise UsageError("no verb given (see --help)")
        if args.verb not in _COMMANDS:
            raise UsageError(f"unknown verb {args.verb!r}")
        return _COMMANDS[args.verb](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except UnsupportedSqlError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    # OSError and UnicodeDecodeError: an input file that cannot be read as text
    except (SqlStepsError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
