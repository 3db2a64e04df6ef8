"""sqlsteps benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload roundtrip|corpus|correct|all \
        --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations until S seconds of rounds
have been timed, checks every round's outputs with the benchmark's own
checks, and prints the metrics; the last line of standard output is one
JSON object. With `--trace 0` it reports the end-to-end metrics (`setup_s`,
`items_per_s`, `peak_rss_mb`); with `--trace 1` it wraps each layer's public
functions and reports per-layer metrics, and writes the spans to
`.bench_out/<workload>/spans.jsonl`. Run it from anywhere; it works on the
checkout that holds it and writes only under `.bench_out/` there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
FIXTURES = ROOT / "tests" / "fixtures"
SETUP_REPS = 7

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import program  # noqa: E402
import spans  # noqa: E402
from checks import OwnDb  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_dbs(seed: int, dbs_dir: Path) -> dict[str, str]:
    """The generated store script plus the shipped scripts of the other
    fixture databases, written where `load_fixture_dbs` reads them."""
    dbs_dir.mkdir(parents=True, exist_ok=True)
    scripts = {}
    for path in sorted((FIXTURES / "dbs").glob("*.sqlite.sql")):
        name = path.name[: -len(".sqlite.sql")]
        text = path.read_text(encoding="utf-8")
        scripts[name] = inputs.store_script(inputs.store_ddl(text), seed) if name == "store" else text
        (dbs_dir / path.name).write_text(scripts[name], encoding="utf-8")
    return scripts


def setup_seconds(dbs_dir: Path) -> float:
    """One set-up in a fresh interpreter, as timed inside it."""
    done = subprocess.run([sys.executable, str(HERE / "program.py"), str(ROOT), str(dbs_dir)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    code = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              timeout=900)
        code = code or done.returncode
    return code


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sqlsteps").is_dir() or not FIXTURES.is_dir():
        print(f"bench: no sqlsteps sources or fixtures under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    scripts = write_dbs(args.seed, out_dir / "dbs")
    prog = program.setup(ROOT, out_dir / "dbs")
    own_dbs = {name: OwnDb(script) for name, script in scripts.items()}
    workload = WORKLOADS[args.workload](prog, args.seed, own_dbs, out_dir)
    print(f"{args.workload}: seed {args.seed}, {workload.items} items per round; inputs "
          + json.dumps(workload.mix, sort_keys=True))

    tracer = spans.Tracer()
    if args.trace:
        tracer.install(prog.m, prog.backends)
    origin = time.perf_counter()
    times: list[float] = []
    setups: list[float] = []
    failed_ids: set = set()
    attempted = failed = 0
    while not times or sum(times) < args.seconds:
        tracer.round, tracer.on = len(times), bool(args.trace)
        start = time.perf_counter()
        outputs = workload.run(tracer)
        times.append(time.perf_counter() - start)
        tracer.on = False
        bad = workload.check(outputs)
        del outputs
        attempted += workload.items
        failed += len(bad)
        failed_ids.update(bad)
        # set-ups are spread over the run, so that their median samples the
        # machine's speed across it rather than at one moment
        if not args.trace and len(setups) < SETUP_REPS * min(1.0, sum(times) / args.seconds):
            setups.append(setup_seconds(out_dir / "dbs"))
    while not args.trace and len(setups) < SETUP_REPS:
        setups.append(setup_seconds(out_dir / "dbs"))
    correct = failed_ids <= workload.expected_failures
    if failed_ids:
        print(f"failed items: {sorted(map(str, failed_ids))[:20]}"
              + ("" if correct else " (unexpected)"))

    if args.trace:
        selfs = spans.self_times(tracer.spans)
        metrics = tracer.layer_metrics(selfs, len(times), attempted / sum(times))
        tracer.write(out_dir / "spans.jsonl", origin)
        print(f"traced: {len(times)} rounds, {len(tracer.spans)} spans; self times sum to "
              f"{sum(selfs):.4f} s of {sum(times):.4f} s traced wall time")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "items_per_s": (attempted / sum(times), "items/s"),
                   "peak_rss_mb": (peak_kb / 1024, "MB")}
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_s")):
            print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted = {attempted}, failed = {failed}; {len(times)} rounds of "
          f"{min(times):.3f}/{statistics.median(times):.3f}/{max(times):.3f} s (min/median/max)")
    prog.close()
    for db in own_dbs.values():
        db.close()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
