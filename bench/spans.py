"""In-memory span tracing around the public functions of each sqlsteps layer.

Wrappers are installed from the benchmark's side at every name under which
the package binds a traced function (so `pipeline.parse_trajectory` and the
function-local `from .evaluate import ex_match` are caught too), and around
each stage backend's `invoke`. Spans hold (name, start, end, parent, item,
round) and stay in memory until the run ends; self time is a span's duration minus the part of it that its child
spans cover. The tracer keeps one span stack, so it assumes one caller at a
time: `correct_batch` runs with `jobs=1`, whose worker thread runs while
the calling thread waits.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = {
    "sqlast": ("parse_sql", "canonicalize", "render_sql"),
    "bridge": ("decompose", "revert", "round_trip"),
    "trajectory": ("parse_trajectory", "render_trajectory", "validate_trajectory"),
    "schema": ("parse_database_text", "render_database_input", "extract_schema"),
    "masking": ("mask_schema", "parse_masked_template", "recover_slot_values", "fill_mask"),
    "perturb": ("augment", "perturb_once", "inject_negatives"),
    "corpus": ("build_bam_corpus", "build_sam_corpus", "build_lom_corpus",
               "write_corpus", "read_corpus"),
    "pipeline": ("correct_batch", "run_pipeline", "make_feedback"),
    "evaluate": ("ex_match", "execute_sql", "evaluate_correction", "tag_error"),
}
STAGES = ("bam", "sam_mask", "sam_fill", "lom")
SPAN_NAMES = ([f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
              + [f"pipeline.stage.{s}" for s in STAGES])


def _text_chars(args, kwargs, result) -> dict:
    text = args[0] if args else kwargs.get("text", "")
    return {"chars": len(text)}


def _round_trip_pass(args, kwargs, result) -> dict:
    return {"pass": int(result is not None and result.verdict == "pass")}


def _augment_pairs(args, kwargs, result) -> dict:
    verified, cfg = args[0], args[1]
    return {"asked": len(verified) * cfg.k,
            "pairs": len(result.pairs) if result is not None else 0}


COUNTERS = {
    "sqlast.parse_sql": _text_chars,
    "trajectory.parse_trajectory": _text_chars,
    "schema.parse_database_text": _text_chars,
    "bridge.round_trip": _round_trip_pass,
    "perturb.augment": _augment_pairs,
}

# Functions that start work on one seed, and how to read its id from their
# arguments. They only label later spans with an item id. The two corpus
# helpers are private and are skipped when absent; spans inside
# `evaluate_correction` stay unlabelled, since nothing there names the seed
# before the first per-seed call.
ITEM_HOOKS = {
    ("pipeline", "run_pipeline"): lambda args, kwargs: kwargs.get("seed_id"),
    ("corpus", "_require_schema"): lambda args, kwargs: args[0].id,
    ("corpus", "_assemble_lom_records"): lambda args, kwargs: None,
}
# Spans over a whole batch clear the item label on entry and exit.
BATCH_SPANS = {"corpus.build_bam_corpus", "corpus.build_sam_corpus", "corpus.build_lom_corpus",
               "corpus.write_corpus", "corpus.read_corpus", "pipeline.correct_batch",
               "evaluate.evaluate_correction"}


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.item: object = None
        self.round = 0
        self.spans: list[tuple] = []  # (name, start, end, parent index, item, round)
        self.counts: dict[tuple[int, str], dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        batch = name in BATCH_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if batch:
                self.item = None
            index, parent, item = len(spans), stack[-1] if stack else -1, self.item
            spans.append(None)  # the span's slot, filled when it ends
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                # a tuple of atomic values, which the cycle collector stops
                # tracking, so collections do not slow as spans accumulate
                spans[index] = (name, start, time.perf_counter(), parent, item, self.round)
                stack.pop()
                if batch:
                    self.item = None
                if counter is not None:
                    bucket = self.counts[(self.round, name)]
                    for key, value in counter(args, kwargs, result).items():
                        bucket[key] += value

        return traced

    def _item_hook(self, fn, label):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if self.on:
                self.item = label(args, kwargs)
            return fn(*args, **kwargs)
        return hooked

    def _rebind(self, original, replacement) -> None:
        """Point every sqlsteps module attribute bound to `original` at `replacement`."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sqlsteps" and not mod_name.startswith("sqlsteps."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self, modules: dict, backends: dict) -> None:
        for mod, fn_names in LAYERS.items():
            for fn_name in fn_names:
                original = getattr(modules[mod], fn_name)
                self._rebind(original, self.wrap(f"{mod}.{fn_name}", original))
        for (mod, fn_name), label in ITEM_HOOKS.items():  # outside the span, to label it
            original = getattr(modules[mod], fn_name, None)
            if original is not None:
                self._rebind(original, self._item_hook(original, label))
        for stage, backend in backends.items():
            self._undo.append((backend, "invoke", None))
            backend.invoke = self.wrap(f"pipeline.stage.{stage}", backend.invoke)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)  # instance attribute over the class method
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # --- analysis ------------------------------------------------------------------

    def layer_metrics(self, selfs: list[float], rounds: int,
                      traced_items_per_s: float) -> dict[str, tuple[float, str]]:
        """Per-round calls, median per-round self time, rates and the traced
        throughput; `selfs` are the spans' self times."""
        calls: dict[tuple[int, str], int] = defaultdict(int)
        self_s: dict[tuple[int, str], float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, selfs):
            key = (span[5], span[0])
            calls[key] += 1
            self_s[key] += own
            incl[span[0]] += span[2] - span[1]
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            per_round = [calls[(r, name)] for r in range(rounds)]
            out[f"{name}.calls"] = (statistics.median(per_round), "count")
            out[f"{name}.self_s"] = (statistics.median(self_s[(r, name)] for r in range(rounds)), "s")

        def total(name: str, key: str) -> int:
            return sum(self.counts[(r, name)][key] for r in range(rounds))

        for name in ("sqlast.parse_sql", "trajectory.parse_trajectory", "schema.parse_database_text"):
            seconds = incl[name]
            out[f"{name}.chars_per_s"] = (total(name, "chars") / seconds if seconds else 0.0, "chars/s")
        rt_calls = sum(calls[(r, "bridge.round_trip")] for r in range(rounds))
        out["bridge.round_trip.pass_ratio"] = (
            total("bridge.round_trip", "pass") / rt_calls if rt_calls else 0.0, "ratio")
        asked = total("perturb.augment", "asked")
        out["perturb.augment.pair_ratio"] = (
            total("perturb.augment", "pairs") / asked if asked else 0.0, "ratio")
        out["traced.items_per_s"] = (traced_items_per_s, "items/s")
        return out

    def write(self, path: Path, origin: float) -> None:
        """One JSON array per span: round, name, start, end (s from `origin`), parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, rnd in self.spans:
                fh.write(json.dumps([rnd, name, round(start - origin, 9),
                                     round(end - origin, 9), parent, item]) + "\n")


def self_times(spans: list) -> list[float]:
    """Duration minus the union of child intervals clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
