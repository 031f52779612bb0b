"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install` wraps the public functions of each arahate module at every
place they are bound: modules that did `from .evaluate import
cross_validate` hold their own reference, so patching only the defining
module would miss those calls. Each span records its parent; a span's self
time is its duration minus the durations of its direct children (one
thread, so children never overlap). Spans stay in memory; `layer_metrics`
turns them into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

STAGES = ("normalize", "augment", "tune", "train", "evaluate", "report")

# name -> unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "corpus.read_s": "s",
    "corpus.rows_read": "count",
    "corpus.write_s": "s",
    "corpus.rows_written": "count",
    "normalize.s": "s",
    "normalize.rows": "count",
    "normalize.rows_per_s": "1/s",
    "normalize.empty_rows": "count",
    "encoder.fit_s": "s",
    "encoder.fit_self_s": "s",
    "encoder.fits": "count",
    "encoder.fit_row_epochs": "count",
    "encoder.fits_repeated": "count",
    "encoder.step_s": "s",
    "encoder.steps": "count",
    "encoder.featurize_s": "s",
    "encoder.featurize_rows": "count",
    "encoder.featurize_per_text": "ratio",
    "encoder.predict_s": "s",
    "encoder.predict_rows": "count",
    "encoder.save_s": "s",
    "ensemble.vote_s": "s",
    "ensemble.vote_rows": "count",
    "ensemble.proba_write_s": "s",
    "ensemble.proba_rows_written": "count",
    "tune.s": "s",
    "tune.grid_points": "count",
    "tune.evaluations": "count",
    "tune.cache_hit_ratio": "ratio",
    "evaluate.cv_s": "s",
    "evaluate.cv_self_s": "s",
    "evaluate.cv_calls": "count",
    "evaluate.folds": "count",
    "augment.s": "s",
    "augment.label_s": "s",
    "augment.pseudo_rows": "count",
    "augment.kept_ratio": "ratio",
    "report.s": "s",
    **{f"pipeline.stage.{stage}_s": "s" for stage in STAGES},
    "pipeline.resume_s": "s",
    "pipeline.bytes_written": "B",
    "pipeline.cpu_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder for one traced fresh run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._fingerprints: set[str] = set()
        self._texts: set[str] = set()

    def wrap(self, name: str, fn, count=None):
        """Return `fn` recording a span `name`; `count(args, result)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, result)
            return result

        return traced

    # --- counters fed from call arguments and results ----------------------

    def _count_normalize(self, args, rows) -> None:
        self.counts["normalize.rows"] += len(rows)
        self.counts["normalize.empty_rows"] += sum(not row.norm_text for row in rows)

    def _count_fit(self, args, model) -> None:
        _, hp, train = args
        self.counts["encoder.fit_row_epochs"] += len(train) * hp.epochs
        if model.train_fingerprint in self._fingerprints:
            self.counts["encoder.fits_repeated"] += 1
        self._fingerprints.add(model.train_fingerprint)

    def _count_featurize(self, args, result) -> None:
        texts = args[0]
        self.counts["encoder.featurize_rows"] += len(texts)
        self._texts.update(texts)

    def _count_search(self, args, result) -> None:
        _, trace = result
        self.counts["tune.grid_points"] += len(trace)
        self.counts["tune.cache_hits"] += sum(entry.cached for entry in trace)

    def _count_pseudo(self, args, result) -> None:
        sources = args[1]
        self.counts["augment.pseudo_rows"] += sum(len(rows) for _, rows in sources)
        self.counts["augment.pseudo_kept"] += len(result[0])

    def _counter(self, key: str, size):
        def count(args, result) -> None:
            self.counts[key] += size(args, result)

        return count

    def install(self) -> None:
        """Wrap every traced function wherever an arahate module binds it."""
        from arahate import augment, corpus, encoder, ensemble, evaluate, normalize, pipeline, report, tune

        targets = [
            (corpus, "load_dataset", "corpus.read", self._counter("corpus.rows_read", lambda a, r: len(r))),
            (corpus, "write_jsonl", "corpus.write", self._counter("corpus.rows_written", lambda a, r: len(a[1]))),
            (normalize, "normalize_corpus", "normalize", self._count_normalize),
            (encoder, "fit", "encoder.fit", self._count_fit),
            (encoder, "toy_forward_backward", "encoder.step", None),
            (encoder, "hashed_ngram_features", "encoder.featurize", self._count_featurize),
            (encoder, "predict_proba", "encoder.predict", self._counter("encoder.predict_rows", lambda a, r: len(r))),
            (encoder, "save_model", "encoder.save", None),
            (ensemble, "majority_vote", "ensemble.vote", self._counter("ensemble.vote_rows", lambda a, r: len(r))),
            (ensemble, "average_vote", "ensemble.vote", self._counter("ensemble.vote_rows", lambda a, r: len(r[0]))),
            (ensemble, "write_proba_csv", "ensemble.proba_write",
             self._counter("ensemble.proba_rows_written", lambda a, r: len(a[1]))),
            (tune, "coordinate_search", "tune", self._count_search),
            (evaluate, "cross_validate", "evaluate.cv", self._counter("evaluate.folds", lambda a, r: len(r.fold_detail))),
            (augment, "build_augmented_corpus", "augment", None),
            (augment, "pseudo_label", "augment.label", self._count_pseudo),
            (report, "write_report", "report", None),
        ]
        modules = [module for name, module in sys.modules.items() if name.startswith("arahate")]
        for home, attr, name, count in targets:
            original = getattr(home, attr)
            traced = self.wrap(name, original, count)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, traced)

        original_stages = pipeline.ExperimentRun._stages
        tracer = self

        def traced_stages(run):
            stages = original_stages(run)
            for stage in stages:
                stage.run = tracer.wrap(f"pipeline.stage.{stage.name}", stage.run)
            return stages

        pipeline.ExperimentRun._stages = traced_stages

    # --- summary ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, self times and counts of the recorded spans."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            own[name] += duration
            calls[name] += 1
            if parent is not None:
                own[self.spans[parent][0]] -= duration
        counts = self.counts

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out = {
            "corpus.read_s": total["corpus.read"],
            "corpus.rows_read": counts["corpus.rows_read"],
            "corpus.write_s": total["corpus.write"],
            "corpus.rows_written": counts["corpus.rows_written"],
            "normalize.s": total["normalize"],
            "normalize.rows": counts["normalize.rows"],
            "normalize.rows_per_s": ratio(counts["normalize.rows"], total["normalize"]),
            "normalize.empty_rows": counts["normalize.empty_rows"],
            "encoder.fit_s": total["encoder.fit"],
            "encoder.fit_self_s": own["encoder.fit"],
            "encoder.fits": calls["encoder.fit"],
            "encoder.fit_row_epochs": counts["encoder.fit_row_epochs"],
            "encoder.fits_repeated": counts["encoder.fits_repeated"],
            "encoder.step_s": total["encoder.step"],
            "encoder.steps": calls["encoder.step"],
            "encoder.featurize_s": total["encoder.featurize"],
            "encoder.featurize_rows": counts["encoder.featurize_rows"],
            "encoder.featurize_per_text": ratio(counts["encoder.featurize_rows"], len(self._texts)),
            "encoder.predict_s": total["encoder.predict"],
            "encoder.predict_rows": counts["encoder.predict_rows"],
            "encoder.save_s": total["encoder.save"],
            "ensemble.vote_s": total["ensemble.vote"],
            "ensemble.vote_rows": counts["ensemble.vote_rows"],
            "ensemble.proba_write_s": total["ensemble.proba_write"],
            "ensemble.proba_rows_written": counts["ensemble.proba_rows_written"],
            "tune.s": total["tune"],
            "tune.grid_points": counts["tune.grid_points"],
            "tune.evaluations": counts["tune.grid_points"] - counts["tune.cache_hits"],
            "tune.cache_hit_ratio": ratio(counts["tune.cache_hits"], counts["tune.grid_points"]),
            "evaluate.cv_s": total["evaluate.cv"],
            "evaluate.cv_self_s": own["evaluate.cv"],
            "evaluate.cv_calls": calls["evaluate.cv"],
            "evaluate.folds": counts["evaluate.folds"],
            "augment.s": total["augment"],
            "augment.label_s": total["augment.label"],
            "augment.pseudo_rows": counts["augment.pseudo_rows"],
            "augment.kept_ratio": ratio(counts["augment.pseudo_kept"], counts["augment.pseudo_rows"]),
            "report.s": total["report"],
        }
        for stage in STAGES:
            out[f"pipeline.stage.{stage}_s"] = total[f"pipeline.stage.{stage}"]
        return out
