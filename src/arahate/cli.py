"""Command-line interface: one subcommand per pipeline stage plus `run`.

Every subcommand accepts --config (fills in defaults for omitted flags),
--seed and --out. Exit codes: 0 success, 1 validation error (bad flags,
bad config, bad inputs caught up front), 2 stage failure while working.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from . import __version__, augment as augment_mod, corpus as corpus_mod, encoder, report as report_mod, tune as tune_mod
from .classifiers import Classifier
from .config import GRID_SCHEMA, load_config, normalization_config, read_yaml
from .ensemble import average_vote, ensemble_policy, majority_vote, read_proba_csv, write_proba_csv
from .errors import ArahateError, ConfigError
from .evaluate import cross_validate, stratified_folds
from .normalize import normalize_corpus
from .pipeline import run_experiment

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; our contract reserves 2 for
    # stage failures, so usage problems exit 1 like every validation error.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run configuration file (YAML/JSON)")
    parser.add_argument("--seed", type=int, default=None, help="random seed override")
    parser.add_argument("--out", help="output path (file or directory, per command)")


def _load_optional_config(args) -> dict:
    return load_config(args.config) if args.config else {}


def _seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg.get("seed", 0))


def _require(value, flag: str):
    if value in (None, []):
        raise ConfigError(f"missing required option {flag}")
    return value


def _read_hp(path: str | None, cfg: dict):
    """The hyperparameter mapping of the --hp file, else of the config's encoder section."""
    data = read_yaml(path, "hyperparameter file") if path else cfg.get("encoder", {}).get("hyperparams")
    if data is None:
        raise ConfigError("no --hp file given and the config declares no hyperparams")
    return data


def _normalization_flags(args) -> dict:
    """normalization_config arguments from the normalization flags (None: flag not given)."""
    return {
        "stopwords": args.stopwords,
        "repeat_collapse_len": args.repeat_collapse_len,
        "strip_non_arabic": False if args.keep_non_arabic else None,
    }


def _augment_from_plan(args, cfg: dict, plan_path: str, seed: int, base: list):
    """Normalize the base and every registry dataset of the plan if needed, then augment."""
    plan = augment_mod.load_plan(plan_path, default_seed=seed)
    if plan.registry is None:
        raise ConfigError("augmentation plan must name a dataset registry")
    norm_cfg = normalization_config(cfg, **_normalization_flags(args))

    def normalized(rows):
        return normalize_corpus(rows, norm_cfg) if any(row.norm_text is None for row in rows) else rows

    base = normalized(base)
    datasets = {
        descriptor.key: (descriptor, normalized(corpus_mod.load_dataset(descriptor)))
        for descriptor in corpus_mod.load_registry(plan.registry)
    }
    return augment_mod.build_augmented_corpus(base, plan, datasets)


def _write_labels_csv(path: str, ids: list[str], labels) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        writer.writerows((row_id, label.value) for row_id, label in zip(ids, labels))


# --- subcommand handlers ----------------------------------------------------


def _cmd_normalize(args) -> int:
    cfg = _load_optional_config(args)
    source = _require(args.infile or cfg.get("paths", {}).get("data"), "--in")
    out = _require(args.out, "--out")
    rows = corpus_mod.read_jsonl(source)
    normalized = normalize_corpus(rows, normalization_config(cfg, **_normalization_flags(args)))
    corpus_mod.write_jsonl(out, normalized)
    empty = sum(1 for row in normalized if not row.norm_text)
    print(f"normalized {len(normalized)} rows -> {out} ({empty} empty after normalization)")
    return 0


def _cmd_split(args) -> int:
    cfg = _load_optional_config(args)
    data = _require(args.data or cfg.get("paths", {}).get("data"), "--data")
    out = _require(args.out, "--out")
    rows = corpus_mod.read_jsonl(data)
    plan = stratified_folds(rows, k=args.folds, seed=_seed(args, cfg))
    corpus_mod.write_json(out, plan.to_dict())
    print(f"assigned {len(plan.assignments)} gold rows to {plan.k} folds -> {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_optional_config(args)
    data = _require(args.data or cfg.get("paths", {}).get("data"), "--data")
    backend = _require(args.backend, "--backend")
    out = _require(args.out, "--out")
    [(spec, hp)] = encoder.members_from_entries(
        [{"key": backend, "max_sequence_tokens": args.max_tokens}], _seed(args, cfg), _read_hp(args.hp, cfg)
    )
    rows = [row for row in corpus_mod.read_jsonl(data) if row.norm_text]
    model = encoder.fit(spec, hp, rows)
    encoder.save_model(model, out)
    print(f"trained {backend} on {len(rows)} rows -> {out} (fingerprint {model.train_fingerprint})")
    return 0


def _cmd_predict(args) -> int:
    cfg = _load_optional_config(args)
    data = _require(args.data or cfg.get("paths", {}).get("data"), "--data")
    out = _require(args.out, "--out")
    model = encoder.load_model(_require(args.model, "--model"))
    rows = corpus_mod.read_jsonl(data)
    for row in rows:
        if row.norm_text is None:
            raise ConfigError(f"row {row.id!r} is not normalized; run `arahate normalize` first")
    matrix = encoder.predict_proba(
        model, [row.norm_text or "" for row in rows], ids=[row.id for row in rows]
    )
    write_proba_csv(out, matrix)
    print(f"wrote probabilities for {len(rows)} rows -> {out}")
    return 0


def _cmd_vote(args) -> int:
    paths = _require(args.caches, "--caches")
    out = _require(args.out, "--out")
    _, weights = ensemble_policy(len(paths), args.mode, args.weights.split(",") if args.weights else None)
    caches = [read_proba_csv(path) for path in paths]
    if args.mode == "majority":
        labels = majority_vote(caches)
        _write_labels_csv(out, caches[0].ids, labels)
    else:
        labels, combined = average_vote(caches, weights)
        write_proba_csv(out, combined)
    if args.labels_out:
        _write_labels_csv(args.labels_out, caches[0].ids, labels)
    print(f"{args.mode} vote over {len(caches)} caches -> {out}")
    return 0


def _cmd_tune(args) -> int:
    cfg = _load_optional_config(args)
    data_path = _require(args.data or cfg.get("paths", {}).get("data"), "--data")
    backend = _require(args.backend, "--backend")
    out_dir = Path(_require(args.out, "--out"))
    seed = _seed(args, cfg)
    [(spec, base_hp)] = encoder.members_from_entries([{"key": backend}], seed)
    data = corpus_mod.read_jsonl(data_path)
    section = read_yaml(args.grid, "search grid", GRID_SCHEMA) if args.grid else {}
    grid = tune_mod.SearchGrid.from_mapping(section, base_hp)
    fold_plan = stratified_folds(data, k=args.folds, seed=seed)
    best, trace = tune_mod.coordinate_search(
        spec, grid, data, tune_mod.make_cv_protocol(fold_plan)
    )
    tune_mod.write_trace_csv(out_dir / "trace.csv", trace)
    corpus_mod.write_json(out_dir / "best.json", {"backend": backend, **best.fields()})
    print(
        f"best for {backend}: epochs={best.epochs} batch_size={best.batch_size} "
        f"learning_rate={best.learning_rate} -> {out_dir}"
    )
    return 0


def _cmd_augment(args) -> int:
    cfg = _load_optional_config(args)
    base_path = _require(args.base or cfg.get("paths", {}).get("data"), "--base")
    out = _require(args.out, "--out")
    base = corpus_mod.read_jsonl(base_path, key="base")
    merged, aug_report = _augment_from_plan(args, cfg, _require(args.plan, "--plan"), _seed(args, cfg), base)
    corpus_mod.write_jsonl(out, merged)
    if args.report:
        aug_report.write_json(args.report)
    print(
        f"augmented corpus: {len(base)} base + {len(merged) - len(base)} added rows -> {out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_optional_config(args)
    data_path = _require(args.data or cfg.get("paths", {}).get("data"), "--data")
    backends = _require(args.backend, "--backend")
    out_dir = Path(_require(args.out, "--out"))
    seed = _seed(args, cfg)
    members = encoder.members_from_entries([{"key": key} for key in backends], seed, _read_hp(args.hp, cfg))
    rows = corpus_mod.read_jsonl(data_path)
    if args.augment_plan:
        rows, _ = _augment_from_plan(args, cfg, args.augment_plan, seed, rows)
    fold_plan = stratified_folds(rows, k=args.folds, seed=seed)
    metrics = cross_validate(rows, Classifier(members, args.mode).fit, fold_plan, seed=seed)
    metrics.write_json(out_dir / "metrics.json")
    print(
        f"cross-validated {'+'.join(backends)} over {fold_plan.k} folds: "
        f"micro F1 {metrics.micro_f1:.2f}%, macro F1 {metrics.macro_f1:.2f}% "
        f"-> {out_dir / 'metrics.json'}"
    )
    return 0


def _cmd_report(args) -> int:
    out = _require(args.out, "--out")
    baselines = report_mod.load_baselines(args.baselines)
    path = report_mod.write_report(out, args.runs or [], baselines, args.format)
    print(f"wrote {args.format} report -> {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(_require(args.config, "--config"))
    out_root = args.out or cfg.get("paths", {}).get("out_root") or "runs"
    run_dir = run_experiment(cfg, out_root, seed=args.seed)
    print(f"run complete -> {run_dir}")
    return 0


# --- parser wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arahate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("normalize", help="normalize a JSONL corpus")
    p.add_argument("--in", dest="infile", help="input corpus (JSONL)")
    p.add_argument("--stopwords", help="stopword file, one word per line")
    p.add_argument("--keep-non-arabic", action="store_true", help="keep non-Arabic letters")
    p.add_argument("--repeat-collapse-len", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("split", help="write a stratified fold plan")
    p.add_argument("--data", help="corpus (JSONL)")
    p.add_argument("--folds", type=int, default=10)
    _add_common(p)
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("train", help="fine-tune one backend and save the artifact")
    p.add_argument("--data", help="normalized corpus (JSONL)")
    p.add_argument("--backend", help="backend key")
    p.add_argument("--hp", help="hyperparameter file (YAML/JSON)")
    p.add_argument("--max-tokens", type=int, default=512)
    _add_common(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("tune", help="coordinate-wise hyperparameter search")
    p.add_argument("--backend", help="backend key")
    p.add_argument("--grid", help="search grid file (YAML/JSON)")
    p.add_argument("--data", help="normalized corpus (JSONL)")
    p.add_argument("--folds", type=int, default=10)
    _add_common(p)
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("predict", help="write a probability cache for a corpus")
    p.add_argument("--model", help="model artifact directory")
    p.add_argument("--data", help="normalized corpus (JSONL)")
    _add_common(p)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("vote", help="combine probability caches by voting")
    p.add_argument("--mode", choices=["majority", "average"], default="majority")
    p.add_argument("--caches", nargs="+", help="probability cache CSVs")
    p.add_argument("--weights", help="comma-separated per-model weights")
    p.add_argument("--labels-out", help="also write id,label CSV here")
    _add_common(p)
    p.set_defaults(fn=_cmd_vote)

    p = sub.add_parser("augment", help="build an augmented corpus from a plan")
    p.add_argument("--base", help="base corpus (JSONL)")
    p.add_argument("--plan", help="augmentation plan file (YAML/JSON)")
    p.add_argument("--report", help="write the augmentation report JSON here")
    p.add_argument("--stopwords", help="stopword file (for un-normalized inputs)")
    p.add_argument("--keep-non-arabic", action="store_true")
    p.add_argument("--repeat-collapse-len", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_augment)

    p = sub.add_parser("evaluate", help="stratified k-fold cross-validation")
    p.add_argument("--data", help="corpus (JSONL)")
    p.add_argument("--backend", action="append", help="backend key (repeatable)")
    p.add_argument("--hp", help="hyperparameter file (YAML/JSON)")
    p.add_argument("--mode", choices=["single", "majority", "average"], default=None)
    p.add_argument("--augment-plan", help="apply this augmentation plan before CV")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--stopwords", help="stopword file (for un-normalized inputs)")
    p.add_argument("--keep-non-arabic", action="store_true")
    p.add_argument("--repeat-collapse-len", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("report", help="render comparison tables")
    p.add_argument("--runs", nargs="*", default=[], help="run directories with metrics.json")
    p.add_argument("--baselines", help="baseline reference file (default: packaged)")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    _add_common(p)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("run", help="execute the full pipeline from a config file")
    _add_common(p)
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args) or 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArahateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
