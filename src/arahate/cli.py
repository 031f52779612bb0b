"""Command-line interface: one subcommand per pipeline stage plus `run`.

Every subcommand accepts --config, --seed and --out. A stage subcommand
writes each flag it is given into the run-config key the flag stands for
(FLAG_KEYS) and reads its settings through the same section readers as
`run`, so a setting is its flag, else its key in --config, else its
section's default. Exit codes: 0 success, 1 validation error (bad flags,
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
from .config import (
    GRID_SHAPE, PARTIAL_HYPERPARAMS, encoder_members, fold_plan, load_config, load_plan, normalization_config, read_yaml
)
from .ensemble import average_vote, ensemble_policy, majority_vote, read_proba_csv, write_proba_csv
from .errors import ArahateError, ConfigError
from .evaluate import cross_validate
from .normalize import normalize_corpus
from .pipeline import paused_gc, run_experiment


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; our contract reserves 2 for
    # stage failures, so usage problems exit 1 like every validation error.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_normalization(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stopwords", help="stopword file, one word per line")
    parser.add_argument(
        "--keep-non-arabic", action="store_false", default=None, help="keep non-Arabic letters"
    )
    parser.add_argument("--repeat-collapse-len", type=int)


# Every settings flag and the run-config key it stands for; "*" is each
# backend entry, so --backend must come before --max-tokens. The parser turns
# a flag's value into the key's value. Every other flag names an I/O path.
FLAG_KEYS = {
    "--data": "paths.data",
    "--in": "paths.data",
    "--base": "paths.data",
    "--stopwords": "paths.stopwords",
    "--backend": "encoder.backends",
    "--max-tokens": "encoder.backends.*.max_sequence_tokens",
    "--hp": "encoder.hyperparams",
    "--grid": "tune",
    "--folds": "evaluate.folds",
    "--mode": "ensemble.mode",
    "--weights": "ensemble.weights",
    "--repeat-collapse-len": "normalize.repeat_collapse_len",
    "--keep-non-arabic": "normalize.strip_non_arabic",
    "--format": "report.format",
    "--baselines": "report.baselines",
    "--seed": "seed",
}


def _yaml_file(what: str, shape):
    return lambda path: read_yaml(path, what, shape)


def _put(node, keys: list[str], value) -> None:
    head, *rest = keys
    if head == "*":
        for entry in node:
            _put(entry, rest, value)
    elif rest:  # an absent section starts empty, and so has no backends to set
        _put(node.setdefault(head, {}), rest, value)
    else:
        node[head] = value


def _config(args) -> dict:
    """The run config of --config (or an empty one) with every given flag written into its key."""
    cfg = load_config(args.config) if args.config else {}
    if getattr(args, "mode", None) or getattr(args, "weights", None):
        cfg.pop("ensemble", None)  # together --mode and --weights stand for the whole section
    for flag, key in FLAG_KEYS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            _put(cfg, key.split("."), value)
    return cfg


def _require(value, flag: str):
    if value in (None, []):
        raise ConfigError(f"missing required option {flag}")
    return value


def _data(cfg: dict, flag: str = "--data") -> str:
    return _require(cfg.get("paths", {}).get("data"), flag)


def _one_member(cfg: dict, command: str, require_hyperparams: bool = True):
    members = encoder_members(cfg, cfg.get("seed", 0), require_hyperparams)
    if len(members) != 1:
        raise ConfigError(f"{command} takes one backend, got {len(members)}; choose one with --backend")
    return members[0]


def _augment_from_plan(cfg: dict, plan_path: str, base: list):
    """Normalize the base and every registry dataset of the plan if needed, then augment."""
    plan = load_plan(plan_path, default_seed=cfg.get("seed", 0))
    if plan.registry is None:
        raise ConfigError("augmentation plan must name a dataset registry")
    norm_cfg = normalization_config(cfg)

    def normalized(rows):
        return normalize_corpus(rows, norm_cfg) if any(row.norm_text is None for row in rows) else rows

    base = normalized(base)
    datasets = {
        descriptor.key: (descriptor, normalized(corpus_mod.load_dataset(descriptor)))
        for descriptor in corpus_mod.load_registry(plan.registry)
    }
    return augment_mod.build_augmented_corpus(base, plan, datasets)


def _normalized(rows: list) -> list:
    """``rows``, once every one of them is normalized; a row that is not is a validation error."""
    for row in rows:
        if row.norm_text is None:
            raise ConfigError(f"row {row.id!r} is not normalized; run `arahate normalize` first")
    return rows


def _write_labels_csv(path: str, ids: list[str], labels) -> None:
    with corpus_mod.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        writer.writerows((row_id, label.value) for row_id, label in zip(ids, labels))


# --- subcommand handlers ----------------------------------------------------


def _cmd_normalize(args) -> int:
    cfg = _config(args)
    source, out = _data(cfg, "--in"), _require(args.out, "--out")
    normalized = normalize_corpus(corpus_mod.read_jsonl(source), normalization_config(cfg))
    corpus_mod.write_jsonl(out, normalized)
    empty = sum(1 for row in normalized if not row.norm_text)
    print(f"normalized {len(normalized)} rows -> {out} ({empty} empty after normalization)")
    return 0


def _cmd_split(args) -> int:
    cfg = _config(args)
    data, out = _data(cfg), _require(args.out, "--out")
    plan = fold_plan(cfg, corpus_mod.read_jsonl(data), cfg.get("seed", 0))
    corpus_mod.write_json(out, plan.to_dict())
    print(f"assigned {len(plan.assignments)} gold rows to {plan.k} folds -> {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _config(args)
    data, (spec, hp) = _data(cfg), _one_member(cfg, "train")
    out = _require(args.out, "--out")
    rows = [row for row in _normalized(corpus_mod.read_jsonl(data)) if row.norm_text]
    model = encoder.fit(spec, hp, rows)
    encoder.save_model(model, out)
    print(f"trained {spec.backend_key} on {len(rows)} rows -> {out} (fingerprint {model.train_fingerprint})")
    return 0


def _cmd_predict(args) -> int:
    data, out = _data(_config(args)), _require(args.out, "--out")
    model = encoder.load_model(_require(args.model, "--model"))
    rows = _normalized(corpus_mod.read_jsonl(data))
    matrix = encoder.predict_proba(model, [row.norm_text for row in rows], ids=[row.id for row in rows])
    write_proba_csv(out, matrix)
    print(f"wrote probabilities for {len(rows)} rows -> {out}")
    return 0


def _cmd_vote(args) -> int:
    ensemble_cfg = _config(args).get("ensemble", {})
    paths, out = _require(args.caches, "--caches"), _require(args.out, "--out")
    # vote has no single model to fall back on: without a mode it votes by majority.
    mode = ensemble_cfg.get("mode", "majority")
    if mode == "single":
        raise ConfigError("vote has no mode 'single'; its modes are 'majority' and 'average'")
    mode, weights = ensemble_policy(len(paths), mode, ensemble_cfg.get("weights"))
    caches = [read_proba_csv(path) for path in paths]
    if mode == "majority":
        labels = majority_vote(caches)
        _write_labels_csv(out, caches[0].ids, labels)
    else:
        labels, combined = average_vote(caches, weights)
        write_proba_csv(out, combined)
    if args.labels_out:
        _write_labels_csv(args.labels_out, caches[0].ids, labels)
    print(f"{mode} vote over {len(caches)} caches -> {out}")
    return 0


def _cmd_tune(args) -> int:
    cfg = _config(args)
    data, (spec, base_hp) = _data(cfg), _one_member(cfg, "tune", require_hyperparams=False)
    out_dir = Path(_require(args.out, "--out"))
    rows = _normalized(corpus_mod.read_jsonl(data))
    grid = tune_mod.SearchGrid.from_mapping(cfg.get("tune", {}), base_hp)
    protocol = tune_mod.make_cv_protocol(fold_plan(cfg, rows, cfg.get("seed", 0)))
    best, trace = tune_mod.coordinate_search(spec, grid, rows, protocol)
    tune_mod.write_trace_csv(out_dir / "trace.csv", trace)
    corpus_mod.write_json(out_dir / "best.json", {"backend": spec.backend_key, **best.fields()})
    print(
        f"best for {spec.backend_key}: epochs={best.epochs} batch_size={best.batch_size} "
        f"learning_rate={best.learning_rate} -> {out_dir}"
    )
    return 0


def _cmd_augment(args) -> int:
    cfg = _config(args)
    base_path, out = _data(cfg, "--base"), _require(args.out, "--out")
    base = corpus_mod.read_jsonl(base_path, key="base")
    merged, aug_report = _augment_from_plan(cfg, _require(args.plan, "--plan"), base)
    corpus_mod.write_jsonl(out, merged)
    if args.report:
        aug_report.write_json(args.report)
    print(f"augmented corpus: {len(base)} base + {len(merged) - len(base)} added rows -> {out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _config(args)
    seed = cfg.get("seed", 0)
    data, members = _data(cfg), encoder_members(cfg, seed)
    out_dir = Path(_require(args.out, "--out"))
    rows = corpus_mod.read_jsonl(data)
    if args.augment_plan:
        rows, _ = _augment_from_plan(cfg, args.augment_plan, rows)
    folds = fold_plan(cfg, _normalized(rows), seed)
    metrics = cross_validate(rows, Classifier(members, **cfg.get("ensemble", {})).fit_many, folds, seed=seed)
    metrics.write_json(out_dir / "metrics.json")
    print(
        f"cross-validated {'+'.join(spec.backend_key for spec, _ in members)} over {folds.k} folds: "
        f"micro F1 {metrics.micro_f1:.2f}%, macro F1 {metrics.macro_f1:.2f}% "
        f"-> {out_dir / 'metrics.json'}"
    )
    return 0


def _cmd_report(args) -> int:
    report_cfg = _config(args).get("report", {})
    fmt, out = report_cfg.get("format", "markdown"), _require(args.out, "--out")
    baselines = report_mod.load_baselines(report_cfg.get("baselines"))
    path = report_mod.write_report(out, args.runs, baselines, fmt)
    print(f"wrote {fmt} report -> {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(_require(args.config, "--config"), seed=args.seed)
    out_root = args.out or cfg.get("paths", {}).get("out_root") or "runs"
    run_dir = run_experiment(cfg, out_root, seed=args.seed)
    print(f"run complete -> {run_dir}")
    return 0


# --- parser wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arahate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, fn, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="run configuration file (YAML/JSON)")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--out", help="output path (file or directory, per command)")
        return p

    p = command("normalize", _cmd_normalize, "normalize a JSONL corpus")
    p.add_argument("--in", help="input corpus (JSONL)")
    _add_normalization(p)

    p = command("split", _cmd_split, "write a stratified fold plan")
    p.add_argument("--data", help="corpus (JSONL)")
    p.add_argument("--folds", type=int)

    p = command("train", _cmd_train, "fine-tune one backend and save the artifact")
    p.add_argument("--data", help="normalized corpus (JSONL)")
    p.add_argument("--backend", type=lambda key: [{"key": key}], help="backend key")
    p.add_argument(
        "--hp", type=_yaml_file("hyperparameter file", PARTIAL_HYPERPARAMS), help="hyperparameter file (YAML/JSON)"
    )
    p.add_argument("--max-tokens", type=int)

    p = command("tune", _cmd_tune, "coordinate-wise hyperparameter search")
    p.add_argument("--backend", type=lambda key: [{"key": key}], help="backend key")
    p.add_argument("--grid", type=_yaml_file("search grid", GRID_SHAPE), help="search grid file (YAML/JSON)")
    p.add_argument("--data", help="normalized corpus (JSONL)")
    p.add_argument("--folds", type=int)

    p = command("predict", _cmd_predict, "write a probability cache for a corpus")
    p.add_argument("--model", help="model artifact directory")
    p.add_argument("--data", help="normalized corpus (JSONL)")

    p = command("vote", _cmd_vote, "combine probability caches by voting")
    p.add_argument("--mode", choices=["majority", "average"], help="default: majority")
    p.add_argument("--caches", nargs="+", help="probability cache CSVs")
    p.add_argument("--weights", type=lambda text: text.split(","), help="comma-separated per-model weights")
    p.add_argument("--labels-out", help="also write id,label CSV here")

    p = command("augment", _cmd_augment, "build an augmented corpus from a plan")
    p.add_argument("--base", help="base corpus (JSONL)")
    p.add_argument("--plan", help="augmentation plan file (YAML/JSON)")
    p.add_argument("--report", help="write the augmentation report JSON here")
    _add_normalization(p)

    p = command("evaluate", _cmd_evaluate, "stratified k-fold cross-validation")
    p.add_argument("--data", help="corpus (JSONL)")
    p.add_argument("--backend", action="append", type=lambda key: {"key": key}, help="backend key (repeatable)")
    p.add_argument(
        "--hp", type=_yaml_file("hyperparameter file", PARTIAL_HYPERPARAMS), help="hyperparameter file (YAML/JSON)"
    )
    p.add_argument("--mode", choices=["single", "majority", "average"])
    p.add_argument("--augment-plan", help="apply this augmentation plan before CV")
    p.add_argument("--folds", type=int)
    _add_normalization(p)

    p = command("report", _cmd_report, "render comparison tables")
    p.add_argument("--runs", nargs="*", default=[], help="run directories with metrics.json")
    p.add_argument("--baselines", help="baseline reference file (default: packaged)")
    p.add_argument("--format", choices=["markdown", "csv"])

    command("run", _cmd_run, "execute the full pipeline from a config file")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    try:  # --hp and --grid files are read while parsing
        args = build_parser().parse_args(argv)
        with paused_gc():
            try:
                return args.fn(args) or 0
            finally:
                encoder._FEATURE_MEMO.clear()  # the memo lives for one subcommand
    except ArahateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
