"""Seeded synthetic corpora and run configs for the benchmark workloads.

The class letter pools are copied from the test fixtures rather than imported,
so editing the tests never shifts the benchmark. Unlike the fixtures, the
texts here are noisy tweets: they carry mentions, URLs, RT, hashtags, emoji,
digits, diacritics, tatweel, letter runs and alef / ta-marbuta /
alef-maqsura variants, a share of words borrowed from other classes (so the
classes overlap and macro-F1 stays below 100) and some duplicate texts.

The program under test only ever sees the files written here.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

LABELS = ("NH", "GH", "Re", "Ra", "Se")
CLASS_LETTERS = {
    "NH": "بتثجح",
    "GH": "خدذرز",
    "Re": "سشصضط",
    "Ra": "ظعغفق",
    "Se": "كلمنه",
}
# Class shares of a base corpus: non-hate dominates, as in tweet corpora.
CLASS_SHARES = {"NH": 0.5, "GH": 0.2, "Re": 0.1, "Ra": 0.1, "Se": 0.1}

DIACRITICS = [chr(cp) for cp in range(0x064B, 0x0653)]
TATWEEL = "ـ"
EMOJI = ["\U0001F600", "\U0001F621", "\U0001F44D", "❤️", "\U0001F525"]
# Words outside every class pool whose letters normalization rewrites:
# hamza/madda alef, ta-marbuta and alef-maqsura variants.
VARIANT_WORDS = ["أمور", "إلهام", "آخرون", "مدرسة", "على", "مستشفى", "أولى", "صورة"]
STOPWORDS = ["من", "في", "على", "إلى", "عن", "و", "هذا", "التي"]


class TweetGenerator:
    """Draws noisy tweet texts for a class from one seeded stream."""

    def __init__(self, seed: int, cross_share: float = 0.15):
        self.rng = random.Random(seed)
        self.cross_share = cross_share

    def word(self, label: str) -> str:
        pool = CLASS_LETTERS[label]
        return "".join(self.rng.choice(pool) for _ in range(self.rng.randint(4, 6)))

    def _noisy_word(self, word: str) -> str:
        """Surface noise that normalization removes again."""
        kind = self.rng.random()
        if kind < 0.15:
            cut = self.rng.randint(1, len(word) - 1)
            return word[:cut] + self.rng.choice(DIACRITICS) + word[cut:]
        if kind < 0.25:
            cut = self.rng.randint(1, len(word) - 1)
            return word[:cut] + TATWEEL * self.rng.randint(1, 3) + word[cut:]
        if kind < 0.35:
            return word + word[-1] * self.rng.randint(2, 5)
        if kind < 0.40:
            return "#" + word
        return word

    def _noise_token(self) -> str:
        kind = self.rng.randrange(7)
        if kind == 0:
            return f"@user{self.rng.randrange(10_000)}"
        if kind == 1:
            return f"https://t.co/{self.rng.randrange(16**6):06x}"
        if kind == 2:
            return "RT"
        if kind == 3:
            return self.rng.choice(EMOJI) * self.rng.randint(1, 3)
        if kind == 4:
            return str(self.rng.randrange(1, 10_000))
        if kind == 5:
            return self.rng.choice(VARIANT_WORDS)
        return self.rng.choice(STOPWORDS)

    def text(self, label: str) -> str:
        tokens = []
        for _ in range(self.rng.randint(3, 8)):
            source = label
            if self.rng.random() < self.cross_share:
                source = self.rng.choice([other for other in LABELS if other != label])
            tokens.append(self._noisy_word(self.word(source)))
        for _ in range(self.rng.randint(0, 3)):
            tokens.insert(self.rng.randint(0, len(tokens)), self._noise_token())
        return " ".join(tokens)

    def noise_only(self) -> str:
        """A tweet that normalizes to the empty string."""
        return " ".join(
            [f"@user{self.rng.randrange(10_000)}", f"https://t.co/{self.rng.randrange(999):03d}"]
            + [self.rng.choice(EMOJI), str(self.rng.randrange(100))]
        )


def base_rows(gen: TweetGenerator, n_rows: int, prefix: str = "b") -> list[dict]:
    """Labelled base corpus with ~2 % duplicate texts and ~1 % noise-only rows."""
    labels = []
    for label in LABELS:
        labels += [label] * round(n_rows * CLASS_SHARES[label])
    gen.rng.shuffle(labels)
    rows = []
    for index, label in enumerate(labels):
        roll = gen.rng.random()
        if roll < 0.02 and rows:
            same = [row["text"] for row in rows if row["label"] == label]
            text = gen.rng.choice(same) if same else gen.text(label)
        elif roll < 0.03:
            text = gen.noise_only()
        else:
            text = gen.text(label)
        rows.append({"id": f"{prefix}{index}", "text": text, "label": label, "source": "base"})
    return rows


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def write_delimited(path: Path, rows: list[dict], delimiter: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["id", "text", "label"], delimiter=delimiter)
        writer.writeheader()
        writer.writerows({key: row[key] for key in ("id", "text", "label")} for row in rows)


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload; `tiny` shapes keep the smoke test fast."""

    base_rows: int
    folds: int
    direct_rows: int = 0
    pseudo_rows: int = 0


SHAPES = {
    "desk": {"full": Shape(500, 10), "tiny": Shape(60, 3)},
    "tune-grid": {"full": Shape(500, 5), "tiny": Shape(60, 3)},
    "augment-vote": {
        "full": Shape(300, 3, direct_rows=240, pseudo_rows=12_000),
        "tiny": Shape(60, 3, direct_rows=30, pseudo_rows=300),
    },
}
WORKLOADS = tuple(SHAPES)


def _config(workload: str, shape: Shape, seed: int, tiny: bool) -> dict:
    cfg: dict = {
        "run_name": f"perfbench-{workload}",
        "seed": seed,
        "paths": {"data": "base.jsonl", "stopwords": "stopwords.txt"},
        "evaluate": {"folds": shape.folds},
        "report": {"enabled": True, "format": "markdown"},
    }
    if workload == "desk":
        cfg["encoder"] = {
            "backends": [{"key": "toy"}],
            "hyperparams": {"epochs": 2 if tiny else 5, "batch_size": 8, "learning_rate": 0.1},
        }
    elif workload == "tune-grid":
        cfg["encoder"] = {
            "backends": [{"key": "toy"}],
            "hyperparams": {"epochs": 1, "batch_size": 8, "learning_rate": 0.05},
        }
        cfg["tune"] = {
            "enabled": True,
            "epochs_axis": [1, 2, 3],
            "batch_axis": [8, 16],
            "lr_axis": [0.05, 0.1],
            "initial": {"epochs": 1, "batch_size": 8, "learning_rate": 0.05},
        }
    else:
        cfg["encoder"] = {
            "backends": [{"key": "toy"}, {"key": "toy"}, {"key": "toy"}],
            "hyperparams": {"epochs": 2, "batch_size": 64, "learning_rate": 0.5},
        }
        cfg["ensemble"] = {"mode": "majority"}
        cfg["augment"] = {
            "enabled": True,
            "registry": "registry.json",
            "direct_sources": ["rhs"],
            "pseudo_sources": ["mlma", "osact"],
            "confidence_threshold": 0.0,
        }
    return cfg


def _pseudo_rows(gen: TweetGenerator, n_rows: int, prefix: str, base_texts: list[str]) -> list[dict]:
    """A hate-labelled external source whose texts are mostly non-hate.

    About 97 % of the texts come from the non-hate pool, so the labeler
    discards them; a few repeat base texts and are dropped as duplicates, and
    a tenth carry a label the registry discards at load time.
    """
    rows = []
    for index in range(n_rows):
        roll = gen.rng.random()
        if roll < 0.01:
            text = gen.rng.choice(base_texts)
        elif roll < 0.04:
            text = gen.text(gen.rng.choice(LABELS[1:]))
        else:
            text = gen.text("NH")
        label = "normal" if gen.rng.random() < 0.1 else "hate"
        rows.append({"id": f"{prefix}{index}", "text": text, "label": label})
    return rows


def generate(workload: str, seed: int, directory: Path, tiny: bool = False) -> Path:
    """Write the workload's inputs and config under `directory`; return the config path."""
    shape = SHAPES[workload]["tiny" if tiny else "full"]
    directory.mkdir(parents=True, exist_ok=True)
    gen = TweetGenerator(seed)
    base = base_rows(gen, shape.base_rows)
    write_jsonl(directory / "base.jsonl", base)
    (directory / "stopwords.txt").write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
    if workload == "augment-vote":
        base_texts = [row["text"] for row in base]
        direct = []
        for index in range(shape.direct_rows):
            roll = gen.rng.random()
            text = gen.rng.choice(base_texts) if roll < 0.05 else gen.text("Re")
            label = "normal" if gen.rng.random() < 0.1 else "hateful"
            direct.append({"id": f"r{index}", "text": text, "label": label})
        write_delimited(directory / "rhs.csv", direct, ",")
        for key in ("mlma", "osact"):
            rows = _pseudo_rows(gen, shape.pseudo_rows, key[0], base_texts)
            write_delimited(directory / f"{key}.tsv", rows, "\t")
        registry = {
            "datasets": [
                {"key": "rhs", "path": "rhs.csv", "format": "csv", "hate_only": True,
                 "label_map": {"hateful": "Re", "normal": "discard"}},
                {"key": "mlma", "path": "mlma.tsv", "format": "tsv", "hate_only": True,
                 "label_map": {"hate": "GH", "normal": "discard"}},
                {"key": "osact", "path": "osact.tsv", "format": "tsv", "hate_only": True,
                 "label_map": {"hate": "GH", "normal": "discard"}},
            ]
        }
        (directory / "registry.json").write_text(json.dumps(registry, indent=2), encoding="utf-8")
    config_path = directory / "config.json"
    config_path.write_text(
        json.dumps(_config(workload, shape, seed, tiny), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return config_path
