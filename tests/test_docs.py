"""The README states the user's contract: every command, flag and config key, and no measured figure."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from arahate.cli import FLAG_KEYS, build_parser
from arahate.config import CONFIG_SHAPE

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README's ``## title`` section, up to the next section of that level."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def key_paths(shape, prefix: str = "") -> list[str]:
    """Every key path of a config shape; ``*`` stands for each entry of a list."""
    if isinstance(shape, list):
        return key_paths(shape[0], f"{prefix}.*")
    if not isinstance(shape, dict):
        return []
    paths = []
    for key, sub in shape.items():
        path = f"{prefix}.{key.rstrip('!')}".lstrip(".")
        paths += [path, *key_paths(sub, path)]
    return paths


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_names_every_subcommand():
    missing = [name for name in subcommands() if f"arahate {name} " not in README]
    assert not missing


def test_readme_names_every_flag():
    flags = set(FLAG_KEYS)
    for parser in subcommands().values():
        flags.update(flag for action in parser._actions for flag in action.option_strings if flag.startswith("--"))
    flags.discard("--help")
    missing = sorted(flag for flag in flags if f"`{flag}`" not in README)
    assert not missing


def test_config_table_has_one_row_per_key_path():
    rows = re.findall(r"^\| `([^`]+)` \|", section("Configuration reference"), re.M)
    assert len(rows) == len(set(rows)), "a key path has two rows"
    assert set(rows) == set(key_paths(CONFIG_SHAPE))


def test_relative_links_resolve():
    links = re.findall(r"\]\(([^)\s]+)\)", README)
    assert links
    for link in links:
        if not re.match(r"[a-z]+:|#", link):
            assert (ROOT / link.split("#")[0]).exists(), link


def test_named_tests_exist():
    named = re.findall(r"`(test_\w+\.py)::([\w:]+)`", README)
    assert named
    for module, node in named:
        source = (ROOT / "tests" / module).read_text(encoding="utf-8")
        *classes, name = node.split("::")
        for cls in classes:
            assert re.search(rf"^class {cls}\b", source, re.M), f"{module}::{node}"
        assert re.search(rf"^\s*def {name}\(", source, re.M), f"{module}::{node}"


def test_reproducibility_fits_in_sixty_lines():
    assert len(section("Reproducibility").splitlines()) <= 60


def test_readme_quotes_no_measurement():
    # Measurements and their history live in CHANGES.md and the BENCH_*.json records.
    assert not re.findall(r"[0-9] ?(?:ms|MiB|KiB|MB)\b|seed-1|fell from|rose (?:by|from)", README)
