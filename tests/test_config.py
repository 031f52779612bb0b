"""The config shape checker: JSON's type rules, and set-up without jsonschema."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import arahate
from arahate.config import check_shape
from arahate.errors import ConfigError

JSON_TYPES = {int: "integer", float: "number", str: "string", bool: "boolean"}

SCALARS = st.one_of(
    st.integers(),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([-0.0, 0.0, 1.0, -3.0, 2.5, 1e300, -1e300]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def accepts(value, shape) -> bool:
    try:
        check_shape(value, shape, "value")
    except ConfigError:
        return False
    return True


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(value=VALUES, kind=st.sampled_from(list(JSON_TYPES)), as_list=st.booleans())
def test_type_verdicts_match_jsonschema(value, kind, as_list):
    schema = {"type": JSON_TYPES[kind]}
    if as_list:
        schema = {"type": "array", "items": schema}
    assert accepts(value, [kind] if as_list else kind) == jsonschema.Draft202012Validator(schema).is_valid(value)


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "config invalid at <root>: [] is not a mapping"),
        ({"paths": {"data": "x", "extra": 1}}, "config invalid at paths: unexpected key 'extra'"),
        ({"paths": {}}, "config invalid at paths: 'data' is required"),
        ({"items": [{"n": 1}, {"n": True}]}, "config invalid at items/1/n: True is not of type 'integer'"),
        ({"format": "pdf"}, "config invalid at format: 'pdf' is not one of ['markdown', 'csv']"),
    ],
)
def test_error_names_the_place(data, message):
    shape = {"paths": {"data!": str}, "items": [{"n": int}], "format": ("markdown", "csv")}
    with pytest.raises(ConfigError) as err:
        check_shape(data, shape, "config")
    assert str(err.value) == message


def load_config_in_a_fresh_interpreter(tmp_path, check: str) -> None:
    """Import ``arahate.cli``, load a tiny config and exit with ``check``, in a new interpreter.

    The suite itself imports jsonschema and scipy.sparse, so only a new
    process shows what the CLI's start-up imports.
    """
    (tmp_path / "base.jsonl").write_text("")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "paths": {"data": "base.jsonl"},
        "encoder": {"backends": [{"key": "toy"}], "hyperparams": {"epochs": 1, "batch_size": 8, "learning_rate": 0.1}},
        "evaluate": {"folds": 5},
    }))
    code = (
        "import sys, arahate.cli\n"
        "from arahate.config import load_config\n"
        "load_config(sys.argv[1])\n"
        f"sys.exit({check})\n"
    )
    src = Path(arahate.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code, str(config)], env=env, check=True, timeout=120)


def test_cli_and_load_config_run_without_jsonschema(tmp_path):
    load_config_in_a_fresh_interpreter(tmp_path, "'jsonschema' in sys.modules")


def test_cli_start_up_skips_scipy_sparse_package_init(tmp_path):
    # The toy trainer's kernels load from their extension file; scipy.sparse's
    # package init, and numpy.f2py that it pulls in, stay out.
    load_config_in_a_fresh_interpreter(
        tmp_path, "[name for name in ('scipy.sparse', 'numpy.f2py') if name in sys.modules] or None"
    )
