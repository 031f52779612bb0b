"""Output identity: tiny benchmark runs write the bytes of a committed table.

The tiny seed-3 inputs of every benchmark workload are generated with
``perfbench/gen.py`` (imported as CI imports it) and run in-process. The
SHA-256 of every file in each run directory must match
``tests/data/run_identity.tsv``, so a change that moves any output bit fails
here. An intended output change is an edit of that table; rewrite it with
``PYTHONPATH=src python tests/test_output_identity.py``.

The run id hashes the absolute input paths, so the places that carry it or a
path are masked:

- the run directory's name ``run-<id>``;
- ``stages/*.ok`` (each holds the run id) and ``manifest.json`` (run id,
  resolved config and input paths) are skipped;
- ``metrics.json``'s ``config_hash`` and the run row of ``report/tables.md``
  have the run id replaced by ``RUN_ID``.

Two input directories give equal bytes everywhere else.

A run pauses automatic cyclic collection (``pipeline.paused_gc``) and hands
the caller's setting back; ``TestPausedCollector`` checks that the pause is
in effect, that no output byte depends on it, and that every way out of a
run, the CLI's included, restores the setting.

A run also keeps the memory it frees in the heap (``pipeline.retained_heap``):
on glibc it fixes the mmap and trim thresholds and trims the heap when it
ends. ``TestRetainedHeap`` checks, through a fake C library, that both
thresholds are set before the first stage, that every way out of a run or
subcommand trims, and that a C library without ``mallopt`` is left alone. It
compares a run's bytes with a fresh interpreter's run without the scope, and
on Linux with glibc it checks the mechanism: a freed array allocated again
inside the scope costs a small fraction of the page faults it costs outside.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.sparse import _compressed

from arahate import cli, encoder, pipeline
from arahate.config import load_config
from arahate.errors import ArahateError
from arahate.pipeline import ExperimentRun, StageFailure, paused_gc, run_experiment

REPO = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "data" / "run_identity.tsv"
SEED = 3
SKIPPED = ("manifest.json", "stages/")
RUN_ID_FILES = ("metrics.json", "report/tables.md")


def _gen():
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return gen


def workload_hashes(workload: str, root: Path) -> dict[tuple[str, str], str]:
    """(workload, file) -> SHA-256 of every unmasked file of the tiny workload's run under ``root``."""
    config = _gen().generate(workload, SEED, root / workload / "inputs", tiny=True)
    run_dir = run_experiment(load_config(config), root / workload / "runs")
    run_id = run_dir.name.removeprefix("run-").encode()
    hashes = {}
    for path in sorted(run_dir.rglob("*")):
        name = path.relative_to(run_dir).as_posix()
        if not path.is_file() or name.startswith(SKIPPED):
            continue
        content = path.read_bytes()
        if name in RUN_ID_FILES:
            content = content.replace(run_id, b"RUN_ID")
        hashes[workload, name] = hashlib.sha256(content).hexdigest()
    return hashes


def run_hashes(root: Path) -> dict[tuple[str, str], str]:
    """(workload, file) -> SHA-256 of every unmasked file of each tiny workload's run under ``root``."""
    return {key: digest for workload in _gen().WORKLOADS for key, digest in workload_hashes(workload, root).items()}


def read_table() -> dict[tuple[str, str], str]:
    rows = (line.split("\t") for line in TABLE.read_text(encoding="utf-8").splitlines() if line)
    return {(workload, name): digest for workload, name, digest in rows}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """The runs' hashes, and how many scipy sparse matrices the runs constructed."""
    calls = []
    init = _compressed._cs_matrix.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(type(self).__name__)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "_FEATURE_MEMO", {})  # every text is hashed in these runs
        patch.setattr(_compressed._cs_matrix, "__init__", counting_init)
        hashes = run_hashes(tmp_path_factory.mktemp("identity"))
    return hashes, calls


def test_tiny_runs_match_identity_table(traced_runs):
    hashes, _ = traced_runs
    expected = read_table()
    assert sorted(hashes) == sorted(expected), "the runs write other files than the table lists"
    changed = ["/".join(key) for key, digest in hashes.items() if expected[key] != digest]
    assert not changed, f"output bytes changed: {changed}"


def test_every_file_a_run_writes_is_a_declared_stage_output(tmp_path, monkeypatch):
    # A resume trusts a stage whose marker and declared outputs exist, so a
    # file a stage writes but does not declare could be served stale.
    monkeypatch.setattr(encoder, "_FEATURE_MEMO", {})
    for workload in _gen().WORKLOADS:
        written = {name for _, name in workload_hashes(workload, tmp_path)}
        run = ExperimentRun(load_config(tmp_path / workload / "inputs" / "config.json"), tmp_path / workload / "runs")
        declared = {path.relative_to(run.run_dir).as_posix() for stage in run._stages() for path in stage.outputs}
        assert declared == written, workload


def test_each_run_and_subcommand_leaves_the_feature_memo_empty(tmp_path, monkeypatch, capsys):
    # Two runs in one process: the second starts from an empty memo, so it
    # still writes the table's bytes, and neither leaves rows behind.
    monkeypatch.setattr(encoder, "_FEATURE_MEMO", {})
    expected = read_table()
    for workload in ("desk", "augment-vote"):
        hashes = workload_hashes(workload, tmp_path)
        assert encoder._FEATURE_MEMO == {}
        assert hashes == {key: digest for key, digest in expected.items() if key[0] == workload}
    config = tmp_path / "desk" / "inputs" / "config.json"
    data = next((tmp_path / "desk" / "runs").glob("run-*/normalized/base.jsonl"))
    assert cli.main(["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "model")]) == 0
    assert encoder._FEATURE_MEMO == {}


def test_runs_construct_no_scipy_sparse_matrix(traced_runs):
    _, calls = traced_runs
    assert calls == []


def test_tiny_desk_run_never_loads_numpy_ma(tmp_path):
    # np.unique without counts checks np.ma.is_masked, which imports numpy.ma
    # (about 10 ms); the run finds distinct values without it. numpy 1.x
    # imports numpy.ma with numpy itself, so there is nothing to keep out.
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}

    def fresh(code: str, *args) -> str:
        argv = [sys.executable, "-c", f"import sys\n{code}\nprint('numpy.ma' in sys.modules)", *map(str, args)]
        return subprocess.run(argv, env=env, check=True, capture_output=True, text=True, timeout=300).stdout.strip()

    if fresh("import numpy") == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    config = _gen().generate("desk", SEED, tmp_path / "inputs", tiny=True)
    code = (
        "from arahate.config import load_config\n"
        "from arahate.pipeline import run_experiment\n"
        "run_experiment(load_config(sys.argv[1]), sys.argv[2])"
    )
    assert fresh(code, config, tmp_path / "runs") == "False"


@pytest.fixture(params=[True, False], ids=["caller-collects", "caller-paused"])
def caller_collects(request):
    """Automatic collection on or off as the caller had it; the process's setting is restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestPausedCollector:
    def tiny_config(self, tmp_path: Path, workload: str = "augment-vote") -> Path:
        return _gen().generate(workload, SEED, tmp_path / "inputs", tiny=True)

    def test_tiny_augment_vote_run_triggers_no_collection(self, tmp_path, monkeypatch):
        config = load_config(self.tiny_config(tmp_path))
        monkeypatch.setattr(encoder, "_FEATURE_MEMO", {})
        collections, enable = [], gc.enable

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        def stop_counting_and_enable():
            # The pass the thresholds owe by now runs at the first allocation
            # after the pause ends, inside the pause's exit or after the run.
            if count in gc.callbacks:
                gc.callbacks.remove(count)
            enable()

        enable()
        monkeypatch.setattr(gc, "enable", stop_counting_and_enable)
        gc.callbacks.append(count)
        try:
            run_experiment(config, tmp_path / "runs")
        finally:
            if count in gc.callbacks:
                gc.callbacks.remove(count)
        assert collections == []
        assert gc.isenabled()

    def test_run_writes_the_bytes_of_a_run_without_the_pause(self, tmp_path, monkeypatch):
        config = load_config(self.tiny_config(tmp_path))
        monkeypatch.setattr(encoder, "_FEATURE_MEMO", {})
        paused = run_experiment(config, tmp_path / "paused")
        monkeypatch.setattr(encoder, "_FEATURE_MEMO", {})
        monkeypatch.setattr(pipeline, "paused_gc", contextlib.nullcontext)
        collecting = run_experiment(config, tmp_path / "collecting")
        files = sorted(p.relative_to(paused) for p in paused.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(collecting) for p in collecting.rglob("*") if p.is_file())
        changed = [str(f) for f in files if (paused / f).read_bytes() != (collecting / f).read_bytes()]
        assert not changed

    def test_run_restores_the_callers_setting(self, tmp_path, caller_collects):
        run_experiment(load_config(self.tiny_config(tmp_path, "desk")), tmp_path / "runs")
        assert gc.isenabled() == caller_collects

    def test_nested_pauses_restore_the_callers_setting(self, caller_collects):
        with paused_gc():
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() == caller_collects

    def test_stage_failure_restores_the_callers_setting(self, tmp_path, caller_collects, capsys):
        config = self.tiny_config(tmp_path, "desk")
        (tmp_path / "inputs" / "base.jsonl").write_text("not json\n", encoding="utf-8")
        with pytest.raises(StageFailure):
            run_experiment(load_config(config), tmp_path / "runs")
        assert gc.isenabled() == caller_collects
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "cli-runs")]) == 2
        assert gc.isenabled() == caller_collects

    def test_subcommands_run_paused(self, tmp_path, monkeypatch, caller_collects, capsys):
        config = self.tiny_config(tmp_path, "desk")
        seen, original = [], cli.normalize_corpus

        def normalize_corpus(rows, cfg):
            seen.append(gc.isenabled())
            return original(rows, cfg)

        monkeypatch.setattr(cli, "normalize_corpus", normalize_corpus)
        out = tmp_path / "normalized.jsonl"
        assert cli.main(["normalize", "--config", str(config), "--out", str(out)]) == 0
        assert seen == [False]
        assert gc.isenabled() == caller_collects


MMAP_THRESHOLD = ("mallopt", -3, 32 << 20)
TRIM_THRESHOLD = ("mallopt", -1, 64 << 20)
TRIM = ("malloc_trim", 0)


class FakeLibc:
    """A C library that records its calls in ``calls`` and has only the functions ``names``."""

    def __init__(self, calls: list, names=("mallopt", "malloc_trim")):
        for name in names:
            setattr(self, name, self._recorder(calls, name))

    @staticmethod
    def _recorder(calls: list, name: str):
        def call(*args):
            calls.append((name, *args))
            return 1

        return call  # a function, so the scope can declare its argtypes


class TestRetainedHeap:
    @pytest.fixture
    def calls(self, monkeypatch) -> list:
        """The calls the heap scope makes, into a fake glibc."""
        calls = []
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: FakeLibc(calls))
        return calls

    @pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
    @pytest.mark.parametrize("entry", ["run", "subcommand"])
    def test_work_runs_inside_the_scope_and_every_way_out_trims(self, tmp_path, monkeypatch, calls, entry, fails):
        # Both thresholds are set before the first stage's work, and the heap
        # is trimmed once whether the run or subcommand succeeds or fails.
        config, seen = _gen().generate("desk", SEED, tmp_path / "inputs", tiny=True), []
        module = pipeline if entry == "run" else cli
        original = module.normalize_corpus

        def normalize_corpus(rows, cfg):
            seen.append(list(calls))
            if fails:
                raise ArahateError("the stage fails")
            return original(rows, cfg)

        monkeypatch.setattr(module, "normalize_corpus", normalize_corpus)
        if entry == "subcommand":
            argv = ["normalize", "--config", str(config), "--out", str(tmp_path / "normalized.jsonl")]
            assert cli.main(argv) == (2 if fails else 0)
        elif fails:
            with pytest.raises(StageFailure):
                run_experiment(load_config(config), tmp_path / "runs")
        else:
            run_experiment(load_config(config), tmp_path / "runs")
        assert seen == [[MMAP_THRESHOLD, TRIM_THRESHOLD]]
        assert calls == [MMAP_THRESHOLD, TRIM_THRESHOLD, TRIM]

    @pytest.mark.parametrize("libc", ["no-mallopt", "no-malloc-trim", "os-error", "type-error"])
    def test_without_mallopt_the_scope_does_nothing(self, monkeypatch, libc):
        calls = []

        def cdll(name):
            if libc.endswith("error"):
                raise {"os-error": OSError, "type-error": TypeError}[libc]("no C library")
            return FakeLibc(calls, names=["malloc_trim"] if libc == "no-mallopt" else ["mallopt"])

        monkeypatch.setattr(pipeline.ctypes, "CDLL", cdll)
        assert pipeline._glibc() is None
        with pipeline.retained_heap():
            pass
        assert calls == []

    def test_run_writes_the_bytes_of_a_run_without_the_scope(self, tmp_path, monkeypatch):
        # The thresholds outlive the scope, so the run without it goes to a
        # fresh interpreter, whose glibc still adjusts them dynamically.
        config = _gen().generate("augment-vote", SEED, tmp_path / "inputs", tiny=True)
        monkeypatch.setattr(encoder, "_FEATURE_MEMO", {})
        retained = run_experiment(load_config(config), tmp_path / "retained")
        code = (
            "import contextlib, sys\n"
            "from arahate import pipeline\n"
            "from arahate.config import load_config\n"
            "pipeline.retained_heap = contextlib.nullcontext\n"
            "print(pipeline.run_experiment(load_config(sys.argv[1]), sys.argv[2]))"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        argv = [sys.executable, "-c", code, str(config), str(tmp_path / "dynamic")]
        out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True, timeout=300).stdout
        dynamic = Path(out.strip())
        files = sorted(p.relative_to(retained) for p in retained.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(dynamic) for p in dynamic.rglob("*") if p.is_file())
        changed = [str(f) for f in files if (retained / f).read_bytes() != (dynamic / f).read_bytes()]
        assert not changed

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc", reason="needs Linux with glibc"
    )
    def test_a_freed_array_is_reused_without_page_faults(self):
        # In a fresh interpreter, glibc's dynamic thresholds serve the first
        # 8 MiB array with a mapping and unmap it when freed, so the same
        # array allocated again faults its pages in again.
        code = (
            "import contextlib, resource, sys\n"
            "import numpy as np\n"
            "from arahate.pipeline import retained_heap\n"
            "with retained_heap() if sys.argv[1] == 'inside' else contextlib.nullcontext():\n"
            "    np.ones(1 << 20)\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    np.ones(1 << 20)\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}

        def faults(where: str) -> int:
            argv = [sys.executable, "-c", code, where]
            return int(subprocess.run(argv, env=env, check=True, capture_output=True, text=True, timeout=300).stdout)

        outside, inside = faults("outside"), faults("inside")
        assert outside > 0 and inside <= outside / 10, (outside, inside)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = run_hashes(Path(scratch))
    lines = (f"{workload}\t{name}\t{digest}\n" for (workload, name), digest in sorted(table.items()))
    TABLE.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(table)} hashes to {TABLE}")
