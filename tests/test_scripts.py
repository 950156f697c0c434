"""The scripts that drive pretrain and finetune run to a clean exit, every
script imports ``versebert`` before numpy, the mutation script's table is
current and its harness tells a kill from a survivor, and the line-reach
script finds every statement of ``src/`` run or explained, with an allowlist
that cannot go stale."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from versebert import cli

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args, cwd, flags=()):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_a_script_imports_versebert_before_numpy(name, tmp_path):
    """OpenBLAS reads the thread timeout that ``versebert`` sets once, as numpy loads it."""
    done = _run_script(name, "--help", cwd=tmp_path, flags=("-X", "importtime"))
    assert done.returncode == 0, done.stderr
    # one line per module as its import ends, so a package's line follows its submodules'
    loaded = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")]
    numpy_at = next((i for i, m in enumerate(loaded) if m.split(".")[0] == "numpy"), None)
    assert numpy_at is None or "versebert" in loaded[:numpy_at], loaded[:numpy_at]


def test_run_pipeline_completes(tmp_path):
    done = _run_script("run_pipeline.py", "--workdir", "work", "--n", "64",
                       "--pretrain-steps", "2", "--finetune-steps", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "work" / "rhyme.ckpt").exists() and (tmp_path / "work" / "report.json").exists()


def test_step_probe_completes(tmp_path):
    done = _run_script("step_probe.py", "--workload", "pretrain-tiny", "--steps", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    timeout = os.environ["OPENBLAS_THREAD_TIMEOUT"]  # set by versebert, here as in the child
    assert lines[0] == (f"versebert from {ROOT / 'src' / 'versebert'}, OPENBLAS_THREAD_TIMEOUT={timeout}, "
                        f"OpenBLAS core {cli.openblas_core()}")
    assert lines[1].startswith("pretrain-tiny seed 3: ")
    assert re.search(r" minor faults/step mean \(.*\), \d+ median, ", lines[1]), lines[1]
    assert re.search(r", [\d.]+ padded and [\d.]+ real positions/step \([\d.]+% padding\), ", lines[1]), lines[1]
    assert lines[2].startswith("  first losses: 0x") and re.fullmatch(r"  parameters sha256: [0-9a-f]{64}", lines[3])


def test_step_probe_classify_prints_the_labels_digest(tmp_path):
    done = _run_script("step_probe.py", "--workload", "classify", "--steps", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()[1:]  # after the versebert directory
    fixture = re.fullmatch(r"classify fixture (.+/rhyme\.ckpt), sha256 ([0-9a-f]{64})", lines.pop(0))
    assert fixture and hashlib.sha256(Path(fixture[1]).read_bytes()).hexdigest() == fixture[2]
    assert lines[0].startswith("classify seed 3: ") and re.fullmatch(r"  labels sha256: [0-9a-f]{64}", lines[1])
    assert lines[2].startswith("  B=1 predict_logits: ")
    assert re.fullmatch(r"  logits sha256: [0-9a-f]{64}", lines[3])


def _script_module(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_fragment_is_found_once():
    mutate = _script_module("mutate")
    assert len({m.name for m in mutate.MUTANTS}) == len(mutate.MUTANTS)
    for m in mutate.MUTANTS:  # mutated_text raises unless the fragment is found exactly once
        assert mutate.mutated_text(m) != (ROOT / m.file).read_text(encoding="utf-8"), m.name
    with pytest.raises(ValueError, match="found 0 times"):
        mutate.mutated_text(mutate.MUTANTS[0]._replace(fragment="no such fragment"))


def test_a_mutant_is_killed_by_one_fast_test_and_its_no_op_survives():
    mutate = _script_module("mutate")
    mutant = mutate.MUTANTS[0]
    assert mutant.tests == ("tests/test_autograd.py::TestTape::test_first_gradient_is_copied_not_aliased",)
    assert mutate.run(mutant) == "killed"
    assert mutate.run(mutant._replace(replacement=mutant.fragment)) == "survived"


def test_a_kill_whose_tests_fail_unmutated_is_an_error(monkeypatch):
    mutate = _script_module("mutate")
    mutant = mutate.MUTANTS[0]
    monkeypatch.setattr(mutate, "run", lambda m: "killed")
    assert mutate.checked_run(mutant) == "error: its tests do not pass unmutated (killed)"
    monkeypatch.setattr(mutate, "run", lambda m: "survived" if m.replacement == m.fragment else "killed")
    assert mutate.checked_run(mutant) == "killed"


def test_reach_finds_every_statement_run_or_explained(tmp_path):
    done = _run_script("reach.py", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].endswith(" 0 unexplained, 0 allowlist errors"), done.stdout


TRACED = """def f(x):
    \"\"\"Doc.\"\"\"
    global Y
    if x:
        y = 1
        raise ValueError(y)
    return 2


def g():
    return 3
"""


def test_reach_traces_a_thread_and_counts_statements_not_lines(tmp_path):
    reach, path = _script_module("reach"), tmp_path / "m.py"
    path.write_text(TRACED, encoding="utf-8")
    code = compile(TRACED, str(path), "exec")
    space = {}
    with reach.Tracer([path]) as tracer:
        exec(code, space)
        space["f"](0)
        worker = threading.Thread(target=space["g"])
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive() and tracer.hits[str(path)] == {1, 4, 7, 10, 11}
    found = reach.statements(path, tracer.hits[str(path)])
    # no docstring, global or raise statement; a compound statement is its header alone
    assert [(s.scope, s.lines.start, s.compound, s.ran) for s in found] == [
        ("m", 1, True, True), ("m.f", 4, True, True), ("m.f", 5, False, False), ("m.f", 7, False, True),
        ("m", 10, True, True), ("m.g", 11, False, True)]


def test_reach_allowlist_entries_cannot_go_stale(tmp_path):
    reach, path = _script_module("reach"), tmp_path / "m.py"
    path.write_text(TRACED, encoding="utf-8")
    found = reach.statements(path, {1, 4, 7, 10})  # g was never called
    where = os.path.relpath(path, reach.ROOT)
    assert reach.check(found, ()) == ([f"{where}:5 m.f: y = 1", f"{where}:11 m.g: return 3"], [])
    assert reach.check(found, (reach.Allowed("m.f", "if x:", "r"), reach.Allowed("m.g", None, "r"))) == ([], [])
    stale = (reach.Allowed("m.h", None, "r"), reach.Allowed("m.f", "y = 2", "r"), reach.Allowed("m.f", "return 2", "r"),
             reach.Allowed("m.f", None, "r"), reach.Allowed("m.g", None, "r"))
    assert reach.check(found, stale) == ([], [
        "allowlist entry m.h names no statement",
        "allowlist entry m.f [y = 2] names no statement",
        "allowlist entry m.f [return 2] explains no statement the run missed",
        f"allowlist entry m.f [return 2] explains a statement the run executed: {where}:7 m.f: return 2",
        f"allowlist entry m.f explains a statement the run executed: {where}:7 m.f: return 2",
    ])
