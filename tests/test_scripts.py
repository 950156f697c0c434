"""The scripts that drive pretrain and finetune run to a clean exit."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_run_pipeline_completes(tmp_path):
    done = _run_script("run_pipeline.py", "--workdir", "work", "--n", "64",
                       "--pretrain-steps", "2", "--finetune-steps", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "work" / "rhyme.ckpt").exists() and (tmp_path / "work" / "report.json").exists()


def test_step_probe_completes(tmp_path):
    done = _run_script("step_probe.py", "--workload", "pretrain-tiny", "--steps", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("pretrain-tiny seed 3: ")
    lines = done.stdout.splitlines()
    assert lines[1].startswith("  first losses: 0x") and re.fullmatch(r"  parameters sha256: [0-9a-f]{64}", lines[2])


def test_step_probe_classify_prints_the_labels_digest(tmp_path):
    done = _run_script("step_probe.py", "--workload", "classify", "--steps", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("classify seed 3: ") and re.fullmatch(r"  labels sha256: [0-9a-f]{64}", lines[1])
    assert lines[2].startswith("  B=1 predict_logits: ")
    assert re.fullmatch(r"  logits sha256: [0-9a-f]{64}", lines[3])
