"""The "Entry point" steps of the CI workflow, run as they stand.

Each step's `run:` block is read from `.github/workflows/tier1.yml` and run
with `bash -e`, with an `ltg` on PATH that runs `python -m
labeled_thompson.cli` from this checkout and `RUNNER_TEMP` set to a fresh
directory.  So a change to the command line that breaks the workflow's
script fails here too.  What this does not cover: installing the package
(`pip install -e`) and the other Python versions of the workflow's matrix.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STEPS = ("Entry point", "Entry point, homology of M_7 and RP^2")


def run_block(name: str) -> str:
    """The literal `run: |` block of the step called `name`, dedented."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index(f"      - name: {name}") + 1
    if lines[start].strip() != "run: |":
        raise ValueError(f"step {name!r} has no literal run block")
    key_indent = len(lines[start]) - len(lines[start].lstrip())
    block = []
    for line in lines[start + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= key_indent:
            break
        block.append(line)
    indent = min(len(line) - len(line.lstrip()) for line in block if line.strip())
    return "\n".join(line[indent:] for line in block) + "\n"


def test_run_blocks_are_read_whole():
    for name in STEPS:
        script = run_block(name)
        assert script.startswith("ltg ") and script.rstrip().endswith('test "$status" -eq 2')


@pytest.mark.slow
@pytest.mark.parametrize("name", STEPS, ids=["entry-point", "homology"])
def test_entry_point_step(tmp_path, name):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "ltg"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m labeled_thompson.cli "$@"\n')
    shim.chmod(0o755)
    (bin_dir / "python3").symlink_to(sys.executable)
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    src = str(ROOT / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        PYTHONPATH=f"{src}{os.pathsep}{pythonpath}" if pythonpath else src,
        RUNNER_TEMP=str(runner_temp),
    )
    done = subprocess.run(
        ["bash", "-e", "-c", run_block(name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
