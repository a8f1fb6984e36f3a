import subprocess
import sys

import pytest

from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=src_env(), cwd=ROOT
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
