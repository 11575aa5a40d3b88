"""The demos run end to end: each one from a copy, so its outputs land beside the copy."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Each demo and the files it writes under output/.
DEMOS = {
    "01_single_sequence_tests.py": [],
    "02_suite_protocol.py": ["suite_report.json", "suite_results.csv"],
    "03_entropy_and_stability.py": ["deviation_qubit-00.csv", "entropy_qubit-00.csv"],
    "04_noisy_device_experiment.py": [],
}


def test_every_demo_is_listed():
    assert sorted(path.name for path in (ROOT / "demos").glob("0*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs_and_writes_its_outputs(tmp_path, name):
    script = tmp_path / "demos" / name
    script.parent.mkdir()
    shutil.copy(ROOT / "demos" / name, script)
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    output = script.parent / "output"
    assert sorted(os.listdir(output) if output.exists() else []) == DEMOS[name]
