"""The demos run end to end, each one from a copy, so its outputs land beside the copy;
their stdout and files are pinned by digest."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Each demo's SHA-256 digests: of its stdout, with the copy's directory written
# as <dir>, and of each file it writes under output/.  Recorded from the code
# before the package's public names moved into each module's __all__, except
# suite_report.json, re-recorded when the report stopped repeating the
# per-sample lists that suite_results.csv holds; a deliberate change to a
# demo's output updates them and records why in CHANGES.md.
DEMOS = {
    "01_single_sequence_tests.py": {
        "stdout":
            "9fedd0b04fc6558c7a52bf2f8b8a40d628e8b62a46c15b76201c448dec6b00ce",
    },
    "02_suite_protocol.py": {
        "stdout":
            "8019d1f17609af6d35ffb199de45184be317490cbfce5f17a17c4f7ed26c038a",
        "suite_report.json":
            "4652b532b392c38477014edb39d1dbb7258ed3424ea8566fbf8c87534ce617f8",
        "suite_results.csv":
            "9c0805640b2223046f4727b0831a3476c27c61f889ad562d0a8acef8e66d32b6",
    },
    "03_entropy_and_stability.py": {
        "stdout":
            "991d79888bc7f334e6a8450390e170b396b463cab27b543e0be4c69de32e7f91",
        "deviation_qubit-00.csv":
            "ce7eefa1f104f0abeeeb11331bcad8b8748a7996f26180996f7fa307e8a6294f",
        "entropy_qubit-00.csv":
            "2460d895d34a26cd79f6c20fcb44fb33ff4ab4ce7f0aa19748762b6af5c95d2d",
    },
    "04_noisy_device_experiment.py": {
        "stdout":
            "fe6aadad76a7134fdeef6934f7065e07d505b4389c7cee6fbb434a7f00b84dca",
    },
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
    digests = {"stdout": result.stdout.replace(str(tmp_path), "<dir>").encode()}
    digests.update((path.name, path.read_bytes())
                   for path in (output.iterdir() if output.exists() else ()))
    assert {key: hashlib.sha256(data).hexdigest() for key, data in digests.items()} == DEMOS[name]
