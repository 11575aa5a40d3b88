"""End-to-end command-line behavior: exit codes, files, reproducibility."""

import csv
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import randsuite as rs
from randsuite.cli import main

DESK_PLAN = Path(__file__).resolve().parents[1] / "plans" / "desk_biased_5q.json"


def write_single_sequence_manifest(tmp_path, name, sequence):
    d = tmp_path / name
    d.mkdir()
    (d / "sample.txt").write_text(sequence)
    manifest = rs.Manifest(
        declared_length=len(sequence), source_id=name,
        entries=(rs.ManifestEntry("sample.txt", "ascii01", 0),), base_dir=d)
    path = d / "manifest.json"
    rs.save_manifest(manifest, path)
    return path


def read_results(out_dir):
    with open(out_dir / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


GOLDENS = [
    # sequence, test flags, expected p-value
    ("1001100010", ["--tests", "frequency"], 0.527089),
    ("1001100010", ["--tests", "block_frequency", "--block-size", "3"], 0.801252),
    ("1010110001", ["--tests", "runs"], 0.21),
    ("1011010010", ["--tests", "approx_entropy", "--apen-m", "3"], 0.622069),
    ("1011010010", ["--tests", "cusum_forward"], 0.941740),
    ("1011010010", ["--tests", "cusum_backward"], 0.941740),
]


class TestCmdTest:
    @pytest.mark.parametrize("sequence,flags,expected", GOLDENS)
    def test_worked_example_pvalues(self, tmp_path, sequence, flags, expected):
        manifest = write_single_sequence_manifest(tmp_path, "fixture", sequence)
        out = tmp_path / "out"
        code = main(["test", "--manifest", str(manifest), "--out", str(out),
                     "--no-min-length-enforcement", *flags])
        assert code == 0  # single passing sample, band contains 1.0
        rows = read_results(out)
        assert len(rows) == 1
        assert float(rows[0]["p_value"]) == pytest.approx(expected, abs=0.005)

    def test_report_files_and_exit_zero(self, tmp_path):
        plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=60,
                                shots_per_sample=1024, master_seed=21)
        manifest = rs.write_experiment(plan, tmp_path / "data")[0]
        out = tmp_path / "out"
        code = main(["test", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overall_pass"] is True
        assert report["sample_count"] == 60
        assert set(report["tests"]) == {t.value for t in rs.TestId}
        assert len(read_results(out)) == 60 * 8

    def test_statistical_failure_exit_one(self, tmp_path):
        manifest = write_single_sequence_manifest(tmp_path, "allones", "1" * 1024)
        out = tmp_path / "out"
        code = main(["test", "--manifest", str(manifest), "--out", str(out),
                     "--tests", "frequency"])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["overall_pass"] is False

    def test_missing_manifest_exit_two(self, tmp_path):
        code = main(["test", "--manifest", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_empty_manifest_exit_two_no_report(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"declared_length": 8, "source_id": "x",
                                    "entries": []}))
        out = tmp_path / "out"
        code = main(["test", "--manifest", str(path), "--out", str(out)])
        assert code == 2
        assert not (out / "report.json").exists()

    def test_unknown_test_id_exit_two(self, tmp_path):
        manifest = write_single_sequence_manifest(tmp_path, "f", "1" * 128)
        code = main(["test", "--manifest", str(manifest), "--out",
                     str(tmp_path / "out"), "--tests", "frequency,bogus"])
        assert code == 2

    def test_too_short_sample_exit_two(self, tmp_path):
        manifest = write_single_sequence_manifest(tmp_path, "short", "10" * 20)
        code = main(["test", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out"), "--tests", "frequency"])
        assert code == 2

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=60,
                                shots_per_sample=1024, master_seed=25)
        manifest = rs.write_experiment(plan, tmp_path / "data")[0]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["test", "--manifest", str(manifest), "--out", str(out1)]) == 0
        assert main(["test", "--manifest", str(manifest), "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


class TestSimulatePipeline:
    def test_simulate_then_test_then_series(self, tmp_path):
        plan = rs.unbiased_plan(num_qubits=2, samples_per_qubit=60,
                                shots_per_sample=1024, master_seed=21)
        plan_path = tmp_path / "plan.json"
        rs.save_plan(plan, plan_path)
        data = tmp_path / "data"

        assert main(["simulate", "--plan", str(plan_path), "--out", str(data)]) == 0
        manifests = sorted(str(p) for p in data.glob("qubit-*/manifest.json"))
        assert len(manifests) == 2

        out = tmp_path / "report"
        assert main(["test", "--manifest", manifests[0], "--out", str(out)]) == 0

        series_dir = tmp_path / "series"
        assert main(["entropy", "--manifest", *manifests, "--out", str(series_dir)]) == 0
        assert (series_dir / "entropy_qubit-00.csv").exists()
        assert (series_dir / "entropy_qubit-01.csv").exists()

        assert main(["stability", "--manifest", *manifests, "--out", str(series_dir),
                     "--stride", "1024"]) == 0
        band = json.loads((series_dir / "band.json").read_text())
        assert set(band["sources"]) == {"qubit-00", "qubit-01"}
        for info in band["sources"].values():
            assert info["n"] == 60 * 1024
            assert info["inside"] is True
        dev = (series_dir / "deviation_qubit-00.csv").read_text().strip().splitlines()
        assert dev[0] == "bit_index,deviation"
        assert len(dev) == 1 + 60  # one point per sample at stride 1024

    def test_seed_override_changes_output(self, tmp_path):
        plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=2,
                                shots_per_sample=64, master_seed=1)
        plan_path = tmp_path / "plan.json"
        rs.save_plan(plan, plan_path)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["simulate", "--plan", str(plan_path), "--out", str(a)]) == 0
        assert main(["simulate", "--plan", str(plan_path), "--out", str(b),
                     "--seed", "2"]) == 0
        assert main(["simulate", "--plan", str(plan_path), "--out", str(c)]) == 0
        sample = "qubit-00/sample_00000.bin"
        assert (a / sample).read_bytes() != (b / sample).read_bytes()
        assert (a / sample).read_bytes() == (c / sample).read_bytes()

    def test_biased_source_fails_stability_band(self, tmp_path):
        plan = rs.biased_demo_plan(num_qubits=1, samples_per_qubit=30,
                                   shots_per_sample=1024, master_seed=3)
        manifest = rs.write_experiment(plan, tmp_path / "data")[0]
        out = tmp_path / "out"
        code = main(["stability", "--manifest", str(manifest), "--out", str(out)])
        assert code == 1
        band = json.loads((out / "band.json").read_text())
        assert band["sources"]["qubit-00"]["inside"] is False

    def test_missing_plan_exit_two(self, tmp_path):
        assert main(["simulate", "--plan", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2


def test_plan_time_without_offset_reads_as_utc_in_process_and_on_the_cli(tmp_path):
    """A plan's naive start_time gives the same entropy CSV in-process and via simulate."""
    doc = rs.sim.plan_to_dict(rs.unbiased_plan(num_qubits=1, samples_per_qubit=3,
                                               shots_per_sample=64))
    doc["start_time"] = "2019-01-01T00:00:00"
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(doc))
    [sample_set] = rs.generate_experiment(rs.load_plan(plan_path))
    rs.write_entropy_csv(rs.entropy_series(sample_set), tmp_path / "in_process.csv")
    assert main(["simulate", "--plan", str(plan_path), "--out", str(tmp_path / "data")]) == 0
    assert main(["entropy", "--manifest", str(tmp_path / "data" / "qubit-00" / "manifest.json"),
                 "--out", str(tmp_path / "cli")]) == 0
    cli_csv = (tmp_path / "cli" / "entropy_qubit-00.csv").read_bytes()
    assert cli_csv == (tmp_path / "in_process.csv").read_bytes()
    assert b",2019-01-01T00:00:00+00:00," in cli_csv


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    """The desk plan simulated once, plus qubit-01's samples declared as source qubit-00."""
    data = tmp_path_factory.mktemp("desk")
    assert main(["simulate", "--plan", str(DESK_PLAN), "--out", str(data)]) == 0
    doc = json.loads((data / "qubit-01" / "manifest.json").read_text())
    doc["source_id"] = "qubit-00"
    (data / "qubit-01" / "as_qubit-00.json").write_text(json.dumps(doc))
    return data


class TestUsageErrors:
    """Bad arguments and plans exit 2 with a message, never a traceback."""

    def _assert_usage_error(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_alpha_out_of_range(self, tmp_path, capsys):
        manifest = write_single_sequence_manifest(tmp_path, "f", "01" * 64)
        code = main(["test", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     "--alpha", "2"])
        self._assert_usage_error(code, capsys)
        assert not (tmp_path / "out").exists()

    def test_empty_test_selection(self, tmp_path, capsys):
        manifest = write_single_sequence_manifest(tmp_path, "f", "01" * 64)
        code = main(["test", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     "--tests", ""])
        self._assert_usage_error(code, capsys)

    @pytest.mark.parametrize("coefficient", ["nan", "inf"])
    def test_band_coefficient_not_finite(self, tmp_path, capsys, coefficient):
        manifest = write_single_sequence_manifest(tmp_path, "f", "01" * 64)
        code = main(["test", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     "--band-coefficient", coefficient])
        self._assert_usage_error(code, capsys)
        assert not (tmp_path / "out").exists()

    def test_negative_sample_index(self, tmp_path, capsys):
        (tmp_path / "f.txt").write_text("01" * 64)
        (tmp_path / "manifest.json").write_text(json.dumps({
            "declared_length": 128, "source_id": "s",
            "entries": [{"path": "f.txt", "encoding": "ascii01", "sample_index": -1}]}))
        code = main(["test", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "out"), "--no-min-length-enforcement"])
        self._assert_usage_error(code, capsys)
        assert not (tmp_path / "out").exists()

    def test_manifest_entry_outside_its_directory(self, tmp_path, capsys):
        (tmp_path / "outside.txt").write_text("01" * 64)
        d = tmp_path / "source"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({
            "declared_length": 128, "source_id": "s",
            "entries": [{"path": "../outside.txt", "encoding": "ascii01",
                         "sample_index": 0}]}))
        code = main(["test", "--manifest", str(d / "manifest.json"),
                     "--out", str(tmp_path / "out"), "--no-min-length-enforcement"])
        self._assert_usage_error(code, capsys)
        assert not (tmp_path / "out").exists()

    def test_simulate_qubit_id_out_of_range(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        rs.save_plan(rs.unbiased_plan(num_qubits=1, samples_per_qubit=2,
                                      shots_per_sample=64), plan_path)
        doc = json.loads(plan_path.read_text())
        doc["qubits"][0]["qubit_id"] = -1
        plan_path.write_text(json.dumps(doc))
        code = main(["simulate", "--plan", str(plan_path), "--out", str(tmp_path / "out")])
        self._assert_usage_error(code, capsys)

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_non_integer_sample_index(self, tmp_path, capsys, value):
        (tmp_path / "f.txt").write_text("01" * 64)
        (tmp_path / "manifest.json").write_text(json.dumps({
            "declared_length": 128, "source_id": "s",
            "entries": [{"path": "f.txt", "encoding": "ascii01", "sample_index": value}]}))
        code = main(["test", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "out"), "--no-min-length-enforcement"])
        self._assert_usage_error(code, capsys)
        assert not (tmp_path / "out").exists()

    # Plan integers that are not JSON integers, plan numbers that are not JSON
    # numbers, and integers too large for a float.
    @pytest.mark.parametrize("key,value", [("samples_per_qubit", 2.5),
                                           ("master_seed", "7"), ("qubit_id", True),
                                           ("p1_state", "0.5"), ("eps01", True),
                                           ("eps10", "0"), ("p1_override", True),
                                           ("sample_interval_s", "746"),
                                           pytest.param("p1_state", 10 ** 400,
                                                        id="p1_state-10**400"),
                                           pytest.param("sample_interval_s", 10 ** 400,
                                                        id="sample_interval_s-10**400")])
    def test_non_integer_plan_value(self, tmp_path, capsys, key, value):
        plan_path = tmp_path / "plan.json"
        rs.save_plan(rs.biased_demo_plan(num_qubits=1, samples_per_qubit=2,
                                         shots_per_sample=64, anomaly_qubit=0), plan_path)
        doc = json.loads(plan_path.read_text())
        qubit = doc["qubits"][0]
        next(d for d in (doc, qubit, qubit["epochs"][0], qubit["anomaly"]) if key in d)[key] = value
        plan_path.write_text(json.dumps(doc))
        code = main(["simulate", "--plan", str(plan_path), "--out", str(tmp_path / "out")])
        self._assert_usage_error(code, capsys)
        assert not (tmp_path / "out").exists()

    # 1e12 s is a valid timedelta, but three samples end past the year 9999.
    @pytest.mark.parametrize("key,value", [("start_time", 5),
                                           ("sample_interval_s", float("nan")),
                                           ("sample_interval_s", -1.0),
                                           ("sample_interval_s", 1e300),
                                           ("sample_interval_s", 1e12)])
    def test_bad_plan_time(self, tmp_path, capsys, key, value):
        plan_path = tmp_path / "plan.json"
        rs.save_plan(rs.unbiased_plan(num_qubits=1, samples_per_qubit=3,
                                      shots_per_sample=64), plan_path)
        doc = json.loads(plan_path.read_text())
        doc[key] = value
        plan_path.write_text(json.dumps(doc))
        code = main(["simulate", "--plan", str(plan_path), "--out", str(tmp_path / "out")])
        self._assert_usage_error(code, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option,value", [("--alpha", "5"), ("--stride", "0")])
    def test_stability_rejects_before_writing(self, tmp_path, capsys, option, value):
        manifest = write_single_sequence_manifest(tmp_path, "f", "01" * 64)
        code = main(["stability", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     option, value])
        self._assert_usage_error(code, capsys)
        assert not (tmp_path / "out").exists()

    # source_id names the output files, so it must be a string without "/".
    @pytest.mark.parametrize("source_id", ["x/../../escaped", None, 5, ["a"], True])
    @pytest.mark.parametrize("command", ["entropy", "stability"])
    def test_source_id_cannot_leave_the_output_directory(self, tmp_path, capsys, command,
                                                         source_id):
        d = tmp_path / "a" / "b"
        d.mkdir(parents=True)
        (d / "f.txt").write_text("01" * 64)
        (d / "manifest.json").write_text(json.dumps({
            "declared_length": 128, "source_id": source_id,
            "entries": [{"path": "f.txt", "encoding": "ascii01", "sample_index": 0}]}))
        code = main([command, "--manifest", str(d / "manifest.json"), "--out", str(d / "out")])
        self._assert_usage_error(code, capsys)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "f.txt",
                                                               "manifest.json"]

    # Every manifest is read, and the source ids compared, before the first write.
    @pytest.mark.parametrize("later", ["not_json", "repeated_source_id"])
    @pytest.mark.parametrize("command", ["entropy", "stability"])
    def test_bad_later_manifest_writes_nothing(self, tmp_path, capsys, desk_data, command,
                                               later):
        second = desk_data / "qubit-01" / "as_qubit-00.json"
        if later == "not_json":
            second = tmp_path / "bad.json"
            second.write_text("{")
        out = tmp_path / "out"
        code = main([command, "--manifest", str(desk_data / "qubit-00" / "manifest.json"),
                     str(second), "--out", str(out)])
        self._assert_usage_error(code, capsys)
        assert not out.exists()

    # The options are checked before any input is read.
    @pytest.mark.parametrize("command,option,value,message", [
        ("test", "--alpha", "2", "alpha must be in (0, 1)"),
        ("stability", "--alpha", "2", "alpha must be in (0, 1)"),
        ("stability", "--stride", "0", "stride must be >= 1")])
    def test_options_checked_before_a_broken_manifest(self, tmp_path, capsys, command,
                                                      option, value, message):
        manifest = write_single_sequence_manifest(tmp_path, "f", "01" * 64)
        (manifest.parent / "sample.txt").unlink()
        code = main([command, "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     option, value])
        assert message in capsys.readouterr().err
        assert code == 2
        assert not (tmp_path / "out").exists()

    # A sample file that does not decode is named, and keeps its error type.
    @pytest.mark.parametrize("content,error,message", [
        (b"zz", rs.InvalidCharacter, "unexpected character 'z' in hex input"),
        (b"", rs.EmptyInput, "no bits decoded from hex input")])
    def test_bad_sample_file_is_named(self, tmp_path, capsys, content, error, message):
        (tmp_path / "good.hex").write_text("ab")
        (tmp_path / "bad.hex").write_bytes(content)
        (tmp_path / "manifest.json").write_text(json.dumps({
            "declared_length": 8, "source_id": "s", "entries": [
                {"path": "good.hex", "encoding": "hex", "sample_index": 0},
                {"path": "bad.hex", "encoding": "hex", "sample_index": 1}]}))
        code = main(["test", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "out"), "--no-min-length-enforcement"])
        assert capsys.readouterr().err == f"error: {tmp_path / 'bad.hex'}: {message}\n"
        assert code == 2
        assert not (tmp_path / "out").exists()
        with pytest.raises(error):
            rs.load_sample_set(rs.load_manifest(tmp_path / "manifest.json"))

    # A UTF-8 character in an ascii01 file is named by its first byte and
    # that byte's offset, not as the Latin-1 character of the byte.
    @pytest.mark.parametrize("command", ["entropy", "test"])
    def test_non_ascii_sample_file_is_named_by_byte(self, tmp_path, capsys, command):
        (tmp_path / "s0.txt").write_text("01\u00e9", encoding="utf-8")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "declared_length": 3, "source_id": "s", "entries": [
                {"path": "s0.txt", "encoding": "ascii01", "sample_index": 0}]}))
        code = main([command, "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "out")])
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 's0.txt'}: unexpected byte 0xc3 at offset 2 in ascii01 input\n")
        assert code == 2
        assert not (tmp_path / "out").exists()

    # A declared length beyond 63 bits is rejected with the manifest; a
    # shorter one that no file matches fails on the first file, before the
    # samples' matrix of the declared size is allocated.
    @pytest.mark.parametrize("declared,with_file,message", [
        (10 ** 20, True, f"declared_length must be a 63-bit value, got {10 ** 20}"),
        (4 * 10 ** 12, True, "a.hex: decoded 8 bits but 4000000000000 were declared"),
        (10 ** 20, False, f"declared_length must be a 63-bit value, got {10 ** 20}")])
    def test_huge_declared_length(self, tmp_path, capsys, declared, with_file, message):
        (tmp_path / "a.hex").write_text("ab")
        entries = [{"path": "a.hex", "encoding": "hex", "sample_index": 0}] * with_file
        (tmp_path / "manifest.json").write_text(json.dumps({
            "declared_length": declared, "source_id": "s", "entries": entries}))
        code = main(["entropy", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"{message}\n")
        assert not (tmp_path / "out").exists()

    # A plan whose samples numpy could not hold as one matrix per qubit is
    # rejected when it is read, before any sample is generated.
    @pytest.mark.parametrize("shots", [2 ** 70, 2 ** 63])
    def test_huge_plan_shape(self, tmp_path, capsys, shots):
        doc = json.loads(DESK_PLAN.read_text())
        doc["shots_per_sample"] = shots
        (tmp_path / "plan.json").write_text(json.dumps(doc))
        code = main(["simulate", "--plan", str(tmp_path / "plan.json"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        packed = doc["samples_per_qubit"] * -(-shots // 8)
        assert err.endswith("samples_per_qubit * ceil(shots_per_sample / 8) must be a "
                            f"63-bit value, got {packed}\n")
        assert not (tmp_path / "out").exists()

    # The seed is checked before the plan is read, with with_seed's message.
    def test_seed_checked_before_a_missing_plan(self, tmp_path, capsys):
        code = main(["simulate", "--plan", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert "master_seed must be >= 0" in capsys.readouterr().err
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_entropy_takes_no_alpha(self, tmp_path, capsys):
        manifest = write_single_sequence_manifest(tmp_path, "f", "01" * 64)
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                  "--alpha", "5"])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_outputs_get_normal_file_mode(tmp_path):
    old_umask = os.umask(0o022)
    try:
        plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=4,
                                shots_per_sample=1024, master_seed=3)
        manifest = rs.write_experiment(plan, tmp_path / "data")[0]
        out = tmp_path / "out"
        main(["test", "--manifest", str(manifest), "--out", str(out)])
        main(["entropy", "--manifest", str(manifest), "--out", str(out)])
        main(["stability", "--manifest", str(manifest), "--out", str(out)])
    finally:
        os.umask(old_umask)
    sample_mode = stat.S_IMODE((manifest.parent / "sample_00000.bin").stat().st_mode)
    assert sample_mode == 0o644
    for name in ("report.json", "results.csv", "entropy_qubit-00.csv",
                 "deviation_qubit-00.csv", "band.json"):
        assert stat.S_IMODE((out / name).stat().st_mode) == sample_mode, name


def _sha256(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


# Per sample length, recorded from the code before the commands shared one
# manifest-reading function (1001 bits) and before a sample set became one
# packed matrix (1024 bits).
OUTPUT_PINS = {1001: {
    "data/qubit-00/manifest.json":
        "88d0c8910e66a921c17a580be116cb1b3d0c6234ee7a4afd108e143cf2e323d4",
    "data/qubit-00/sample_*": "93dfaf6cfcad74c753cf4dd400602d9185be75dc835d5f2e449dfc0714bc7e1f",
    "data/qubit-01/manifest.json":
        "39a65caa6d1706d762b766f0b343868e757f2eaf3458357d4b9fdad86369414d",
    "data/qubit-01/sample_*": "9398d7cc77abe2ad7e2a464d07d77702ed92e41d73c404be83a59ee4da01646b",
    "out/band.json": "40a77f6951ea0286ef7c3561020019f8487b4f8944ebadda4e40309692f521ce",
    "out/deviation_qubit-00.csv":
        "845430b81742f7118f7594f1a356e8343364e5c860d0cd9cbfcce8bb28005443",
    "out/deviation_qubit-01.csv":
        "cae0307857b4e209e65c0156b247e1e9044bc71a301c183e3d119243bb37f883",
    "out/entropy_qubit-00.csv": "3992d7ae166d5024dbd884b642d60c15b7c7296e23db49de7384fad014001122",
    "out/entropy_qubit-01.csv": "e5fd40bedf1e5d995c5ff82b6aa35fe342cea8809d2ee71ac060f3c40805476f",
    "out/qubit-00/report.json": "2ba8491819197a823cf385e8e5cba5b425becdfc7dacd2baf1fafc3889e7fa72",
    "out/qubit-00/results.csv": "dd64eb331349df9fbb77ed80d619af6d74be93d3ac88ba020dd5b7ad0ae9a5cc",
    "out/qubit-01/report.json": "68f1d0cf4605a90dda7bc607ba7aebda93d87679f5da78c0af6416791c218395",
    "out/qubit-01/results.csv": "e968ae0950e5ee10873d4b86a06f5845718c8b415c32702a341ae944ae1a3d93",
    "plan.json": "f4cb8c3f8a264c74576d13dcfa992eadd7585993371da7ce68ffec45e78839d1",
    "stdout": "c7ea84862392f58069a86b6874267d866b9fff03842810bed116cc71e18589b5",
}, 1024: {
    "data/qubit-00/manifest.json":
        "3442e7bd3ee52494a63615473a6e4612299d4cdd5ab5d55b85e5981eec441749",
    "data/qubit-00/sample_*": "a312bccf406f13c606688368c85f8b0fa8711b0b87f82c08222ffd80ebdb0b40",
    "data/qubit-01/manifest.json":
        "8d99e39552cc04290ed48656067c2a668e277c330706b95e6db5985d700b1b1d",
    "data/qubit-01/sample_*": "cf0707c4ab324b1d949e4e05cffcdbcba8fa5108d5fc3c468ea707fc59976dcb",
    "out/band.json": "76591a57aa149f8ceb4ed80acdbf8878f4ea1e9c4950b7cb7236551dcf9f20fd",
    "out/deviation_qubit-00.csv":
        "34aa4c9387f99c9cfa1cf1146f0fadf009d78c210e568fd4844fc1ec64bcd9a1",
    "out/deviation_qubit-01.csv":
        "eb55fcf4f26f3eedff405ce4d9d4a8a718106a30ffa53102c44f1c600a51707f",
    "out/entropy_qubit-00.csv": "5c4b1d50490868533a3b5835c6a60ec8191ba1a62d9ffa8f521eca567caeb693",
    "out/entropy_qubit-01.csv": "ee3126c5db37e742e6b8b47f27c89a5f9e087c9c21c0f8d473b54c1c3a78b9ac",
    "out/qubit-00/report.json": "7ca77379fe9f1098e1a8520041cfa8d7f72354358701fd39339cbf6bf66c2ab7",
    "out/qubit-00/results.csv": "e29e89ff75426de8135adfaf27b0e9949221cae2e382c864410ec839d8330651",
    "out/qubit-01/report.json": "7d1f8e48a618c1a6004c37bb09a5692864cd59e2239bb2b1186b7bd8dc69a42c",
    "out/qubit-01/results.csv": "a56bcf0a1fb69ca94af5082a08ead42d8a871aa6220d2978d17f8b966961976c",
    "plan.json": "f172741c483bad1b92acdd8b9b6344253ad1c2694c7dcbb5639cacd684219f3d",
    "stdout": "271f57d9f521fdbff7f637a865b4f403b4be840369e5e3d4d734a6d63ce34c94",
}}


@pytest.mark.parametrize("shots", sorted(OUTPUT_PINS))
def test_outputs_match_pinned_digests(tmp_path, capsys, shots):
    """simulate, test, entropy and stability write the pinned bytes and print the pinned text.

    1001-bit samples take the padding and unpacking paths of the packed
    encoding and of concat_chronological; 1024-bit samples have no padding
    and are joined by a reshape.  A deliberate change to an output format
    updates these pins and records the change in CHANGES.md.
    """
    plan = rs.biased_demo_plan(num_qubits=2, samples_per_qubit=60, shots_per_sample=shots,
                               anomaly_qubit=1)
    rs.save_plan(plan, tmp_path / "plan.json")
    data, out = tmp_path / "data", tmp_path / "out"
    codes = [main(["simulate", "--plan", str(tmp_path / "plan.json"), "--out", str(data)])]
    manifests = [str(data / f"qubit-0{q}" / "manifest.json") for q in (0, 1)]
    codes += [main(["test", "--manifest", m, "--out", str(out / Path(m).parent.name)])
              for m in manifests]
    codes += [main([command, "--manifest", *manifests, "--out", str(out)])
              for command in ("entropy", "stability")]
    assert codes == [0, 1, 1, 0, 1]
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    digests = {str(p.relative_to(tmp_path)): _sha256([p])
               for p in tmp_path.rglob("*") if p.is_file() and not p.name.startswith("sample_")}
    for q in (0, 1):
        digests[f"data/qubit-0{q}/sample_*"] = _sha256(sorted(data.glob(f"qubit-0{q}/sample_*")))
    digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert digests == OUTPUT_PINS[shots]


# Recorded from the code before the band.json rows moved from the CLI into
# randsuite.entropy.
STABILITY_OPTION_PINS = {
    "band.json": "6fa6985db9f6b901644b6dfe1d2a6be3d62af0253d71d55913e1c83c57635715",
    "deviation_qubit-00.csv": "e07bc658b3386eef9d04ebdd529de87721541acc142f276d023efbff605bb734",
    "deviation_qubit-01.csv": "9721e3f398c880e6e41bbbd8b34fe399ba064115602adb8e090b1dca7050c097",
    "deviation_qubit-02.csv": "d7303188300b88f2249b69c56bd76a23ffccae0743e73d8652ab048bc34b9126",
    "deviation_qubit-03.csv": "a4cd620fe3cae0dd7f3d29ef41dca5c776d6ca5c9641490aab2fca0343aa5d9e",
    "deviation_qubit-04.csv": "66dc35045dd0f03668b7c6cb7b17091786e2d3c3cc689c92c504eebecce43d5f",
    "stdout": "292eb70d1969725de729436122ddd609bb656bb04641ff8c587f2e750f43ee99",
}


def test_stability_options_match_pinned_digests(tmp_path, capsys, desk_data):
    """stability at a non-default --alpha and --stride writes the pinned bytes."""
    manifests = sorted(str(p) for p in desk_data.glob("qubit-*/manifest.json"))
    out = tmp_path / "out"
    code = main(["stability", "--manifest", *manifests, "--out", str(out),
                 "--alpha", "0.05", "--stride", "1000"])
    assert code == 1
    digests = {p.name: _sha256([p]) for p in out.iterdir()}
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert digests == STABILITY_OPTION_PINS


def test_cli_leaves_file_formats_to_the_library():
    """The CLI parses options, calls the library's analyses and writers, and
    prints: it binds no JSON writer and no band formula of its own."""
    assert {"json", "write_json", "atomic_write",
            "proportion_band_for_length"}.isdisjoint(vars(sys.modules["randsuite.cli"]))


def test_benchmark_wrapped_names_are_called(tmp_path, monkeypatch):
    """The calls a tracer wraps by module global are made through those globals.

    ``write_experiment`` generates through ``randsuite.sim.generate_experiment``,
    ``load_sample_set`` decodes each file through ``randsuite.bitseq.parse_bits``
    and ``randsuite test`` loads through ``randsuite.cli.load_sample_set``.
    """
    calls = {"generate_experiment": 0, "parse_bits": 0, "load_sample_set": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(rs.sim, "generate_experiment")
    counting(rs.bitseq, "parse_bits")
    counting(sys.modules["randsuite.cli"], "load_sample_set")
    plan = rs.unbiased_plan(num_qubits=2, samples_per_qubit=5, shots_per_sample=128)
    [manifest, _] = rs.write_experiment(plan, tmp_path / "data")
    assert calls == {"generate_experiment": 1, "parse_bits": 0, "load_sample_set": 0}
    rs.load_sample_set(rs.load_manifest(manifest))
    assert calls["parse_bits"] == 5
    assert main(["test", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                 "--tests", "frequency", "--no-min-length-enforcement"]) in (0, 1)
    assert calls == {"generate_experiment": 1, "parse_bits": 10, "load_sample_set": 1}


# Runs CLI commands in one fresh interpreter and prints, as its last line,
# which of SciPy and the modules of its array-API layer were loaded after
# "import randsuite", after "import randsuite.cli" and after each command.
_SCIPY_PROBE = """
import json, sys
import randsuite
WATCHED = ("scipy", "scipy._lib._array_api", "numpy.testing", "numpy.f2py")
def loaded():
    return [name for name in WATCHED if name in sys.modules]
stages = [loaded()]
import randsuite.cli
stages.append(loaded())
for argv in json.loads(sys.argv[1]):
    assert randsuite.cli.main(argv) in (0, 1), argv
    stages.append(loaded())
print(json.dumps(stages))
"""


class TestScipyLoading:
    """SciPy is imported by the first p-value, not by the package import, and
    without its array-API layer (about 0.3 s of a fresh process)."""

    @staticmethod
    def probe(*commands):
        env = dict(os.environ)
        src = str(Path(rs.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
                              env=env, capture_output=True, text=True, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def test_which_commands_load_scipy(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        manifests = [str(data / f"qubit-{q:02d}" / "manifest.json") for q in (0, 3)]
        assert self.probe(
            ["simulate", "--plan", str(DESK_PLAN), "--out", str(data)],
            ["entropy", "--manifest", *manifests, "--out", str(out)],
        ) == [[], [], [], []]
        assert self.probe(
            ["test", "--manifest", manifests[0], "--out", str(out)],
        ) == [[], [], ["scipy"]]
        assert self.probe(
            ["stability", "--manifest", *manifests, "--out", str(out)],
        ) == [[], [], ["scipy"]]
