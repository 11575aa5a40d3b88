"""Child-process side of the benchmark: input set-up and the measured loop.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D [--spans F]
    python3 perfbench/worker.py measure --workload W --dir D --seconds S
                                        --trace 0|1 --result F

``run.py`` starts both with the environment it pins (PYTHONPATH at a copy
of src/randsuite without bytecode caches, one BLAS/OpenMP thread, no
bytecode writes).  ``setup`` is timed from outside
as one whole process, so ``setup_s`` covers interpreter start, ``import
randsuite`` and input generation.  ``measure`` runs one discarded warm-up
operation, then operations back to back, stopping before one that would end
after ``--seconds``.  It checks every output outside the timed region and
writes a JSON result.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Rollup, Tracer, read_spans, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXPERIMENT_PLAN = "plans/biased_20q_anomalous.json"
TRIAGE_PLAN = "plans/desk_biased_5q.json"
# 55 is the fewest samples for which run_suite runs the uniformity step.
HEX_SAMPLES = 55
HEX_SHOTS = 2 ** 20
NUM_TESTS = 8
CLI_TIMEOUT_S = 60


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_results_csv(path, expected_rows, problems):
    """Every (test, sample) row is present and its p-value lies in [0, 1]."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    bad = [r for r in rows if not 0.0 <= float(r["p_value"]) <= 1.0]
    if bad:
        problems.append(f"{path}: {len(bad)} p-values outside [0, 1]")
    return rows


def check_single_sequence(rs, sample_set, rows, problems):
    """A fixed subset of samples re-run through ``run_test`` matches the batch."""
    samples = list(sample_set)
    picked = sorted({0, len(samples) // 2, len(samples) - 1})
    by_key = {(r["test_id"], int(r["sample_index"])): r for r in rows}
    for test_id in rs.ALL_TESTS:
        for pos in picked:
            seq = samples[pos]
            single = rs.run_test(test_id, seq, rs.TestParams())
            row = by_key.get((test_id.value, seq.sample_index))
            if row is None or (row["statistic"], row["p_value"]) != (
                    repr(single.statistic), repr(single.p_value)):
                problems.append(f"{test_id.value} sample {seq.sample_index}: batch "
                                f"{row and (row['statistic'], row['p_value'])} != "
                                f"single {(single.statistic, single.p_value)}")


class Digests:
    """Same-seed operations must write byte-identical reports."""

    def __init__(self):
        self._seen = {}

    def check(self, key, path, problems):
        digest = _sha256(path)
        if self._seen.setdefault((key, Path(path).name), digest) != digest:
            problems.append(f"{path} differs from an earlier operation on {key}")


def _missing(out, names):
    return [name for name in names if not (out / name).is_file()]


class InProcess:
    """Output checks shared by the workloads that call randsuite in-process."""

    in_process = True

    def __init__(self, rs):
        self.rs = rs
        self.digests = Digests()
        self.rerun = set()

    def outputs(self, sample_set):
        return ["report.json", "results.csv"]

    def check(self, out, sample_set):
        missing = _missing(out, self.outputs(sample_set))
        if missing:
            return 1, [f"{out}: missing {missing}"], []
        problems = []
        source = sample_set.source_id
        rows = check_results_csv(out / "results.csv", NUM_TESTS * len(sample_set), problems)
        # The first operation on a source is re-run through run_test; the
        # digests tie every later operation on it to that one.
        if source not in self.rerun:
            self.rerun.add(source)
            check_single_sequence(self.rs, sample_set, rows, problems)
        for name in ("report.json", "results.csv"):
            self.digests.check(source, out / name, problems)
        return 1, [], problems


class Experiment(InProcess):
    """experiment_20q: the whole plan per operation, source by source.

    Each source goes from plan to written reports in memory.  One source
    alone takes about 0.3 s, so a run of one-source operations sampled the
    host's slow episodes (tens of seconds each) unevenly and its median
    moved by up to a quarter between runs; a whole experiment spans them.
    """

    def __init__(self, rs, work):
        super().__init__(rs)
        self.plan = rs.load_plan(work / "plan.json")
        self.samples_per_op = len(self.plan.qubit_models) * self.plan.samples_per_qubit
        self.bits_per_op = self.samples_per_op * self.plan.shots_per_sample

    def run(self, out, traced):
        rs = self.rs
        sample_sets = []
        for model in self.plan.qubit_models:
            [sample_set] = rs.generate_experiment(
                dataclasses.replace(self.plan, qubit_models=(model,)))
            report = rs.run_suite(sample_set)
            series = rs.entropy_series(sample_set)
            deviation = rs.deviation_series(rs.concat_chronological(sample_set))
            source = sample_set.source_id
            dest = out / source
            dest.mkdir(parents=True)
            rs.write_report_json(report, dest / "report.json")
            rs.write_results_csv(report, dest / "results.csv")
            rs.write_entropy_csv(series, dest / f"entropy_{source}.csv")
            rs.write_deviation_csv(deviation, dest / f"deviation_{source}.csv")
            sample_sets.append(sample_set)
        return sample_sets

    def outputs(self, sample_set):
        source = sample_set.source_id
        return super().outputs(sample_set) + [f"entropy_{source}.csv",
                                              f"deviation_{source}.csv"]

    def check(self, out, sample_sets):
        """One completed operation per source."""
        attempted, failures, problems = 0, [], []
        for sample_set in sample_sets:
            tried, failed, wrong = super().check(out / sample_set.source_id, sample_set)
            attempted += tried
            failures.extend(failed)
            problems.extend(wrong)
        return attempted, failures, problems


class LongHex(InProcess):
    """long_hex: one 1-Mbit source read from hex files, per operation."""

    def __init__(self, rs, work):
        super().__init__(rs)
        inputs = json.loads((work / "inputs.json").read_text())
        self.manifest = work / inputs["manifests"][0]
        self.samples_per_op = inputs["samples_per_source"]
        self.bits_per_op = self.samples_per_op * inputs["shots_per_sample"]

    def run(self, out, traced):
        rs = self.rs
        sample_set = rs.load_sample_set(rs.load_manifest(self.manifest))
        report = rs.run_suite(sample_set)
        out.mkdir(parents=True)
        rs.write_report_json(report, out / "report.json")
        rs.write_results_csv(report, out / "results.csv")
        return sample_set


class Triage:
    """triage_cli: simulate, test per manifest, entropy and stability.

    Every step is its own CLI process, as a user would run it.  Exit 0 or 1
    completes an operation (1 is a statistical verdict); exit 2, a traceback
    or a missing output counts as a failed operation.
    """

    in_process = False

    def __init__(self, rs, work):
        inputs = json.loads((work / "inputs.json").read_text())
        self.seed = inputs["seed"]
        self.sources = inputs["sources"]
        self.samples_per_source = inputs["samples_per_source"]
        self.samples_per_op = self.samples_per_source * len(self.sources)
        self.bits_per_op = self.samples_per_op * inputs["shots_per_sample"]
        self.digests = Digests()

    def _steps(self, out):
        manifests = [str(out / "sim" / s / "manifest.json") for s in self.sources]
        steps = [(["simulate", "--plan", TRIAGE_PLAN, "--out", str(out / "sim"),
                   "--seed", str(self.seed)],
                  [f"sim/{s}/manifest.json" for s in self.sources])]
        for source, manifest in zip(self.sources, manifests):
            steps.append((["test", "--manifest", manifest, "--out", str(out / source)],
                          [f"{source}/report.json", f"{source}/results.csv"]))
        steps.append((["entropy", "--manifest", *manifests, "--out", str(out / "series")],
                      [f"series/entropy_{s}.csv" for s in self.sources]))
        steps.append((["stability", "--manifest", *manifests, "--out", str(out / "series")],
                      [f"series/deviation_{s}.csv" for s in self.sources]
                      + ["series/band.json"]))
        return steps

    def run(self, out, traced):
        out.mkdir(parents=True)
        done = []
        for number, (argv, outputs) in enumerate(self._steps(out)):
            if traced:
                cmd = [sys.executable, str(HERE / "cli_launcher.py"),
                       str(out / f"spans-{number}.jsonl"), *argv]
            else:
                cmd = [sys.executable, "-m", "randsuite.cli", *argv]
            start = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
                code, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, stderr = None, f"timed out after {CLI_TIMEOUT_S} s"
            done.append((argv, outputs, code, stderr, perf_counter() - start))
        return done

    def check(self, out, done):
        failures, problems = [], []
        for argv, outputs, code, stderr, _ in done:
            missing = _missing(out, outputs)
            if code not in (0, 1) or "Traceback" in stderr or missing:
                failures.append(f"{argv[0]}: exit {code}, missing {missing}, "
                                f"stderr {stderr.strip()[-300:]!r}")
        for source in self.sources:
            if (out / source / "results.csv").is_file():
                check_results_csv(out / source / "results.csv",
                                  NUM_TESTS * self.samples_per_source, problems)
                for name in ("report.json", "results.csv"):
                    self.digests.check(source, out / source / name, problems)
        return len(done), failures, problems

    def fold_trace(self, out, done, rollup):
        rollup.invocation_walls.extend(wall for *_, wall in done)
        for spans in sorted(out.glob("spans-*.jsonl")):
            rollup.add(read_spans(spans))


WORKLOADS = {"experiment_20q": Experiment, "triage_cli": Triage, "long_hex": LongHex}


def setup(args):
    """Write the workload's inputs, derived from the seed alone, into --dir."""
    import randsuite as rs

    work = Path(args.dir)
    work.mkdir(parents=True)
    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
    try:
        if args.workload == "experiment_20q":
            plan = rs.with_seed(rs.load_plan(ROOT / EXPERIMENT_PLAN), args.seed)
            rs.save_plan(plan, work / "plan.json")
            manifests = []
        elif args.workload == "triage_cli":
            # simulate gets the repository plan and --seed; the seeded plan
            # is loaded here only to check the seed and name the sources.
            plan = rs.with_seed(rs.load_plan(ROOT / TRIAGE_PLAN), args.seed)
            manifests = []
        else:
            plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=HEX_SAMPLES,
                                    shots_per_sample=HEX_SHOTS, master_seed=args.seed)
            manifests = rs.write_experiment(plan, work / "samples", encoding="hex")
    finally:
        if tracer:
            tracer.uninstall()
            write_spans(tracer.take(), args.spans)
    inputs = {
        "seed": args.seed,
        "sources": [m.source_id for m in plan.qubit_models],
        "samples_per_source": plan.samples_per_qubit,
        "shots_per_sample": plan.shots_per_sample,
        "manifests": [str(Path(p).relative_to(work)) for p in manifests],
    }
    (work / "inputs.json").write_text(json.dumps(inputs, indent=2) + "\n")


def computed_bytes(workload):
    """Working-set sizes derived from the workload's shapes, not measured."""
    n = workload.bits_per_op // workload.samples_per_op
    sizes = {
        "note": "computed from the shapes, not measured",
        "packed_input_per_sample": n // 8,
        "packed_input_per_operation": workload.bits_per_op // 8,
        "unpacked_uint8_bits_per_sample": n,
        "dft_float64_input_per_sample": 8 * n,
        "dft_rfft_complex128_spectrum_per_sample": 16 * (n // 2 + 1),
    }
    if isinstance(workload, LongHex):
        sizes["hex_text_per_sample"] = n // 4
    return sizes


def _peak_rss_kb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def measure(args):
    work = Path(args.dir)
    cls = WORKLOADS[args.workload]
    rs = None
    if cls.in_process:
        import randsuite as rs
    workload = cls(rs, work)
    tracer = Tracer() if args.trace and cls.in_process else None
    rollup = Rollup()
    if args.trace and args.setup_spans and Path(args.setup_spans).is_file():
        rollup.add(read_spans(args.setup_spans))

    walls, walls_traced = [], []
    attempted, failures, problems = 0, [], []

    def operation(name, traced):
        nonlocal attempted
        out = work / "ops" / name
        if tracer and traced:
            tracer.install()
        start = perf_counter()
        try:
            state, error = workload.run(out, traced), None
        except Exception as exc:  # a failed operation is counted, the run goes on
            state, error = None, f"{name}: {type(exc).__name__}: {exc}"
        finally:
            wall = perf_counter() - start
            if tracer and traced:
                tracer.uninstall()
        if error:
            attempted += 1
            failures.append(error)
        else:
            tried, failed, wrong = workload.check(out, state)
            attempted += tried
            failures.extend(failed)
            problems.extend(wrong)
        if traced:
            rollup.add_op(workload.samples_per_op)
            if tracer:
                spans = tracer.take()
                rollup.add(spans)
                write_spans(spans, work / "spans.jsonl")
            elif state is not None:
                workload.fold_trace(out, state, rollup)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    operation("warm-up", False)
    # A unit is one operation or, in a traced run, a pair of an untraced and
    # a traced operation on the same input.  The loop stops before a unit
    # that would end after --seconds.
    unit = 2 if args.trace else 1
    start = perf_counter()
    index = 0
    while True:
        unit_start = perf_counter()
        for _ in range(unit):
            traced = bool(args.trace) and index % 2 == 1
            wall = operation(f"{index:05d}", traced)
            (walls_traced if traced else walls).append(wall)
            index += 1
        now = perf_counter()
        if now - start + (now - unit_start) > args.seconds:
            break

    peak_rss_kb = _peak_rss_kb()
    import numpy
    import scipy
    result = {
        "walls": walls,
        "walls_traced": walls_traced,
        "bits_per_op": workload.bits_per_op,
        "samples_per_op": workload.samples_per_op,
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "peak_rss_kb": peak_rss_kb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "computed_bytes": computed_bytes(workload),
        "per_layer": rollup.metrics(walls_traced, walls) if args.trace else None,
    }
    Path(args.result).write_text(json.dumps(result) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="step", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--dir", required=True)
    p_setup.add_argument("--spans")
    p_setup.set_defaults(fn=setup)
    p_measure = sub.add_parser("measure")
    p_measure.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p_measure.add_argument("--dir", required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_measure.add_argument("--setup-spans")
    p_measure.add_argument("--result", required=True)
    p_measure.set_defaults(fn=measure)
    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
