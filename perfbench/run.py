"""randsuite benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a randsuite checkout.  It sets the workload's inputs
up several times in fresh child processes (their median is ``setup_s``),
then starts one measuring child that runs a discarded warm-up operation and
then operations back to back for S seconds, checking every output.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics taken
from spans instead.  The lines before it are a readable report, and the
``detail:`` line repeats everything as JSON (run counts, tail percentiles,
environment, computed working-set bytes).

Exit codes: 0 a result was printed; 2 the checkout has no randsuite
sources or a set-up or measuring process failed, and nothing was printed.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

from tracing import unit_of  # noqa: E402  (after the bytecode switch)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("experiment_20q", "triage_cli", "long_hex")
DEFAULT_SEED = 1
# Not used while a change is written; a claimed gain is re-checked on it.
HELD_OUT_SEED = 104729
# Set-ups (before, after the measurement) per untraced run; long_hex writes
# 55 hex files per set-up, the others only import randsuite and a plan.
SETUP_REPEATS = {"experiment_20q": (4, 3), "triage_cli": (4, 3), "long_hex": (2, 1)}
REQUIRED = ("src/randsuite/__init__.py", "plans/biased_20q_anomalous.json",
            "plans/desk_biased_5q.json")
# Every run must end within 180 s; the measuring child gets what is left.
RUN_BUDGET_S = 170
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"wall_s": "s", "mbit_per_s": "Mbit/s", "setup_s": "s", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def child_env(src):
    """Children import randsuite from ``src``, a copy of the checkout's
    src/randsuite without any ``__pycache__``.  With no bytecode written,
    randsuite is compiled from source in every process on both sides of a
    comparison, whatever caches the checkout holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def run_child(argv, timeout, env):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def environment():
    """Machine facts that bear on the figures, read without changing anything."""
    def cache(index):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return path.read_text().strip() if path.is_file() else "unknown"

    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model, "l2_per_core": cache(2), "l3": cache(3),
            "thread_pins": {name: "1" for name in THREAD_PINS}}


def tail(values):
    """Highest whole percentile with at least ten runs above it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def timing_summary(values):
    summary = {"median": statistics.median(values), "runs": len(values)}
    found = tail(values)
    if found:
        summary[f"p{found[0]}"] = found[1]
    return summary


def run(args):
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise RunFailed(f"not a randsuite checkout (missing {', '.join(missing)})")
    started = perf_counter()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    shutil.copytree(ROOT / "src" / "randsuite", work / "src" / "randsuite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = child_env(work / "src")
    worker = [sys.executable, str(HERE / "worker.py")]
    setup_spans = work / "setup-spans.jsonl"
    setup_times = []

    def set_up(k):
        inputs = work / f"inputs-{k}"
        cmd = worker + ["setup", "--workload", args.workload, "--seed", str(args.seed),
                        "--dir", str(inputs)]
        if args.trace:
            cmd += ["--spans", str(setup_spans)]
        start = perf_counter()
        run_child(cmd, RUN_BUDGET_S - (start - started), env)
        setup_times.append(perf_counter() - start)
        return inputs

    # Set-ups before and after the measurement, so that their median spans
    # the whole run rather than one moment of a machine whose speed drifts.
    before, after = (1, 0) if args.trace else SETUP_REPEATS[args.workload]
    try:
        for k in range(before):
            inputs = set_up(k)
            if k + 1 < before:
                shutil.rmtree(inputs)
        result_path = work / "result.json"
        run_child(worker + ["measure", "--workload", args.workload, "--dir", str(inputs),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--setup-spans", str(setup_spans), "--result", str(result_path)],
                  RUN_BUDGET_S - (perf_counter() - started), env)
        result = json.loads(result_path.read_text())
        for k in range(before, before + after):
            shutil.rmtree(set_up(k))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, setup_times


def report(args, result, setup_times):
    walls = result["walls"]
    rates = [result["bits_per_op"] / w / 1e6 for w in walls]
    failed = len(result["failures"])
    attempted = result["attempted"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": timing_summary(walls),
        "mbit_per_s": {"median": statistics.median(rates), "runs": len(rates)},
        "setup_s": timing_summary(setup_times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "error_rate": {"value": failed / attempted if attempted else 1.0,
                       "failed": failed, "attempted": attempted},
        "bits_per_op": result["bits_per_op"],
        "environment": {**environment(), **result["versions"]},
        "computed_bytes": result["computed_bytes"],
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "failures": result["failures"][:10],
        "problems": result["problems"][:10],
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["per_layer"].items()}
    else:
        values = {"wall_s": detail["wall_s"]["median"],
                  "mbit_per_s": detail["mbit_per_s"]["median"],
                  "setup_s": detail["setup_s"]["median"],
                  "peak_rss_mb": detail["peak_rss_mb"]}
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}

    env = detail["environment"]
    print(f"randsuite benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"environment: nproc {env['nproc']}, {env['cpu_model']}, "
          f"L2 {env['l2_per_core']} per core, L3 {env['l3']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, OMP/OPENBLAS/MKL threads 1")
    for name in ("wall_s", "mbit_per_s", "setup_s"):
        s = detail[name]
        tails = "".join(f", {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name:<12} median {s['median']:.6g} {UNITS[name]}{tails} "
              f"({s['runs']} runs)")
    print(f"  {'peak_rss_mb':<12} {detail['peak_rss_mb']:.6g} MB")
    print(f"  {'error_rate':<12} {detail['error_rate']['value']:.6g} "
          f"({failed} failed of {attempted} attempted)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for line in detail["failures"] + detail["problems"]:
        print(f"  ! {line}")
    print("detail: " + json.dumps(detail))
    correct = failed == 0 and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one randsuite benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64 or args.seconds < 1:
        parser.error("--seed must be in [0, 2**64) and --seconds at least 1")
    try:
        result, setup_times = run(args)
    except (RunFailed, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, result, setup_times)
    return 0


if __name__ == "__main__":
    sys.exit(main())
