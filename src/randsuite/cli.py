"""Command-line surface for batch runs.

Subcommands
-----------
test       run the three-step suite over a manifest; writes report.json and
           results.csv
entropy    per-sample min/Shannon entropy series; writes entropy_<source>.csv
stability  ones-deviation series plus the acceptable-proportion band; writes
           deviation_<source>.csv and band.json
simulate   generate sample files plus manifests from a plan file

Exit codes: 0 pass, 1 statistical failure, 2 usage or input error, an
invalid manifest or plan included.  Every command reads all of its inputs and
checks every option before it writes its first file, so a command that exits
2 on bad input leaves --out as it was.  Reports are byte-identical across runs
for identical inputs; timestamps come from input metadata, never the wall
clock.  Every output is written atomically, except simulate's sample files:
their commit point is the manifest written after them.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .bitseq import concat_chronological, load_manifest, load_sample_set
from .entropy import (
    deviation_series,
    entropy_series,
    ones_band,
    write_band_json,
    write_deviation_csv,
    write_entropy_csv,
)
from .errors import ManifestError, RandsuiteError, check_int, check_real
from .randtests import ALL_TESTS, TestId, TestParams
from .sim import check_seed, load_plan, with_seed, write_experiment
from .suite import (UNIFORMITY_MIN_SAMPLES, SuiteConfig, run_suite, write_report_json,
                    write_results_csv)

__all__ = ["main"]

EXIT_PASS = 0
EXIT_STATISTICAL_FAIL = 1
EXIT_ERROR = 2


def _parse_tests(selection: str) -> tuple[TestId, ...]:
    if selection == "all":
        return ALL_TESTS
    return tuple(TestId(s.strip()) for s in selection.split(",") if s.strip())


def _suite_config(args) -> SuiteConfig:
    params = TestParams(alpha=args.alpha, block_size_m=args.block_size,
                        pattern_len_m=args.apen_m,
                        enforce_min_length=not args.no_min_length_enforcement)
    return SuiteConfig(params=params, tests=_parse_tests(args.tests),
                       band_coefficient=args.band_coefficient)


def _analyse(args, analyse) -> list:
    """``analyse`` of each ``--manifest`` source in order, one sample set alive at a time;
    every manifest is read, and a repeated ``source_id`` rejected, before any sample file."""
    manifests = [load_manifest(path) for path in args.manifest]
    ids = [manifest.source_id for manifest in manifests]
    for later, source_id in enumerate(ids):
        if (first := ids.index(source_id)) < later:
            raise ManifestError(f"{args.manifest[first]} and {args.manifest[later]} both "
                                f"declare source_id {source_id!r}")
    manifests.reverse()  # popped in argument order: each is freed once its samples load
    return [analyse(load_sample_set(manifests.pop())) for _ in ids]


def cmd_test(args) -> int:
    config = _suite_config(args)
    [report] = _analyse(args, lambda sample_set: run_suite(sample_set, config))
    out = Path(args.out)
    write_report_json(report, out / "report.json")
    write_results_csv(report, out / "results.csv")
    for test_id in report.config.tests:
        agg = report.per_test[test_id]
        uni = (f"uniformity skipped (m < {UNIFORMITY_MIN_SAMPLES})" if agg.uniformity_ok is None
               else f"uniformity_p={agg.uniformity_p:.6f} "
                    f"{'ok' if agg.uniformity_ok else 'NOT UNIFORM'}")
        print(f"{test_id.value:16s} proportion={agg.pass_proportion:.6f} "
              f"(band > {agg.band.lower:.6f}) "
              f"{'ok' if agg.proportion_ok else 'OUT OF BAND'}; {uni}")
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'} "
          f"({report.sample_count} samples)")
    return EXIT_PASS if report.overall_pass else EXIT_STATISTICAL_FAIL


def cmd_entropy(args) -> int:
    out = Path(args.out)
    for series in _analyse(args, entropy_series):
        target = out / f"entropy_{series.source_id}.csv"
        write_entropy_csv(series, target)
        print(f"{series.source_id}: {len(series)} points -> {target}")
    return EXIT_PASS


def cmd_stability(args) -> int:
    check_real("alpha", args.alpha, 0, 1, "()")
    check_int("stride", args.stride, 1)
    out = Path(args.out)
    results = _analyse(args, lambda sample_set: (
        deviation_series(concat_chronological(sample_set), stride=args.stride),
        ones_band(sample_set, args.alpha)))
    for series, row in results:
        target = out / f"deviation_{series.source_id}.csv"
        write_deviation_csv(series, target)
        print(f"{series.source_id}: proportion={row['proportion_of_ones']:.6f} "
              f"band=({row['band_lower']:.6f}, {row['band_upper']:.6f}) "
              f"{'ok' if row['inside'] else 'OUT OF BAND'} -> {target}")
    write_band_json({series.source_id: row for series, row in results}, args.alpha,
                    out / "band.json")
    return EXIT_PASS if all(row["inside"] for _, row in results) else EXIT_STATISTICAL_FAIL


def cmd_simulate(args) -> int:
    seed = None if args.seed is None else check_seed(args.seed)
    plan = load_plan(args.plan)
    manifests = write_experiment(plan if seed is None else with_seed(plan, seed), args.out)
    for path in manifests:
        print(f"wrote {path}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randsuite",
        description="Statistical randomness testing and noisy-qubit simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, nargs):
        p.add_argument("--manifest", required=True, nargs=nargs, help="manifest JSON file(s)")
        p.add_argument("--out", required=True, help="output directory")

    p_test = sub.add_parser("test", help="run the test suite over a manifest")
    add_common(p_test, 1)
    p_test.add_argument("--band-coefficient", type=float, default=SuiteConfig.band_coefficient,
                        help="proportion-band width coefficient (default %(default)s)")
    p_test.add_argument("--tests", default="all",
                        help="comma-separated test ids (default all): "
                             + ",".join(t.value for t in ALL_TESTS))
    p_test.add_argument("--block-size", type=int, default=TestParams.block_size_m,
                        help="block size M for block_frequency (default %(default)s)")
    p_test.add_argument("--apen-m", type=int, default=TestParams.pattern_len_m,
                        help="pattern length m for approx_entropy (default %(default)s)")
    p_test.add_argument("--no-min-length-enforcement", action="store_true",
                        help="allow sequences below the per-test minimum lengths")
    p_test.set_defaults(fn=cmd_test)

    p_entropy = sub.add_parser("entropy", help="per-sample entropy series")
    add_common(p_entropy, "+")
    p_entropy.set_defaults(fn=cmd_entropy)

    p_stab = sub.add_parser("stability", help="ones-deviation series and proportion band")
    add_common(p_stab, "+")
    p_stab.add_argument("--stride", type=int,
                        default=inspect.signature(deviation_series).parameters["stride"].default,
                        help="bits between deviation points (default %(default)s)")
    p_stab.set_defaults(fn=cmd_stability)

    for p in (p_test, p_stab):
        p.add_argument("--alpha", type=float, default=TestParams.alpha,
                       help="per-sample significance level (default %(default)s)")

    p_sim = sub.add_parser("simulate", help="generate sample files from a plan")
    p_sim.add_argument("--plan", required=True, help="experiment plan JSON file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the plan's master seed")
    p_sim.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RandsuiteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
