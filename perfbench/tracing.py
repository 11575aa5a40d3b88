"""Spans around randsuite's layers, recorded from outside the package.

The benchmark never edits randsuite.  In a traced operation it replaces
functions at the place where the calling module looks them up (for example
``randsuite.suite.run_test``, which ``run_suite`` calls once per test and
sample) with a wrapper that records a span ``(id, parent id, name, start,
end, attrs)``.  Spans stay in memory while the traced work runs and are
written out, one JSON array per line, when it has ended.  ``Rollup`` turns
them into the per-layer metrics that ``BENCHMARK.json`` lists.

Only the standard library is used, so ``run.py`` can import this module
without importing numpy or randsuite.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

TEST_IDS = ("frequency", "block_frequency", "runs", "longest_run", "dft",
            "approx_entropy", "cusum_forward", "cusum_backward")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _samples_in_sets(args, kwargs, result):
    return {"samples": sum(len(s) for s in result)}


def _samples_in_arg(args, kwargs, result):
    return {"samples": len(args[0])}


def _planned_samples(args, kwargs, result):
    plan = args[0]
    return {"samples": len(plan.qubit_models) * plan.samples_per_qubit}


def _test_id(args, kwargs, result):
    return {"test": str(_arg(args, kwargs, 0, "test_id"))}


def _encoding(args, kwargs, result):
    return {"encoding": _arg(args, kwargs, 1, "encoding")}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# Public functions that the in-process workloads call through the package
# namespace and that the CLI calls through randsuite.cli's own globals.
_ENTRY_POINTS = {
    "generate_experiment": ("sim.generate", _samples_in_sets),
    "write_experiment": ("sim.write_experiment", _planned_samples),
    "load_manifest": ("bitseq.load_manifest", None),
    "load_sample_set": ("bitseq.load_sample_set", None),
    "concat_chronological": ("bitseq.concat", None),
    "run_suite": ("suite.run_suite", _samples_in_arg),
    "write_report_json": ("suite.write_report", _bytes_written),
    "write_results_csv": ("suite.write_results", _bytes_written),
    "entropy_series": ("entropy.series", _samples_in_arg),
    "deviation_series": ("entropy.deviation", None),
    "write_entropy_csv": ("entropy.write", None),
    "write_deviation_csv": ("entropy.write", None),
}

# Calls made inside the package, wrapped in the module that makes them.
_INNER_CALLS = (
    ("randsuite.sim", "generate_experiment", "sim.generate", _samples_in_sets),
    ("randsuite.bitseq", "parse_bits", "bitseq.decode", _encoding),
    ("randsuite.bitseq.BitSequence", "asarray", "bitseq.asarray", None),
    ("randsuite.suite", "run_test", "randtests.run_test", _test_id),
    ("randsuite.suite", "uniformity_check", "suite.uniformity", None),
    ("randsuite.suite", "as_probability", "special.as_probability", None),
    ("randsuite.suite", "upper_igamc", "special.upper_igamc", None),
    ("randsuite.randtests", "erfc", "special.erfc", None),
    ("randsuite.randtests", "upper_igamc", "special.upper_igamc", None),
    ("randsuite.randtests", "as_probability", "special.as_probability", None),
)


def _sites():
    for owner in ("randsuite", "randsuite.cli"):
        for attr, (span, attrs_fn) in _ENTRY_POINTS.items():
            yield owner, attr, span, attrs_fn
    yield from _INNER_CALLS


def _owner(dotted):
    """The loaded module or class named ``dotted``; None if not imported."""
    if dotted in sys.modules:
        return sys.modules[dotted]
    module, _, attr = dotted.rpartition(".")
    return getattr(sys.modules[module], attr, None) if module in sys.modules else None


class Tracer:
    """Records spans of wrapped randsuite calls while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._restore = []

    def install(self):
        for owner_name, attr, span, attrs_fn in _sites():
            owner = _owner(owner_name)
            if owner is None or not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, attrs_fn))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, attrs_fn):
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            spans.append((sid, parent, name, start, end, attrs))
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name, start, end, attrs=None):
        """Add a span measured by the caller, such as a module import."""
        self.spans.append((next(self._ids), -1, name, start, end, attrs))

    def take(self):
        """Hand over the spans recorded so far and start a new batch."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(spans, path):
    with open(path, "a") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def _median(values):
    return statistics.median(values) if values else 0.0


def _per(total, count, scale=1.0):
    return total * scale / count if count else 0.0


class Rollup:
    """Per-layer totals over the traced operations of one run.

    A metric whose layer the workload never enters reads 0: no time was
    spent there and nothing was counted.
    """

    def __init__(self):
        self.count = defaultdict(int)
        self.seconds = defaultdict(float)
        self.samples = defaultdict(int)
        self.bytes = defaultdict(int)
        self.suite_self = []
        self.suite_uniformity = []
        self.imports = []
        self.invocation_walls = []
        self.ops = 0
        self.op_samples = 0

    def add_op(self, samples):
        """Count one traced operation over ``samples`` distinct samples."""
        self.ops += 1
        self.op_samples += samples

    def add(self, spans):
        """Fold in the spans of one process or one operation."""
        parent_of = {s[0]: s[1] for s in spans}
        suite_ids = {s[0] for s in spans if s[2] == "suite.run_suite"}
        child_time = defaultdict(lambda: defaultdict(float))
        for _, parent, name, start, end, _ in spans:
            child_time[parent][name] += end - start
        for sid, parent, name, start, end, attrs in spans:
            took = end - start
            key = name
            if name == "randtests.run_test":
                key = f"{name}.{attrs['test']}"
            elif name == "bitseq.decode":
                key = f"{name}.{attrs['encoding']}"
            self.count[key] += 1
            self.seconds[key] += took
            if attrs:
                self.samples[key] += attrs.get("samples", 0)
                self.bytes[key] += attrs.get("bytes", 0)
            if name == "bitseq.asarray" and _inside(parent, parent_of, suite_ids):
                self.count["bitseq.asarray.in_suite"] += 1
            elif name == "suite.run_suite":
                kids = child_time[sid]
                self.suite_self.append(took - kids["randtests.run_test"])
                self.suite_uniformity.append(kids["suite.uniformity"])
            elif name == "sim.write_experiment":
                self.seconds["sim.write_self"] += took - child_time[sid]["sim.generate"]
            elif name == "cli.import":
                self.imports.append(took)

    def metrics(self, walls_traced, walls_untraced):
        c, s = self.count, self.seconds
        tested = self.samples["suite.run_suite"]
        decodes = {k: v for k, v in c.items() if k.startswith("bitseq.decode.")}
        tests = [f"randtests.run_test.{t}" for t in TEST_IDS]
        special = [k for k in c if k.startswith("special.")]
        reports = c["suite.write_report"]
        traced, untraced = _median(walls_traced), _median(walls_untraced)
        m = {
            "cli.import_s": _median(self.imports),
            "cli.invocations": _per(len(self.invocation_walls), self.ops),
            "cli.invocation_s": _median(self.invocation_walls),
            "sim.generate_us_per_sample":
                _per(s["sim.generate"], self.samples["sim.generate"], 1e6),
            "sim.write_us_per_sample":
                _per(s["sim.write_self"], self.samples["sim.write_experiment"], 1e6),
            "bitseq.decode_packed_us_per_sample":
                _per(s["bitseq.decode.packed-msb"], c["bitseq.decode.packed-msb"], 1e6),
            "bitseq.decode_hex_us_per_sample":
                _per(s["bitseq.decode.hex"], c["bitseq.decode.hex"], 1e6),
            "bitseq.file_decodes_per_sample": _per(sum(decodes.values()), self.op_samples),
            "bitseq.unpacks_per_sample": _per(c["bitseq.asarray.in_suite"], tested),
        }
        for test, key in zip(TEST_IDS, tests):
            m[f"randtests.{test}_us_per_sample"] = _per(s[key], c[key], 1e6)
        m["randtests.battery_us_per_sample"] = _per(sum(s[k] for k in tests), tested, 1e6)
        m["special.calls_per_sample"] = _per(sum(c[k] for k in special), tested)
        m["special.us_per_sample"] = _per(sum(s[k] for k in special), tested, 1e6)
        m["suite.self_s"] = _median(self.suite_self)
        m["suite.uniformity_s"] = _median(self.suite_uniformity)
        m["suite.report_write_s"] = _per(
            s["suite.write_report"] + s["suite.write_results"], reports)
        m["suite.report_bytes"] = _per(
            self.bytes["suite.write_report"] + self.bytes["suite.write_results"], reports)
        m["entropy.series_us_per_sample"] = _per(
            s["entropy.series"], self.samples["entropy.series"], 1e6)
        m["entropy.deviation_s"] = _per(s["entropy.deviation"], c["entropy.deviation"])
        m["trace.overhead_ratio"] = _per(traced, untraced)
        m["trace.traced_wall_s"] = traced
        m["trace.untraced_wall_s"] = untraced
        return m


def unit_of(metric):
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in (("us_per_sample", "us"), ("_s", "s"), ("_bytes", "bytes"),
                         ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _inside(sid, parent_of, ancestors):
    while sid != -1:
        if sid in ancestors:
            return True
        sid = parent_of.get(sid, -1)
    return False
