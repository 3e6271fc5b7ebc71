"""Seeded end-to-end benchmark of the polyflats CLI, one workload per process.

    python3 perfbench/run.py --workload wide-tables --seed 1 --seconds 30 --trace 0

Run from the repository root; polyflats is imported from ./src.  The run
writes each instance's input files, then runs closed-loop passes over the
instance list (one client, one thread, one instance at a time) until the
next pass would overrun ``--seconds``.  Every instance runs its CLI pipeline
in process through ``polyflats.cli.main(argv)`` and every output is checked.
Pipeline times are reported in units of a fixed reference task timed between
instances (see ``Reference``).  The last stdout line is the JSON result; a
record of the run, and with ``--trace 1`` the spans, go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import exact
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "op_p50_ref": "ref",
    "op_p90_ref": "ref",
    "peak_rss_mb": "MB",
}

REFERENCE_N = 7


class Reference:
    """A fixed task timed before the first instance and after every instance:
    check a seeded rational rank table on 7 elements with the benchmark's own
    oracle, write its rank file and parse it back.

    It never calls polyflats and does the same kind of work (Fraction
    arithmetic over a 2^n table, JSON, a small file), so other tenants of the
    machine slow it about as much as they slow the instance next to it.  An
    instance's time divided by the mean of the reference times on either side
    of it cancels the host's speed at that moment; any change to the program
    still moves it in full."""

    def __init__(self, path: Path):
        rng = random.Random("perfbench-reference")
        n = REFERENCE_N
        terms = [(sum(1 << i for i in rng.sample(range(n), rng.randint(2, n))), rng.randint(1, 3),
                  Fraction(rng.randint(1, 5), rng.choice((2, 3, 4)))) for _ in range(4)]
        self.values = exact.fractions(*exact.scaled_sum(n, terms))
        self.names = tuple(workloads.LABELS[:n])
        self.path = path

    def __call__(self) -> float:
        start = perf_counter()
        if not exact.is_polymatroid(REFERENCE_N, self.values):
            raise AssertionError("the reference table is not a polymatroid")
        self.path.write_text(exact.polymatroid_text(self.names, self.values), encoding="utf-8")
        json.loads(self.path.read_text(encoding="utf-8"))
        return perf_counter() - start


class Pass(NamedTuple):
    seconds: dict       # label -> wall-clock seconds
    relative: dict      # label -> seconds over the mean of the adjacent reference times
    refs: list          # reference times, one before the first instance and one after each


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--instances", type=int, default=None,
        help="rescale the instance count (smoke runs); the default is the full mix",
    )
    return parser.parse_args(argv)


def import_polyflats():
    sys.path.insert(0, str(ROOT / "src"))
    import polyflats
    import polyflats.cli

    if Path(polyflats.__file__).resolve().parent != ROOT / "src" / "polyflats":
        raise ImportError(f"polyflats came from {polyflats.__file__}, not {ROOT / 'src'}")
    return polyflats


def run_instance(polyflats, inst):
    """Run one pipeline; returns (seconds, per-step results)."""
    cli, results = polyflats.cli, []
    start = perf_counter()
    for step in inst.steps:
        if callable(step):
            f = step()
            results.append((f.ground.names, f.values))
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(step)
            except SystemExit as exc:
                code = exc.code
        results.append((code, out.getvalue(), err.getvalue()))
    return perf_counter() - start, results


def read_outputs(paths):
    out = []
    for path in paths:
        try:
            out.append(Path(path).read_text(encoding="utf-8"))
        except OSError:
            out.append(None)
    return out


class Loop:
    """Closed-loop passes over the instance list, with output checks."""

    def __init__(self, polyflats, reference):
        self.polyflats = polyflats
        self.reference = reference
        self.instances = []
        self.tracer = None
        self.verified = {}          # label -> outputs already checked correct
        self.attempted = 0
        self.errors = []

    def run_pass(self):
        """One pass; returns a ``Pass`` and the uncovered shares."""
        times, relative, uncovered = {}, {}, []
        refs = [self.reference()]
        for inst in self.instances:
            first_span = 0
            if self.tracer:
                self.tracer.start_instance(inst.label)
                first_span = len(self.tracer.spans)
            self.attempted += 1
            try:
                took, results = run_instance(self.polyflats, inst)
            except Exception:
                self.errors.append(f"{inst.label}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                refs.append(self.reference())
            times[inst.label] = took
            relative[inst.label] = 2 * took / (refs[-2] + refs[-1])
            if self.tracer:
                uncovered.append(1 - self.tracer.top_level_seconds(first_span) / took)
            self.check(inst, results)
        return Pass(times, relative, refs), uncovered

    def check(self, inst, results):
        outputs = (results, read_outputs(inst.outputs))
        if self.verified.get(inst.label) == outputs:
            return
        try:
            problems = inst.check(*outputs)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.errors.append(f"{inst.label}: " + "; ".join(problems))
        else:
            self.verified[inst.label] = outputs


class Setup:
    """One set-up round per call: generate the instances and write their
    input files afresh.  Rounds run before every pass, so the median round
    spans the whole run like the timed passes do."""

    def __init__(self, args, polyflats, work):
        self.args, self.polyflats, self.work = args, polyflats, work
        self.times = []

    def __call__(self):
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        start = perf_counter()
        instances = workloads.WORKLOADS[self.args.workload](
            self.args.seed, self.work, self.args.instances, self.polyflats)
        self.times.append(perf_counter() - start)
        return instances


def measure(loop, setup, seconds, tracer=None):
    """Set-up round and timed pass, repeated until the passes' next one would
    overrun ``seconds``.  With a tracer, passes alternate bare and traced,
    starting bare, and end on a traced one.  Returns the traced (or only)
    passes and the bare ones, as ``Pass`` lists, and the uncovered shares."""
    passes, bare, uncovered = [], [], []
    spent = 0.0
    while True:
        loop.instances = setup()
        traced = tracer is not None and len(bare) > len(passes)
        if traced:
            tracer.install()
            loop.tracer = tracer
        began = perf_counter()
        one, shares = loop.run_pass()
        took = perf_counter() - began
        spent += took
        if traced:
            tracer.uninstall()
            loop.tracer = None
        if tracer and not traced:
            bare.append(one)
            continue
        passes.append(one)
        uncovered += shares
        if spent + took > seconds:
            return passes, uncovered, bare


def median_times(passes):
    """Each instance's median over the passes ({label: time} dicts): the
    run's estimate of its pipeline time."""
    seen = {}
    for times in passes:
        for label, took in times.items():
            seen.setdefault(label, []).append(took)
    return {label: statistics.median(took) for label, took in seen.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    began = perf_counter()
    try:
        polyflats = import_polyflats()
    except ImportError as exc:
        print(f"perfbench: cannot import polyflats from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - began

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    setup = Setup(args, polyflats, work)
    tracer = spans.Tracer() if args.trace else None
    loop = Loop(polyflats, Reference(work / "reference.json"))
    try:
        passes, uncovered, bare = measure(loop, setup, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    instances = loop.instances
    classes = Counter(inst.size_class for inst in instances)
    failed = len(loop.errors)
    times = sorted(median_times([p.relative for p in passes]).values())
    if tracer:
        metrics = tracer.metrics(len(passes))
        metrics["trace.overhead_ratio"] = sum(times) / sum(median_times([p.relative for p in bare]).values())
        metrics["trace.uncovered_share"] = statistics.median(uncovered)
        units = spans.metric_units()
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup.times),
            "wall_ref": sum(times),
            "op_p50_ref": statistics.median(times),
            "op_p90_ref": statistics.quantiles(times, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "instances_per_class": dict(classes),
        "pass_walls_s": [sum(p.seconds.values()) for p in passes],
        "pass_walls_ref": [sum(p.relative.values()) for p in passes],
        "reference_median_s": [statistics.median(p.refs) for p in passes],
        "wall_s": sum(median_times([p.seconds for p in passes]).values()),
        "import_s": import_s,
        "setup_rounds": setup.times,
        "samples": len(times),
        "attempted": loop.attempted,
        "failed": failed,
        "error_rate": failed / loop.attempted,
        "errors": loop.errors[:20],
        "metrics": metrics,
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        with open(results_dir / f"{stem}-spans.jsonl", "w") as fh:
            for inst, name, parent, start, end in tracer.spans:
                fh.write(json.dumps({"instance": inst, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
    for error in loop.errors[:5]:
        print(f"perfbench: error: {error}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(instances)} instances "
        f"({', '.join(f'{k} {v}' for k, v in classes.items())}), {len(passes)} timed passes, "
        f"{len(times)} samples, error_rate {record['error_rate']:.4g}, "
        f"python {record['python']}, nproc {record['nproc']}"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
