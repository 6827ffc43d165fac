"""Benchmark of the limhodge command line, end to end and per layer.

    python3 bench/run.py --workload small-sweep --seed 0 --seconds 30 --trace 0

Runs the workload's CLI calls in-process through `limhodge.cli.main`,
pass after pass, for the given number of seconds, gates every call's
output and prints one line per metric, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
`--trace 0` the metrics are the end-to-end ones, with times in
reference seconds (see hostspeed.py); with `--trace 1`, untraced and
traced passes alternate and the metrics are the per-layer ones, with
times in seconds.
See bench/README.md.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gate
import workloads
from hostspeed import HostSpeed
from tracer import MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

# Reports at this seed must match DIGESTS byte for byte.
DEFAULT_SEED = 0
# Set-ups per run; setup_s is the import time plus their median.
SETUPS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# End-to-end metrics sampled once per pass; setup_s and peak_rss_mb
# are taken once per run.
PASS_METRICS = ["wall_s"] + ["%s_s" % c for c in workloads.COMMON]
# Command times that are per-layer metrics, as not every workload runs
# the command.
PER_COMMAND = ("compare_s", "e1_s", "e2_s")


def import_program(clock=time.perf_counter):
    """Import limhodge from this checkout's src/; returns (main, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = clock()
    cli = importlib.import_module("limhodge.cli")
    seconds = clock() - t0
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError("limhodge imported from %s, not %s"
                          % (cli.__file__, SRC))
    return cli.main, seconds


@contextlib.contextmanager
def work_dir(name):
    """A fresh directory under bench/.work, made the current directory
    so that reports name their inputs relative to it; removed on exit."""
    WORK.mkdir(exist_ok=True)
    directory = WORK / ("%s-%d" % (name, os.getpid()))
    directory.mkdir()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield directory
    finally:
        os.chdir(cwd)
        shutil.rmtree(directory)


def digest_key(workload, fname, command):
    return "%s/%s/%s" % (workload.name, fname, command)


class Runner:
    """Runs and gates the CLI calls of one workload, timing them with
    `clock`."""

    def __init__(self, workload, main, digests, clock=time.perf_counter):
        self.workload = workload
        self.main = main
        self.digests = digests
        self.clock = clock
        self.tables = {inp.fname: inp.table() for inp in workload.inputs}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, fname, command):
        """One CLI call in the current directory, gated; returns its
        seconds and its report."""
        argv = workloads.COMMANDS[command] + [fname, "--format", "json"]
        buf = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(buf):
            t0 = self.clock()
            try:
                code = self.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a crash is a failed operation
                code = "%s: %s" % (type(e).__name__, e)
            seconds = self.clock() - t0
        self.attempted += 1
        want = None
        if self.digests is not None:
            want = self.digests.get(
                digest_key(self.workload, fname, command), "")
        bad = gate.problems(command, self.tables[fname], code,
                            buf.getvalue(), want_digest=want)
        if bad:
            self.failed += 1
            self.errors.append("%s %s: %s" % (command, fname, "; ".join(bad)))
        return seconds, buf.getvalue()

    def run_pass(self):
        """One pass over the workload's calls: (seconds, per command),
        where seconds is the sum of the calls' times."""
        per_command = dict.fromkeys(self.workload.commands, 0.0)
        for fname, command in self.workload.calls():
            per_command[command] += self.call(fname, command)[0]
        return sum(per_command.values()), per_command


def set_up(runner, seed, directory):
    """Write the inputs and do one warm-up pass; returns its seconds."""
    t0 = runner.clock()
    workloads.write_inputs(runner.workload, seed, directory)
    runner.run_pass()
    return runner.clock() - t0


def describe(samples):
    """Minimum, median, the highest percentile with ten samples beyond it
    (or the maximum, below 11 samples) and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        high = "p%.0f %.4f" % (100.0 * (n - 10) / n, ordered[n - 11])
    else:
        high = "max %.4f" % ordered[-1]
    return "min %.4f  median %.4f  %s  n=%d" % (
        ordered[0], statistics.median(ordered), high, n)


def measure(runner, speed, seed, directory, import_s, seconds):
    """SETUPS set-ups, then untraced passes for the given seconds, while
    `speed` samples the host: the end-to-end metrics, with every time
    scaled to reference seconds by the chunks run during it."""
    setups, setup_scales = [], []
    for _ in range(SETUPS):
        raw = set_up(runner, seed, directory)
        setup_scales.append(speed.scale())
        setups.append(raw * setup_scales[-1])
    raw_wall, scales = [], []
    samples = {name: [] for name in PASS_METRICS}
    deadline = time.perf_counter() + seconds
    while len(raw_wall) < MIN_PASSES or time.perf_counter() < deadline:
        wall, per_command = runner.run_pass()
        scales.append(speed.scale())
        raw_wall.append(wall)
        samples["wall_s"].append(wall * scales[-1])
        for command in workloads.COMMON:
            samples["%s_s" % command].append(
                per_command[command] * scales[-1])
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    # The first set-up's chunks include those run during the import.
    metrics["setup_s"] = import_s * setup_scales[0] + statistics.median(setups)
    metrics["peak_rss_mb"] = (resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print("in reference seconds:")
    for name, values in samples.items():
        print("%-12s %s" % (name, describe(values)))
    print("%-12s %s (import %.4f s)" % ("setup_s", describe(setups),
                                        import_s * setup_scales[0]))
    print("in seconds:")
    print("%-12s %s" % ("wall", describe(raw_wall)))
    print("%-12s %s" % ("scale", describe(scales)))
    return metrics


def measure_traced(runner, seconds):
    """Alternating untraced and traced passes: per-layer metrics and
    whether the exact counters repeated."""
    tracer = Tracer()
    untraced, traced = [], []
    per_command = {name: [] for name in PER_COMMAND}
    deadline = time.perf_counter() + seconds
    while (len(traced) < MIN_TRACED_PASSES
           or time.perf_counter() < deadline):
        wall, by_command = runner.run_pass()
        untraced.append(wall)
        for name in PER_COMMAND:
            per_command[name].append(by_command.get(name[:-2], 0.0))
        tracer.install()
        try:
            tracer.begin_pass()
            wall, _ = runner.run_pass()
            tracer.end_pass(wall)
        finally:
            tracer.uninstall()
        traced.append(wall)
    metrics, repeats = tracer.summary()
    for name in PER_COMMAND:
        metrics[name] = min(per_command[name])
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    for module in MODULES:
        with open(SRC / "limhodge" / ("%s.py" % module)) as fh:
            metrics["%s.loc" % module] = len(fh.read().splitlines())
    with open(WORK / ("%s.spans.json" % runner.workload.name), "w") as fh:
        json.dump(tracer.dump(), fh)
    print("traced passes: %d, untraced: %d, wall_s traced %s, untraced %s"
          % (len(traced), len(untraced), describe(traced),
             describe(untraced)))
    return metrics, repeats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = HostSpeed()
    with contextlib.ExitStack() as stack:
        if not args.trace:
            # Sample the host from before the import on (see hostspeed.py).
            stack.enter_context(speed)
        try:
            cli_main, import_s = import_program(speed.clock)
        except ImportError as e:
            sys.stderr.write("error: cannot import the program: %s\n" % e)
            return 1
        with open(SPEC) as fh:
            spec = json.load(fh)
        digests = None
        if args.seed == DEFAULT_SEED:
            with open(DIGESTS) as fh:
                digests = json.load(fh)
        workload = workloads.WORKLOADS[args.workload]
        runner = Runner(workload, cli_main, digests, speed.clock)

        with work_dir(workload.name) as directory:
            if args.trace:
                set_up(runner, args.seed, directory)
                metrics, repeats = measure_traced(runner, args.seconds)
            else:
                metrics = measure(runner, speed, args.seed, directory,
                                  import_s, args.seconds)
                repeats = True

    for line in runner.errors[:10]:
        print("FAILED %s" % line)
    if not repeats:
        print("FAILED exact counters differ between traced passes")
    print("fail_ratio %d/%d = %.4f"
          % (runner.failed, runner.attempted,
             runner.failed / runner.attempted))
    result = {m["name"]: {"value": metrics.get(m["name"], 0),
                          "unit": m["unit"]}
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, entry in result.items():
        print("%-34s %.6g %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps({"correct": runner.failed == 0 and repeats,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
