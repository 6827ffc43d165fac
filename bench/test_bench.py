"""Tests of the benchmark itself: the output gate, the seeded inputs and
the traced run.  Run with `python3 -m pytest bench -q`."""

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import gate
import hostspeed
import run
import workloads
from tracer import EXACT, MODULES, Tracer

from limhodge import cli, exactlin, homalg, limitpage, strata

MINI = workloads.Workload(
    "mini",
    [workloads.Input("cycle", 3), workloads.Input("projective", 2)],
    list(workloads.COMMANDS))


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", "json"])
    return code, buf.getvalue()


def test_every_call_passes_the_gate(in_tmp):
    runner = run.Runner(MINI, cli.main, None)
    workloads.write_inputs(MINI, 5, in_tmp)
    runner.run_pass()
    assert runner.attempted == len(MINI.calls())
    assert runner.failed == 0, runner.errors


def _runner_with(in_tmp, edit):
    """A runner whose program is cli.main with its result edited."""
    def main(argv):
        code, text = report(argv[:-2])
        code, text = edit(argv[0], code, json.loads(text))
        sys.stdout.write(text)
        return code
    workloads.write_inputs(MINI, 0, in_tmp)
    return run.Runner(MINI, main, None)


def test_wrong_exit_code_is_a_failed_operation(in_tmp):
    runner = _runner_with(in_tmp, lambda cmd, code, rep: (
        2 if cmd == "validate" else code, json.dumps(rep)))
    runner.run_pass()
    assert runner.failed == len(MINI.inputs)


def test_failed_check_is_a_failed_operation(in_tmp):
    def edit(cmd, code, rep):
        if cmd == "polarize":
            rep["checks"][-1]["ok"] = False
        return code, json.dumps(rep)
    runner = _runner_with(in_tmp, edit)
    runner.run_pass()
    assert runner.failed == len(MINI.inputs)


def test_changed_weight_table_is_a_failed_operation(in_tmp):
    def edit(cmd, code, rep):
        if cmd == "mhs":
            rep["cohomology"]["2"]["weights"] = {"0": 1}
        return code, json.dumps(rep)
    runner = _runner_with(in_tmp, edit)
    runner.run_pass()
    assert runner.failed == len(MINI.inputs)


def test_gate_oracle_for_compare_e2_and_digest(in_tmp):
    table = workloads.cycle_table()
    strata.save(strata.fixture_cycle_of_p1(3), "c.json")
    code, text = report(["compare", "c.json"])
    assert gate.problems("compare", table, code, text) == []
    rep = json.loads(text)
    rep["cells"][0]["dimK"] += 1
    assert gate.problems("compare", table, code, json.dumps(rep))
    code, text = report(["e2", "--page", "both", "c.json"])
    assert gate.problems("e2", table, code, text) == []
    rep = json.loads(text)
    del rep["pages"]["K"]["cells"][0]
    assert gate.problems("e2", table, code, json.dumps(rep))
    assert gate.problems("e2", table, code, text, want_digest="0" * 64)
    assert gate.problems("e2", table, code, "not json")


def test_oracle_tables():
    assert workloads.times_p1(workloads.projective_table(1)) == {
        0: ({0: 1}, []), 2: ({2: 2}, [0, 0]), 4: ({4: 1}, [0, 0, 0, 0])}
    fourfold = workloads.WORKLOADS["fourfold-validate"].inputs[0].table()
    assert fourfold[3] == ({2: 3, 4: 3}, [3, 0, 0])
    assert fourfold[4] == ({4: 6}, [0] * 4)
    assert workloads.expected_cells(workloads.cycle_table()) == {
        (0, 0): 1, (-1, 1): 1, (1, 1): 1, (0, 2): 1}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_permuted_inputs_validate(name, in_tmp):
    workload = workloads.WORKLOADS[name]
    workloads.write_inputs(workload, 7, in_tmp)
    first = {i.fname: (in_tmp / i.fname).read_text() for i in workload.inputs}
    workloads.write_inputs(workload, 7, in_tmp)
    for inp in workload.inputs:
        assert (in_tmp / inp.fname).read_text() == first[inp.fname]
        if name == "fourfold-validate":
            continue    # validate takes seconds here; the run gates it
        datum = strata.load(inp.fname)
        assert strata.all_checks_pass(strata.validate(datum))
        assert sorted(datum.ix.labels) == sorted(inp.build().ix.labels)


def test_seed_permutes_components(in_tmp):
    orders = set()
    for seed in range(4):
        workloads.write_inputs(MINI, seed, in_tmp)
        orders.add(tuple(json.loads(
            (in_tmp / "cycle3.json").read_text())["components"]))
    assert len(orders) > 1


def _traced_pass(in_tmp):
    tracer = Tracer()
    runner = run.Runner(MINI, cli.main, None)
    tracer.install()
    try:
        tracer.begin_pass()
        wall, _ = runner.run_pass()
        tracer.end_pass(wall)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.errors
    return tracer.pass_metrics(0)


def test_exact_counts_repeat_across_two_runs(in_tmp):
    workloads.write_inputs(MINI, 3, in_tmp)
    first = _traced_pass(in_tmp)
    second = _traced_pass(in_tmp)
    for name in EXACT:
        assert first[name] > 0
        assert first[name] == second[name], name


def test_wrappers_are_rebound_and_restored(in_tmp):
    originals = (exactlin.rank, limitpage.rank, homalg.rank, strata.rank,
                 cli.rank, exactlin.Matrix.__dict__["matvec"])
    tracer = Tracer()
    tracer.install()
    try:
        assert limitpage.rank is exactlin.rank is cli.rank
        assert exactlin.rank is not originals[0]
        exactlin.Matrix.identity(2).matvec([1, 2])
    finally:
        tracer.uninstall()
    assert (exactlin.rank, limitpage.rank, homalg.rank, strata.rank,
            cli.rank, exactlin.Matrix.__dict__["matvec"]) == originals
    assert [tracer.names[s[0]] for s in tracer.spans] == [
        "exactlin.Matrix.matvec"]


def test_every_per_layer_metric_is_produced(in_tmp):
    workloads.write_inputs(MINI, 1, in_tmp)
    produced = _traced_pass(in_tmp)
    with open(run.SPEC) as fh:
        spec = json.load(fh)
    extra = set(run.PER_COMMAND) | {"trace.overhead_s"} | {
        "%s.loc" % m for m in MODULES}
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in produced and m["name"] not in extra]
    assert missing == []
    assert [m["name"] for m in spec["end_to_end"]] == (
        run.PASS_METRICS + ["peak_rss_mb", "setup_s"])


def test_reference_chunk_eliminates_to_the_identity():
    size = hostspeed.SIZE
    assert hostspeed.reference_chunk() == [
        [int(i == j) for j in range(size)] for i in range(size)]


def test_host_speed_samples_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        t0, c0 = time.perf_counter(), speed.clock()
        while time.perf_counter() - t0 < 10 * hostspeed.INTERVAL_S:
            sum(range(1000))
        wall, program = time.perf_counter() - t0, speed.clock() - c0
        assert len(speed.chunks) >= 5
        assert program == pytest.approx(wall - speed.busy, abs=1e-3)
        assert speed.scale() > 0
        assert speed.chunks == []
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.SPEC, tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
