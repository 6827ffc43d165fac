import json
import os
import subprocess
import sys

import pytest

from limhodge import cli, strata
from limhodge.cli import RunConfig, run, report_render, main


def write_cycle3(tmp_path, mutate=None):
    datum = strata.fixture_cycle_of_p1(3)
    if mutate:
        mutate(datum)
    path = tmp_path / "cycle3.json"
    strata.save(datum, path)
    return str(path)


def test_fixture_then_validate_round_trip(tmp_path):
    out = str(tmp_path / "cycle3.json")
    code = main(["fixture", "cycle", "--components", "3", "-o", out])
    assert code == 0
    assert main(["validate", out, "-o", os.devnull]) == 0


def test_validate_exit_codes(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(RunConfig("validate", path=path))
    assert code == 0
    assert all(c["ok"] for c in result["checks"])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, result = run(RunConfig("validate", path=str(bad)))
    assert code == 1 and "error" in result
    code, result = run(RunConfig("validate", path=str(tmp_path / "no")))
    assert code == 3 and "error" in result


def test_mhs_report(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(RunConfig("mhs", path=path))
    assert code == 0
    assert result["cohomology"]["1"]["weights"] == {"0": 1, "2": 1}
    text = report_render(result, "table")
    assert "H^1  w0:1 w2:1" in text
    data = json.loads(report_render(result, "json"))
    assert data == result


def test_polarize_strict_on_negated_trace(tmp_path):
    def negate(d):
        for s in d.traces:
            d.traces[s] = [-x for x in d.traces[s]]
    path = write_cycle3(tmp_path, mutate=negate)
    code, result = run(RunConfig("polarize", path=path))
    assert code == 0  # verdicts reported, non-strict exit is 0
    assert any(not c["ok"] for c in result["checks"])
    code, result = run(RunConfig("polarize", path=path, strict=True))
    assert code == 2
    text = report_render(result, "table")
    assert "FAIL" in text and "HL-positivity" in text


def test_polarize_pass(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(RunConfig("polarize", path=path, strict=True))
    assert code == 0
    assert all(c["ok"] for c in result["checks"])


def test_compare_report(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(RunConfig("compare", path=path))
    assert code == 0
    cells = {(c["m"], c["q"]): (c["dimA"], c["dimK"])
             for c in result["cells"]}
    assert cells == {(0, 0): (1, 1), (-1, 1): (1, 1),
                     (1, 1): (1, 1), (0, 2): (1, 1)}


def test_e1_e2_pages(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(RunConfig("e1", path=path, page="both"))
    assert code == 0
    cells_a = {(c["m"], c["q"]): c["dim"]
               for c in result["pages"]["A"]["cells"]}
    assert cells_a == {(-1, 1): 3, (0, 0): 3, (0, 2): 3, (1, 1): 3}
    assert result["pages"]["K"]["cells"]  # truncated u-tower present
    code, result = run(RunConfig("e2", path=path, page="both"))
    assert code == 0
    assert result["pages"]["A"]["cells"] == \
        result["pages"]["K"]["cells"]


def test_dump_includes_matrices(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(RunConfig("e1", path=path, dump=True))
    assert code == 0
    assert "0,0" in result["pages"]["A"]["d1"]
    code, result = run(RunConfig("mhs", path=path, dump=True))
    assert code == 0
    assert "pairing" in result and "N" in result


def _run_python(flags, args, tmp_path):
    """Run `python [flags] args` on this source tree."""
    src = os.path.dirname(os.path.dirname(strata.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable] + flags + args, cwd=tmp_path,
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_reports_identical_under_optimize(tmp_path):
    """`python -O` strips asserts; no report may depend on one."""
    strata.save(strata.fixture_cycle_of_p1(3), tmp_path / "cycle3.json")
    strata.save(strata.fixture_product_with_p1(
        strata.fixture_cycle_of_p1(3)), tmp_path / "cycle3xp1.json")
    script = (
        "from limhodge.cli import main\n"
        "for path in ('cycle3.json', 'cycle3xp1.json'):\n"
        "    for command in ('validate', 'e1', 'e2', 'mhs', 'polarize',\n"
        "                    'compare'):\n"
        "        page = ['--page', 'both'] if command[0] == 'e' else []\n"
        "        print(main([command, path, '--format', 'json'] + page))\n")
    outputs = []
    for flags in ([], ["-O"]):
        proc = _run_python(flags, ["-c", script], tmp_path)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count('"command"') == 12


def test_exactlin_consistency_errors_under_optimize(tmp_path):
    """Three wrong answers that only an `assert` stopped before: each
    must raise ConsistencyError (exit 2 in the CLI) under `python -O`."""
    script = (
        "import sys\n"
        "from limhodge.exactlin import ConsistencyError, Matrix, Subspace, "
        "inverse\n"
        "print('optimize', sys.flags.optimize)\n"
        "for case in (lambda: Matrix(2, 2) * Matrix(3, 1),\n"
        "             lambda: inverse(Matrix(2, 2, [[1, 1], [1, 1]])),\n"
        "             lambda: Subspace(2, [[1, 0]]).coords([0, 1])):\n"
        "    try:\n"
        "        print('returned', case())\n"
        "    except ConsistencyError:\n"
        "        print('raised')\n")
    proc = _run_python(["-O"], ["-c", script], tmp_path)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert proc.stdout.split("\n") == ["optimize 1"] + ["raised"] * 3 + [""]


def test_fixture_kinds(tmp_path):
    for argv, name in (
            (["fixture", "projective", "--dim", "2"], "p2.json"),
            (["fixture", "product", "--components", "3"],
             "cycle3xp1.json")):
        out = str(tmp_path / name)
        assert main(argv + ["-o", out]) == 0
        assert strata.all_checks_pass(strata.validate(strata.load(out)))


def test_output_to_unwritable_path(tmp_path):
    path = write_cycle3(tmp_path)
    code = main(["mhs", path, "-o", str(tmp_path / "no" / "x.txt")])
    assert code == 3


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_misshaped_product_table_exits_1(tmp_path, flags):
    """Shape errors are input errors, also when `python -O` strips
    asserts: exit 1, the table's path in the message, no traceback."""
    datum = strata.fixture_product_with_p1(strata.fixture_cycle_of_p1(3))
    data = json.loads(strata.dumps(datum))
    row = data["strata"]["C0"]["products"]["2,2"][0]
    for bad, got in ((row[:-1], "1x3"), (row + ["0"], "1x5")):
        data["strata"]["C0"]["products"]["2,2"] = [bad]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = _run_python(flags, ["-m", "limhodge.cli", "validate",
                                   str(path)], tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert ("strata/C0/products/2,2: expected 1x4, got %s" % got
                in proc.stdout)
        assert "Traceback" not in proc.stdout + proc.stderr


def _set(keys, value):
    def mutate(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return mutate


def _rename_gysin(data):
    data["gysin"]["C0C1"] = data["gysin"].pop("C0|C1")


@pytest.mark.parametrize("mutate, where", [
    (_set(["strata", "C0", "products", "0,0"], [["x"]]),
     "strata/C0/products/0,0: "),
    (_set(["strata", "C0", "trace"], ["1/0"]), "strata/C0/trace: "),
    (_set(["strata", "C0", "dims"], 3), "strata/C0/dims: "),
    (_set(["restrictions", "C0|Z9"], {"0": [["1"]]}),
     "restrictions/C0|Z9: "),
    (_rename_gysin, "gysin/C0C1: "),
], ids=["bad-rational", "zero-denominator", "dims-not-a-list",
        "unknown-stratum", "gysin-key-without-bar"])
def test_malformed_value_exits_1_with_its_path(tmp_path, mutate, where):
    data = json.loads(strata.dumps(strata.fixture_cycle_of_p1(3)))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for flags in ([], ["-O"]):
        for command in ("validate", "mhs"):
            proc = _run_python(flags, ["-m", "limhodge.cli", command,
                                       str(path)], tmp_path)
            assert proc.returncode == 1, proc.stdout + proc.stderr
            assert proc.stdout.startswith("error: " + where), proc.stdout
            assert "Traceback" not in proc.stdout + proc.stderr


def test_d1_squared_failure_is_reported_not_raised(tmp_path):
    """A datum with d1∘d1 != 0 on the K page: `compare` lists the
    failures, each with its witness, and exits 2, also under -O."""
    datum = strata.fixture_product_with_p1(strata.fixture_cycle_of_p1(3))
    key = next(iter(datum.restrictions))
    datum.restrictions[key] = {deg: m.scale(2) for deg, m
                               in datum.restrictions[key].items()}
    strata.save(datum, tmp_path / "d2.json")
    for flags in ([], ["-O"]):
        proc = _run_python(flags, ["-m", "limhodge.cli", "compare",
                                   "d2.json", "--format", "json"],
                           tmp_path)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        failed = [c for c in json.loads(proc.stdout)["checks"]
                  if not c["ok"]]
        assert [c["check"] for c in failed].count("d1-squared-K") == 10
        assert all(c["witness"] for c in failed), failed
