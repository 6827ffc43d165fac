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


def test_reports_deterministic_across_thread_env(tmp_path):
    path = write_cycle3(tmp_path)
    texts = []
    for threads in ("1", "8", "junk"):
        os.environ["LIMHODGE_THREADS"] = threads
        try:
            blobs = []
            for command in ("validate", "e1", "e2", "mhs", "polarize",
                            "compare"):
                _, result = run(RunConfig(command, path=path,
                                          page="both"))
                blobs.append(report_render(result, "json"))
            texts.append("".join(blobs))
        finally:
            del os.environ["LIMHODGE_THREADS"]
    assert texts[0] == texts[1] == texts[2]


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
    src = os.path.dirname(os.path.dirname(strata.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for bad, got in ((row[:-1], "1x3"), (row + ["0"], "1x5")):
        data["strata"]["C0"]["products"]["2,2"] = [bad]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable] + flags + ["-m", "limhodge.cli", "validate",
                                        str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert ("strata/C0/products/2,2: expected 1x4, got %s" % got
                in proc.stdout)
        assert "Traceback" not in proc.stdout + proc.stderr
