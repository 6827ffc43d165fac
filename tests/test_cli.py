import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from limhodge import cli, strata
from limhodge.cli import build_parser, run, report_render, main

from test_limitpage import fixtures


def write_cycle3(tmp_path, mutate=None):
    datum = strata.fixture_cycle_of_p1(3)
    if mutate:
        mutate(datum)
    path = tmp_path / "cycle3.json"
    strata.save(datum, path)
    return str(path)


def _args(*argv):
    return build_parser().parse_args(argv)


def test_fixture_then_validate_round_trip(tmp_path):
    out = str(tmp_path / "cycle3.json")
    code = main(["fixture", "cycle", "--components", "3", "-o", out])
    assert code == 0
    assert main(["validate", out, "-o", os.devnull]) == 0


def test_validate_exit_codes(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(_args("validate", path))
    assert code == 0
    assert all(c["ok"] for c in result["checks"])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, result = run(_args("validate", str(bad)))
    assert code == 1 and "error" in result
    code, result = run(_args("validate", str(tmp_path / "no")))
    assert code == 3 and "error" in result


def test_mhs_report(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(_args("mhs", path))
    assert code == 0
    assert result["cohomology"]["1"]["weights"] == {"0": 1, "2": 1}
    text = report_render(result, "table")
    assert "H^1  w0:1 w2:1" in text
    data = json.loads(report_render(result, "json"))
    assert data == result


def _reversed_keys(obj):
    """obj with the keys of every dict in it in reverse order."""
    if isinstance(obj, dict):
        return {k: _reversed_keys(v) for k, v in reversed(list(obj.items()))}
    if isinstance(obj, list):
        return [_reversed_keys(x) for x in obj]
    return obj


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_reports_do_not_depend_on_key_order(tmp_path, command):
    """Both renderers order what they print themselves: a result whose
    dicts hold their keys in another order renders the same text."""
    path = str(tmp_path / "cycle3xp1.json")
    strata.save(strata.fixture_product_with_p1(
        strata.fixture_cycle_of_p1(3)), path)
    argv = [command, path] + (["--dump"] if command in ("e1", "mhs") else [])
    _, result = run(_args(*argv))
    rev = _reversed_keys(result)
    assert list(rev) != list(result)
    for fmt in ("json", "table"):
        assert report_render(rev, fmt) == report_render(result, fmt)


def test_polarize_strict_on_negated_trace(tmp_path):
    def negate(d):
        for s in d.traces:
            d.traces[s] = [-x for x in d.traces[s]]
    path = write_cycle3(tmp_path, mutate=negate)
    code, result = run(_args("polarize", path))
    assert code == 0  # verdicts reported, non-strict exit is 0
    assert any(not c["ok"] for c in result["checks"])
    code, result = run(_args("polarize", path, "--strict"))
    assert code == 2
    text = report_render(result, "table")
    assert "FAIL" in text and "HL-positivity" in text


def test_polarize_pass(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(_args("polarize", path, "--strict"))
    assert code == 0
    assert all(c["ok"] for c in result["checks"])


def test_compare_report(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(_args("compare", path))
    assert code == 0
    cells = {(c["m"], c["q"]): (c["dimA"], c["dimK"])
             for c in result["cells"]}
    assert cells == {(0, 0): (1, 1), (-1, 1): (1, 1),
                     (1, 1): (1, 1), (0, 2): (1, 1)}


def test_e1_e2_pages(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(_args("e1", path, "--page", "both"))
    assert code == 0
    cells_a = {(c["m"], c["q"]): c["dim"]
               for c in result["pages"]["A"]["cells"]}
    assert cells_a == {(-1, 1): 3, (0, 0): 3, (0, 2): 3, (1, 1): 3}
    assert result["pages"]["K"]["cells"]  # truncated u-tower present
    code, result = run(_args("e2", path, "--page", "both"))
    assert code == 0
    assert result["pages"]["A"]["cells"] == \
        result["pages"]["K"]["cells"]


def test_e2_cells_match_compare_on_every_fixture(tmp_path):
    """`e2` and `compare` read the same trusted window of each page:
    the E2 cells of page A (K) are the nonzero dimA (dimK) cells."""
    for i, datum in enumerate(fixtures()):
        path = str(tmp_path / ("fixture%d.json" % i))
        strata.save(datum, path)
        code, compared = run(_args("compare", path))
        assert code == 0
        code, e2 = run(_args("e2", path, "--page", "both"))
        assert code == 0
        for variant, key in (("A", "dimA"), ("K", "dimK")):
            cells = {(c["m"], c["q"]): c["dim"]
                     for c in e2["pages"][variant]["cells"]}
            assert cells == {(c["m"], c["q"]): c[key]
                             for c in compared["cells"] if c[key]}, \
                (i, variant)


def test_dump_includes_matrices(tmp_path):
    path = write_cycle3(tmp_path)
    code, result = run(_args("e1", path, "--dump"))
    assert code == 0
    assert "0,0" in result["pages"]["A"]["d1"]
    code, result = run(_args("mhs", path, "--dump"))
    assert code == 0
    assert "pairing" in result and "N" in result


# sha256 of the JSON reports of `e1 --page both --dump`,
# `e2 --page both`, `mhs --dump` and `compare`, whose numbers rest on
# the E2 cells of both pages.
PINNED_REPORTS = {
    ("cycle3xp1", "e1"):
        "8ad8efaf71526e4a96a955f6e7b8a9f8ef26b90f630dcb6858ed6e554947ceba",
    ("cycle3xp1", "e2"):
        "3266a12d70d4288603ac6be8930fa410a74ed6c6e27ba4368011e71b68fc2ad4",
    ("cycle3xp1", "mhs"):
        "e6fc1d2ab9c164170f2740958deca490304b659e5c91c1fce7ffd1bd1f88bb72",
    ("cycle3xp1", "compare"):
        "1d301a79d9377e4c882aac6cf1dd8dfb0ae8a09662d003cd4cc62e05ddbb060f",
    ("cycle4", "e1"):
        "eb2a6a505d71a8942327714ba91183e53a8d99a45d98796f1124779527804320",
    ("cycle4", "e2"):
        "434b7328866e97e4c0326ab9024abdf382d687e3e6fb7e4896eb3ac77c7f318b",
    ("cycle4", "mhs"):
        "569dfdfb37bcca857245bb6fd2e6bc08cac4bd20c84267c2058fbd58bf595126",
    ("cycle4", "compare"):
        "5d4690e0d3b753760ae95c605b2baaad092f18bd0a3a3d33586fc66901a897d7",
}
PINNED_ARGS = {"e1": ["e1", "--page", "both", "--dump"],
               "e2": ["e2", "--page", "both"],
               "mhs": ["mhs", "--dump"], "compare": ["compare"]}


@pytest.mark.parametrize("name, command", sorted(PINNED_REPORTS))
def test_page_reports_are_pinned(tmp_path, monkeypatch, name, command):
    """cycle(3) x P^1 and cycle(4): the reports name their input as
    given, so it is given relative to the current directory."""
    datum = strata.fixture_cycle_of_p1(int(name[5]))
    if name.endswith("xp1"):
        datum = strata.fixture_product_with_p1(datum)
    monkeypatch.chdir(tmp_path)
    strata.save(datum, name + ".json")
    code, result = run(_args(*PINNED_ARGS[command], name + ".json"))
    assert code == 0
    text = report_render(result, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PINNED_REPORTS[(name, command)]


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
    """Checks that were only `assert`s: under `python -O` each case must
    raise ConsistencyError (exit 2 in the CLI), not return a wrong
    answer. In the check_exact case g starts at k2, not at k, with
    ranks that make the sequence look exact."""
    cases = {
        "product": "Matrix(2, 2) * Matrix(3, 1)",
        "singular-inverse": "inverse(Matrix(2, 2, [[1, 1], [1, 1]]))",
        "coords-outside": "Subspace(2, [[1, 0]]).coords([0, 1])",
        "contains-long-vector": "Subspace(2, [[1, 0]]).contains_vector("
                                "[1, 0, 5])",
        "contains-other-ambient": "Subspace(2, [[1, 0]]).contains("
                                  "Subspace(3, [[1, 0, 7]]))",
        "solve-long-rhs": "solve(Matrix.identity(2), Matrix(3, 1))",
        "determinant-2x3": "determinant(Matrix(2, 3, [[1, 0, 0], "
                           "[0, 1, 0]]))",
        "sum-of-shapes": "Matrix(1, 2) + Matrix(1, 3)",
        "quotient-other-ambient": "quotient(Subspace.full(2), "
                                  "Subspace.zero(3))",
        "echelon-long-row": "Echelon(2).add([1, 0, 5])",
        "chain-map-not-commuting": "ChainMap(k, k, {0: Matrix.identity(1),"
                                   " 1: Matrix(1, 1)})"
                                   ".induced_on_cohomology(0)",
        "chain-map-shape": "ChainMap(k, k, {0: Matrix(2, 1)})",
        "exact-through-other-complex": "check_exact(ChainMap("
                                       "zero_complex(), k, {}), "
                                       "ChainMap(k2, k2, {0: one, 1: one}))",
        "filtration-empty": "FilteredComplex(k, {})",
        "filtration-not-exhaustive": "FilteredComplex(k, {0: {0: full}})",
        "filtration-not-increasing": "FilteredComplex(k, {0: {0: full}, "
                                     "1: {1: full}, 2: {0: full, 1: full}})",
        "filtration-not-preserved": "FilteredComplex(k, {0: {0: full}, "
                                    "1: {0: full, 1: full}})",
    }
    script = (
        "import sys\n"
        "from limhodge.exactlin import (ConsistencyError, Echelon, Matrix,"
        " Subspace, determinant, inverse, quotient, solve)\n"
        "from limhodge.homalg import (ChainMap, Complex, FilteredComplex, "
        "check_exact, zero_complex)\n"
        "k = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})\n"
        "k2 = Complex({0: 1, 1: 1}, {0: Matrix(1, 1, [[2]])})\n"
        "one, full = Matrix.identity(1), Subspace.full(1)\n"
        "print('optimize', sys.flags.optimize)\n"
        "for name, case in %r.items():\n"
        "    try:\n"
        "        print(name, 'returned', eval(case))\n"
        "    except ConsistencyError:\n"
        "        print(name, 'raised')\n" % cases)
    proc = _run_python(["-O"], ["-c", script], tmp_path)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert proc.stdout.split("\n") == (["optimize 1"] + [
        name + " raised" for name in cases] + [""])


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
    """Shape errors and missing tables are input errors, also when
    `python -O` strips asserts: every command exits 1 with the table's
    path in the message, no traceback."""
    datum = strata.fixture_product_with_p1(strata.fixture_cycle_of_p1(3))
    data = json.loads(strata.dumps(datum))
    row = data["strata"]["C0"]["products"]["2,2"][0]
    for key, table, message in (
            ("C0", [row[:-1]], "C0/products/2,2: expected 1x4, got 1x3"),
            ("C0", [row + ["0"]], "C0/products/2,2: expected 1x4, got 1x5"),
            ("C0,C1", None, "C0,C1/products/0,2: missing")):
        bad = json.loads(json.dumps(data))
        products = bad["strata"][key]["products"]
        if table is None:
            del products["0,2"]
        else:
            products["2,2"] = table
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        for command in ("validate", "e1"):
            proc = _run_python(flags, ["-m", "limhodge.cli", command,
                                       str(path)], tmp_path)
            assert proc.returncode == 1, proc.stdout + proc.stderr
            assert proc.stdout == "error: strata/%s\n" % message
            assert "Traceback" not in proc.stderr


def _set(keys, value):
    def mutate(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return mutate


def _rename_gysin(data):
    data["gysin"]["C0C1"] = data["gysin"].pop("C0|C1")


def _alias(section, key, same_as):
    """Add `key` to a section as a copy of the entry of `same_as`."""
    def mutate(data):
        data[section][key] = data[section][same_as]
    return mutate


def _no_components(data):
    data.clear()
    data.update(n=1, components=[], strata={})


@pytest.mark.parametrize("mutate, where", [
    (_set(["strata", "C0", "products", "0,0"], [["x"]]),
     "strata/C0/products/0,0: "),
    (_set(["strata", "C0", "trace"], ["1/0"]), "strata/C0/trace: "),
    (_set(["strata", "C0", "dims"], 3), "strata/C0/dims: "),
    (_set(["strata", "C0", "dims"], [1, 2, 1]), "strata/C0/dims: "),
    (_set(["restrictions", "C0|Z9"], {"0": [["1"]]}),
     "restrictions/C0|Z9: "),
    (_rename_gysin, "gysin/C0C1: "),
    (_set(["components"], ["C0", "C1", "C2", "C0"]),
     "components: duplicate label 'C0'"),
    (_no_components, "components: empty"),
    (_set(["hodge_tate"], "no"),
     'hodge_tate: only true is supported, got "no"'),
    (_set(["hodge_tate"], False),
     "hodge_tate: only true is supported, got false"),
    (_set(["n"], True), "n: expected an int, got bool"),
    (_set(["strata", "C0", "ample"], [0.1]),
     "strata/C0/ample: expected a str, got float"),
    (_set(["strata", "C0", "trace"], [1]),
     "strata/C0/trace: expected a str, got int"),
    (_set(["strata", "C0", "products", "0,0"], [[1]]),
     "strata/C0/products/0,0: expected a str, got int"),
    (_set(["restrictions", "C0|C0,C1", "0"], [[1]]),
     "restrictions/C0|C0,C1/0: expected a str, got int"),
    (_set(["restrictions", "C0|C1"], {"0": [["1"]]}),
     "restrictions/C0|C1: the second stratum is not the first plus one "
     "label"),
    (_set(["gysin", "C0|C0"], {"0": [["-1"]]}),
     "gysin/C0|C0: C0 is in the stratum"),
    (_set(["restrictions", "C0|C0,C1", " 0"], [["1"]]),
     "restrictions/C0|C0,C1/ 0: expected an integer key, got ' 0'"),
    (_set(["gysin", "C0|C1", "+0"], [["-1"]]),
     "gysin/C0|C1/+0: expected an integer key, got '+0'"),
    (_set(["strata", "C0", "products", "02,0"], [["1"]]),
     "strata/C0/products/02,0: expected an integer key, got '02'"),
    (_alias("strata", "C1,C0", "C0,C1"),
     "strata/C1,C0: names the same stratum as C0,C1"),
    (_alias("strata", "C0,C0", "C0"), "strata/C0,C0: label 'C0' repeated"),
    (_alias("restrictions", "C0|C1,C0", "C0|C0,C1"),
     "restrictions/C0|C1,C0: names the same restriction as C0|C0,C1"),
    (_alias("restrictions", "C0|C0,C1,C1", "C0|C0,C1"),
     "restrictions/C0|C0,C1,C1: label 'C1' repeated"),
    (_alias("gysin", "C0,C0|C1", "C0|C1"),
     "gysin/C0,C0|C1: label 'C0' repeated"),
], ids=["bad-rational", "zero-denominator", "dims-not-a-list",
        "odd-degree-dims", "unknown-stratum", "gysin-key-without-bar",
        "duplicate-component", "no-components", "hodge-tate-string",
        "hodge-tate-false", "n-bool", "float-rational", "int-rational",
        "int-product-entry", "int-restriction-entry",
        "restriction-not-a-cover", "gysin-label-in-stratum",
        "degree-key-with-space", "degree-key-with-plus",
        "product-key-with-zero", "stratum-key-reordered",
        "stratum-key-repeated-label", "restriction-key-reordered",
        "restriction-key-repeated-label", "gysin-key-repeated-label"])
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


def _no_restrictions(data):
    data["restrictions"] = {}


def _two_long_traces(data):
    for key in ("C0,C1", "C2,C3"):
        data["strata"][key]["trace"] = ["1", "0"]


@pytest.mark.parametrize("mutate, command, message", [
    (_no_restrictions, "validate",
     "missing restriction ['C0'] -> ['C0', 'C1']"),
    (_two_long_traces, "mhs", "trace length mismatch at ['C0', 'C1']"),
], ids=["no-restrictions", "two-long-traces"])
def test_input_with_two_faults_names_the_first_under_any_hash_seed(
        tmp_path, monkeypatch, mutate, command, message):
    """Of two faults, the error names the first in nerve order, the
    same one whatever order the string hashes give to sets."""
    data = json.loads(strata.dumps(strata.fixture_cycle_of_p1(5)))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for seed in ("1", "2", "3"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = _run_python([], ["-m", "limhodge.cli", command, str(path)],
                           tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, "error: %s\n" % message, ""), seed


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_fixture_with_bad_size_exits_1(tmp_path, flags):
    for argv, message in (
            (["cycle", "--components", "2"],
             "error: --components 2: need at least 3 components\n"),
            (["product", "--components", "1"],
             "error: --components 1: need at least 3 components\n"),
            (["projective", "--dim", "0"],
             "error: --dim 0: need dimension at least 1\n")):
        proc = _run_python(flags, ["-m", "limhodge.cli", "fixture"] + argv,
                           tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, message, ""), argv
    assert not list(tmp_path.iterdir())


def _usage_error(argv, capsys):
    """(exit code, stdout, stderr) of a command line that argparse
    rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_usage_errors_exit_1(tmp_path, capsys):
    """A usage error is an input error, exit 1, not the exit 2 of a
    failed theorem check; `--help` still exits 0."""
    path = write_cycle3(tmp_path)
    for argv, message in (
            (["mhs"], "the following arguments are required: path"),
            (["validate", path, "--bogus"],
             "unrecognized arguments: --bogus")):
        code, out, err = _usage_error(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage: limhodge "), err
        assert err.endswith(": error: %s\n" % message), err
    code, out, err = _usage_error(["validate", "--help"], capsys)
    assert (code, err) == (0, "") and out.startswith("usage: ")


def test_parser_is_built_once(tmp_path, capsys):
    """One parser serves every command line of a process, and a usage
    error leaves it fit for the next call."""
    assert build_parser() is build_parser()
    path = write_cycle3(tmp_path)
    for _ in range(2):
        code, out, err = _usage_error(["validate", path, "--bogus"], capsys)
        assert (code, out) == (1, "") and err.startswith("usage: limhodge ")
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.endswith(" failed\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_lefschetz_that_does_not_descend_exits_1(tmp_path, flags):
    """An ample class that does not restrict makes l no chain map on
    E1, and l on E2 would depend on how a basis is completed: `mhs` and
    `polarize` exit 1 and name the cell. `validate` names the faulty
    restriction."""
    data = json.loads(strata.dumps(strata.fixture_product_with_p1(
        strata.fixture_cycle_of_p1(3))))
    data["strata"]["C1,C2"]["ample"][0] = "0"
    (tmp_path / "ample.json").write_text(json.dumps(data))
    for command in ("mhs", "polarize"):
        proc = _run_python(flags, ["-m", "limhodge.cli", command,
                                   "ample.json"], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "error: l does not descend to E2 from m=1,q=1: d1 of its "
            "image has entry (1,0) = 1; run validate on the input\n", "")
    proc = _run_python(flags, ["-m", "limhodge.cli", "validate",
                               "ample.json"], tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "FAIL ample-restriction C1->C1,C2: restricted ample class " \
        "differs" in proc.stdout.splitlines()


# The flags each command reads besides its positionals, --format and -o.
ACCEPTED = {
    "validate": [],
    "e1": ["--dump", "--page"],
    "e2": ["--page"],
    "mhs": ["--dump"],
    "polarize": ["--strict"],
    "compare": [],
    "fixture cycle": ["--components"],
    "fixture projective": ["--dim"],
    "fixture product": ["--components"],
}


def _leaf_parsers(parser, prefix=()):
    """(command words, parser) of every parser without subcommands."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, prefix + (name,))


def test_each_command_accepts_only_the_flags_it_reads(
        tmp_path, capsys, monkeypatch):
    leaves = dict(_leaf_parsers(build_parser()))
    common = ["--format", "--help", "--output", "-h", "-o"]
    assert {" ".join(words): sorted(opt for a in p._actions
                                    for opt in a.option_strings)
            for words, p in leaves.items()} == \
        {name: sorted(common + flags) for name, flags in ACCEPTED.items()}
    # Settable values: each command's arguments, the fixture kind and
    # one size flag, --format and -o shared by the fixture kinds.
    settable = {(words[0], a.dest) for words, p in leaves.items()
                for a in p._actions if a.dest != "help"}
    assert len(settable | {("fixture", "kind")}) == 27
    monkeypatch.chdir(tmp_path)
    path = write_cycle3(tmp_path)
    for argv in (["validate", path, "--strict"],
                 ["validate", path, "--dump"],
                 ["mhs", path, "--strict"],
                 ["polarize", path, "--dump"],
                 ["compare", path, "--strict"],
                 ["compare", path, "--dump"],
                 ["e1", path, "--strict"],
                 ["e2", path, "--strict"],
                 ["e2", path, "--dump"],
                 ["fixture", "projective", "--components", "3"],
                 ["fixture", "cycle", "--dim", "2"],
                 ["fixture", "product", "--dim", "2"]):
        code, out, err = _usage_error(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.endswith(": error: unrecognized arguments: %s\n"
                            % " ".join(argv[2:])), err
    assert os.listdir(tmp_path) == ["cycle3.json"]


def test_readme_command_lines_parse():
    """Every `limhodge` line of README's command-line block parses, and
    together they show every command."""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line\n", 1)[1]
    lines = block.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    assert lines and all(line.startswith("limhodge ") for line in lines)
    parsed = [build_parser().parse_args(shlex.split(line)[1:])
              for line in lines]
    assert {args.command for args in parsed} == set(cli.COMMANDS) | \
        {"fixture"}


def test_readme_library_example_prints_its_comments():
    """README's python block runs, and each print whose comment is a
    Python literal prints exactly that text: dict order included."""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Library use\n", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments)
    checked = 0
    for got, comment in zip(printed, comments):
        try:
            ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue
        assert got == comment
        checked += 1
    assert checked == 2


def _source_trees():
    """(file name, syntax tree) of every module of the package."""
    src = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_assert_in_source():
    """`python -O` strips asserts, so no check may rest on one."""
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in _source_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_import_in_source():
    """Every name a module imports is used in that module."""
    found = []
    for name, tree in _source_trees():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += ["%s:%d %s" % (name, line, bound)
                  for bound, line in sorted(imported.items())
                  if bound not in used]
    assert found == []


def _defaulted_parameters():
    """(function name, parameter, position) of every parameter with a
    default of a function in the package, the position None for a
    keyword-only one. A method's position does not count its self or
    cls, and the name of an __init__ is its class's, which is what a
    call names."""
    for _, tree in _source_trees():
        methods = {id(f): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for f in cls.body}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            owner = methods.get(id(f))
            fname = owner if f.name == "__init__" else f.name
            args = f.args.args
            for i in range(len(args) - len(f.args.defaults), len(args)):
                yield fname, args[i].arg, i - (owner is not None)
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    yield fname, arg.arg, None


def _passed_parameters():
    """(called name, keyword or position) of every argument of every
    call in the package and its tests; "*" for an unpacked one."""
    here = os.path.dirname(__file__)
    trees = [tree for _, tree in _source_trees()]
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name)) as fh:
                trees.append(ast.parse(fh.read(), name))
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            called = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            for i, arg in enumerate(call.args):
                yield called, "*" if isinstance(arg, ast.Starred) else i
            for kw in call.keywords:
                yield called, kw.arg or "*"


def test_every_default_is_overridden_somewhere():
    """A parameter with a default that no call sets is a knob nobody
    turns: every defaulted parameter of a package function is passed,
    by keyword or by position, by some call in the package or its
    tests. Calls are matched by name."""
    passed = set(_passed_parameters())
    found = ["%s(%s)" % (fname, param)
             for fname, param, pos in _defaulted_parameters()
             if not {(fname, param), (fname, pos), (fname, "*")} & passed]
    assert found == []


def test_no_matrix_entry_store_outside_exactlin():
    """Only `exactlin` writes a matrix entry by its index: every other
    module builds a matrix from blocks, with `kron` and
    `Matrix.add_block`. Such a write is a store to a bare pair
    subscript, `m[i, j] = x` or `m[i, j] += x`; a dict keyed by a pair
    writes its key in parentheses, `d[(i, j)] = x`, which is allowed."""
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in _source_trees() if name != "exactlin.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Subscript)
             and isinstance(node.ctx, ast.Store)
             and isinstance(node.slice, ast.Tuple) and node.slice.elts
             and node.slice.col_offset == node.slice.elts[0].col_offset]
    assert found == []


def test_no_dense_view_outside_exactlin():
    """Matrices are read through their sparse rows, `m[i, j]` or
    `to_lists`; the dense view `.a` is for tests and tools only."""
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in _source_trees() if name != "exactlin.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "a"]
    assert found == []


def test_pages_differ_by_subclass_not_by_variant():
    """No module branches on a page's `variant` string, and no subclass
    of E1Page overrides `d1`: the traced benchmark times E1Page.d1, and
    an override would make that metric read 0."""
    found = []
    pages = {"E1Page"}
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                sides = [node.left] + node.comparators
                if any(isinstance(x, ast.Attribute) and x.attr == "variant"
                       for x in sides) and any(
                           isinstance(x, ast.Constant)
                           and isinstance(x.value, str) for x in sides):
                    found.append("%s:%d variant" % (name, node.lineno))
            elif isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id in pages
                    for b in node.bases):
                pages.add(node.name)
                found += ["%s:%d d1" % (name, f.lineno) for f in node.body
                          if isinstance(f, ast.FunctionDef) and f.name == "d1"]
    assert pages >= {"PageA", "PageK"}
    assert found == []


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_asymmetric_primitive_form_fails_its_check(tmp_path, flags):
    """A product table that makes a primitive form asymmetric fails the
    positivity checks with the entry that breaks symmetry as witness,
    where `is_positive_definite` would raise."""
    datum = strata.fixture_product_with_p1(strata.fixture_product_with_p1(
        strata.fixture_cycle_of_p1(3)))
    data = json.loads(strata.dumps(datum))
    data["strata"]["C0"]["products"]["2,2"][0][1] = "2"
    (tmp_path / "asym.json").write_text(json.dumps(data))
    for command, code, failures in (
            ("validate", 1, [
                "FAIL ring-axioms C0: associativity fails at (2,2,2)",
                "FAIL hodge-riemann C0: primitive form not symmetric in "
                "degree 2: entry (0,1) = 1",
                "FAIL projection-formula C0|C1: projection formula fails "
                "at (0,2)",
                "FAIL projection-formula C0|C2: projection formula fails "
                "at (0,2)",
                "48 checks, 4 failed"]),
            ("polarize", 0, [
                "FAIL primitive-symmetric P_0 at q=2: form not symmetric: "
                "entry (0,1) = 1/3",
                "FAIL HL-positivity P_0 at q=2: form not symmetric: "
                "entry (0,1) = 1/3",
                "77 checks, 2 failed"])):
        proc = _run_python(flags, ["-m", "limhodge.cli", command,
                                   "asym.json"], tmp_path)
        assert (proc.returncode, proc.stderr) == (code, ""), proc.stderr
        assert [line for line in proc.stdout.splitlines()
                if not line.startswith("ok ")] == failures


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_d_squared_error_names_its_degree(tmp_path, flags):
    """Doubling one restriction breaks d^2 = 0 in the E1 columns: the
    consistency error prints its degree as a number, not a tuple."""
    data = json.loads(strata.dumps(strata.fixture_product_with_p1(
        strata.fixture_cycle_of_p1(3))))
    maps = data["restrictions"]["C0|C0,C1"]
    for deg, table in maps.items():
        maps[deg] = [[str(2 * Fraction(x)) for x in row] for row in table]
    (tmp_path / "d2.json").write_text(json.dumps(data))
    proc = _run_python(flags, ["-m", "limhodge.cli", "e2", "--page", "both",
                               "d2.json"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "error: internal consistency failure: d^2 != 0 at degree -2\n",
        "")


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


def test_json_reports_are_json_dumps_bytes(tmp_path):
    """The one-pass JSON writer gives json.dumps(indent=1,
    sort_keys=True) byte for byte: for every command on every
    fixtures() input, on the same inputs with a restriction changed,
    whose checks fail, on error reports, and on the fixture command."""
    paths = []
    for i, datum in enumerate(fixtures()):
        data = json.loads(strata.dumps(datum))
        paths.append(tmp_path / ("f%d.json" % i))
        paths[-1].write_text(strata.dumps(datum))
        if data["restrictions"]:
            data["restrictions"][min(data["restrictions"])]["0"][0][0] = "2"
            paths.append(tmp_path / ("bad%d.json" % i))
            paths[-1].write_text(json.dumps(data))
    (tmp_path / "broken.json").write_text("{not json")
    paths += [tmp_path / "broken.json", tmp_path / "missing.json"]
    argvs = [PINNED_ARGS.get(command, [command]) + [str(path)]
             for path in paths for command in cli.COMMANDS]
    argvs += [["fixture", kind, fixture.flag, str(size), "-o",
               str(tmp_path / "fixture.json")]
              for kind, fixture in cli.FIXTURES.items() for size in (0, 3)]
    codes = set()
    for argv in argvs:
        code, result = run(_args(*argv))
        codes.add(code)
        assert report_render(result, "json") == json.dumps(
            result, indent=1, sort_keys=True) + "\n", argv
    assert codes == {0, 1, 2, 3}
