"""A pinned slice of the byte-identity sweep: the reports of every
single-entry mutation of cycle(3), under five commands, hash to one
digest.  A change that alters any report, exit code included, on valid
or invalid input, changes the digest."""

import contextlib
import copy
import hashlib
import io
import json
from fractions import Fraction

from limhodge import cli, strata

COMMANDS = {
    "validate": ["validate"],
    "e2": ["e2", "--page", "both"],
    "mhs": ["mhs", "--dump"],
    "polarize": ["polarize"],
    "compare": ["compare"],
}

# sha256 of _manifest's lines: 66 inputs, 330 cases.  A change that
# means to alter a report pins the new digest and says why.
DIGEST = "4fea4c27add5d81ca1803c7e2bb387b37572fa2c5178cf77a7737e1ee5338ea4"


def _entries(data):
    """The JSON path of every rational entry of a strata file: product
    tables, traces, ample classes, restrictions and Gysin maps."""
    for key, stratum in data["strata"].items():
        for ij, rows in stratum["products"].items():
            for r, row in enumerate(rows):
                for c in range(len(row)):
                    yield ("strata", key, "products", ij, r, c)
        for section in ("trace", "ample"):
            for i in range(len(stratum[section])):
                yield ("strata", key, section, i)
    for section in ("restrictions", "gysin"):
        for key, mats in data[section].items():
            for deg, rows in mats.items():
                for r, row in enumerate(rows):
                    for c in range(len(row)):
                        yield (section, key, deg, r, c)


def _mutations(data):
    """(name, data) for each entry raised by 1 and each set to 0."""
    for path in _entries(data):
        for tag, change in (("+1", lambda x: str(Fraction(x) + 1)),
                            ("=0", lambda x: "0")):
            mutant = copy.deepcopy(data)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = change(parent[path[-1]])
            yield "/".join(map(str, path)) + tag, mutant


def _manifest(directory):
    """One line per case: its name, exit code and sha256 of stdout.
    The inputs are written to `directory`, the current directory, so
    that each report names its input the same way on every run."""
    data = json.loads(strata.dumps(strata.fixture_cycle_of_p1(3)))
    lines = []
    for i, (name, mutant) in enumerate(_mutations(data)):
        fname = "m%d.json" % i
        (directory / fname).write_text(json.dumps(mutant))
        for command, argv in COMMANDS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + [fname, "--format", "json"])
            lines.append("%s %s %d %s" % (
                name, command, code,
                hashlib.sha256(out.getvalue().encode()).hexdigest()))
    return lines


def test_cycle3_mutation_reports_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _manifest(tmp_path)
    assert len(lines) == 66 * len(COMMANDS)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST
