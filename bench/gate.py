"""Output gate: decides whether one CLI call of the benchmark failed.

A call fails if its exit code is not 0, if any check in
its JSON report is not ok, if its label-invariant content differs from
the closed-form oracle, or, when digests are given, if the report bytes
differ from the recorded ones.
"""

import hashlib
import json

from workloads import expected_cells, expected_cohomology


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cells(rows, *dims):
    return {(c["m"], c["q"]): tuple(c[d] for d in dims) for c in rows}


def problems(command, table, code, text, want_digest=None):
    """Reasons the call failed; an empty list means it passed.

    command is a key of workloads.COMMANDS, table the input's Hodge
    table, code and text the call's exit code and report.
    """
    out = []
    if code != 0:
        out.append("exit code %r, expected 0" % (code,))
    if want_digest is not None and digest(text) != want_digest:
        out.append("report differs from the recorded digest")
    try:
        report = json.loads(text)
    except ValueError:
        return out + ["report is not JSON"]
    if "error" in report:
        return out + ["error: %s" % report["error"]]
    try:
        out += _content_problems(command, table, report)
    except (KeyError, TypeError, AttributeError) as e:
        out.append("report lacks %s" % e)
    return out


def _content_problems(command, table, report):
    out = []
    bad = [c for c in report.get("checks", ()) if not c["ok"]]
    if bad:
        out.append("check %s %s failed" % (bad[0]["check"], bad[0]["where"]))
    cells = expected_cells(table)
    if command == "mhs":
        got = {q: {k: entry[k] for k in ("weights", "hodge", "N_ranks")}
               for q, entry in report["cohomology"].items()}
        if got != expected_cohomology(table):
            out.append("weights, Hodge table or N ranks differ from oracle")
    elif command == "compare":
        want = {c: (d, d) for c, d in cells.items()}
        if _cells(report["cells"], "dimA", "dimK") != want:
            out.append("E2 cells differ from oracle or dimA != dimK")
    elif command == "e2":
        want = {c: (d,) for c, d in cells.items()}
        for page in ("A", "K"):
            if _cells(report["pages"][page]["cells"], "dim") != want:
                out.append("E2 cells of page %s differ from oracle" % page)
    return out
