"""Command-line front end: load and validate strata data, run the
limit mixed Hodge structure pipeline, emit deterministic reports,
generate fixtures.

Exit codes: 0 success, 1 input or validation error, 2 theorem-check
failure, 3 I/O error.
"""

import argparse
import json
import sys

from .exactlin import rank, rat_to_str
from . import strata
from .limitpage import (
    build_e1_A, build_e1_K, compute_limit, pairing, verify_polarized,
    compare_pages, PageK,
)


LABELS = {
    "theta-d1": "Θ∘d1",
    "theta-phi-trace": "Θ∘φ=tr",
    "phi-chain-map": "φ∘d1=d1∘φ",
    "phi-N-commute": "φ∘N=N∘φ",
    "phi-l-commute": "φ∘l=l∘φ",
    "d1-squared-A": "d1∘d1 (A)",
    "d1-squared-K": "d1∘d1 (K)",
}


class RunConfig:
    """One parsed invocation."""

    def __init__(self, command, path=None, page="A", fmt="table",
                 strict=False, dump=False, output=None, kind=None,
                 components=3, dim=2):
        if command not in _HANDLERS:
            raise ValueError("unknown command %r" % (command,))
        self.command = command
        self.path = path
        self.page = page
        self.fmt = fmt
        self.strict = strict
        self.dump = dump
        self.output = output
        self.kind = kind
        self.components = components
        self.dim = dim


def _pages(config, datum):
    out = []
    if config.page in ("A", "both"):
        out.append(build_e1_A(datum))
    if config.page in ("K", "both"):
        out.append(build_e1_K(datum))
    return out


def _cmd_validate(config):
    datum = strata.load(config.path)
    rep = strata.validate(datum)
    result = {"command": "validate", "input": config.path,
              "checks": rep}
    return (0 if strata.all_checks_pass(rep) else 1), result


def _cmd_e1(config):
    datum = strata.load(config.path)
    result = {"command": "e1", "input": config.path, "pages": {}}
    for page in _pages(config, datum):
        cells = []
        dump = {}
        for (m, q) in page.cell_keys():
            cells.append({"m": m, "q": q, "dim": page.dim(m, q),
                          "d1_rank": rank(page.d1(m, q))})
            if config.dump:
                dump["%d,%d" % (m, q)] = page.d1(m, q).to_json()
        entry = {"cells": cells}
        if isinstance(page, PageK):
            entry["m_max"] = page.m_max
        if config.dump:
            entry["d1"] = dump
        result["pages"][page.variant] = entry
    return 0, result


def _cmd_e2(config):
    datum = strata.load(config.path)
    result = {"command": "e2", "input": config.path, "pages": {}}
    for page in _pages(config, datum):
        cells = []
        for (m, q) in page.cell_keys():
            if not page.trusted(m):
                continue
            dim, _, _ = page.cohomology(m, q)
            if dim:
                cells.append({"m": m, "q": q, "dim": dim})
        result["pages"][page.variant] = {"cells": cells}
    return 0, result


def _cmd_mhs(config):
    datum = strata.load(config.path)
    lim = compute_limit(datum)
    n = lim.n
    coh = {}
    for q in range(0, 2 * n + 1):
        if lim.h(q) == 0:
            continue
        entry = {
            "dim": lim.h(q),
            "weights": {str(w): d
                        for w, d in sorted(lim.weights[q].items())},
            "hodge": {rat_to_str(p): d
                      for p, d in sorted(lim.hodge[q].items())},
            "N_ranks": [sum(rank(lim.n_power(m, q, i))
                            for (m, qq) in lim.e2 if qq == q)
                        for i in range(1, q + 1)],
        }
        if q <= n:
            entry["lefschetz_rank"] = sum(
                rank(lim.l_power(m, q, n - q))
                for (m, qq) in lim.e2 if qq == q)
        coh[str(q)] = entry
    result = {"command": "mhs", "input": config.path, "n": n,
              "cohomology": coh,
              "trace": [rat_to_str(x) for x in lim.tr.row(0)]
              if lim.tr.cols else [],
              "checks": lim.verdicts}
    if config.dump:
        result["N"] = {"%d,%d" % c: m.to_json()
                       for c, m in sorted(lim.N.items())}
        result["pairing"] = {"%d,%d" % c: m.to_json()
                             for c, m in sorted(lim.Q.items())}
    return (0 if strata.all_checks_pass(lim.verdicts) else 2), result


def _cmd_polarize(config):
    datum = strata.load(config.path)
    lim = compute_limit(datum)
    checks = lim.verdicts + pairing(lim) + verify_polarized(lim)
    result = {"command": "polarize", "input": config.path,
              "checks": checks}
    ok = strata.all_checks_pass(checks)
    return (0 if ok or not config.strict else 2), result


def _cmd_compare(config):
    datum = strata.load(config.path)
    rep, dims = compare_pages(datum)
    result = {"command": "compare", "input": config.path,
              "checks": rep,
              "cells": [{"m": m, "q": q, "dimA": a, "dimK": k}
                        for (m, q), (a, k) in sorted(dims.items())
                        if (a, k) != (0, 0)]}
    return (0 if strata.all_checks_pass(rep) else 2), result


def _cmd_fixture(config):
    fixtures = {
        "cycle": (strata.fixture_cycle_of_p1, "cycle%d.json"),
        "projective": (strata.fixture_projective_space, "p%d.json"),
        "product": (lambda n: strata.fixture_product_with_p1(
            strata.fixture_cycle_of_p1(n)), "cycle%dxp1.json"),
    }
    if config.kind not in fixtures:
        raise strata.StrataError("unknown fixture %r" % config.kind)
    build, name = fixtures[config.kind]
    flag, size = ("--dim", config.dim) if config.kind == "projective" \
        else ("--components", config.components)
    try:
        datum = build(size)
    except ValueError as e:
        raise strata.StrataError("%s %d: %s" % (flag, size, e)) from None
    path = config.output or name % size
    strata.save(datum, path)
    return 0, {"command": "fixture", "written": path}


_HANDLERS = {
    "validate": _cmd_validate,
    "e1": _cmd_e1,
    "e2": _cmd_e2,
    "mhs": _cmd_mhs,
    "polarize": _cmd_polarize,
    "compare": _cmd_compare,
    "fixture": _cmd_fixture,
}


def run(config):
    """Execute one command; returns (exit code, result dict)."""
    try:
        return _HANDLERS[config.command](config)
    except OSError as e:
        return 3, {"command": config.command, "error": str(e)}
    except strata.StrataError as e:
        return 1, {"command": config.command, "error": str(e)}
    except AssertionError as e:
        return 2, {"command": config.command,
                   "error": "internal consistency failure: %s" % (e,)}


def _label(check):
    base = LABELS.get(check["check"], check["check"])
    return "%s %s" % (base, check["where"])


def _render_checks(lines, checks):
    failed = 0
    for c in checks:
        if c["ok"]:
            lines.append("ok   %s" % _label(c))
        else:
            failed += 1
            lines.append("FAIL %s: %s" % (_label(c), c["witness"]))
    lines.append("%d checks, %d failed" % (len(checks), failed))


def report_render(result, fmt):
    """Render a result dict as schema-stable JSON or a plain table."""
    if fmt == "json":
        return json.dumps(result, indent=1, sort_keys=True) + "\n"
    lines = []
    if "error" in result:
        lines.append("error: %s" % result["error"])
    elif result["command"] in ("validate", "polarize"):
        _render_checks(lines, result["checks"])
    elif result["command"] == "compare":
        for cell in result["cells"]:
            lines.append("E2 (m=%d,q=%d)  A:%d K:%d"
                         % (cell["m"], cell["q"], cell["dimA"],
                            cell["dimK"]))
        _render_checks(lines, result["checks"])
    elif result["command"] in ("e1", "e2"):
        for variant in sorted(result["pages"]):
            lines.append("page %s" % variant)
            for cell in result["pages"][variant]["cells"]:
                row = "  (m=%d,q=%d) dim=%d" % (cell["m"], cell["q"],
                                                cell["dim"])
                if "d1_rank" in cell:
                    row += " d1rank=%d" % cell["d1_rank"]
                lines.append(row)
    elif result["command"] == "mhs":
        lines.append("n=%d" % result["n"])
        for q in sorted(result["cohomology"], key=int):
            entry = result["cohomology"][q]
            ws = " ".join("w%s:%d" % (w, d)
                          for w, d in sorted(entry["weights"].items(),
                                             key=lambda kv: int(kv[0])))
            lines.append("H^%s  %s" % (q, ws))
        _render_checks(lines, result["checks"])
    elif result["command"] == "fixture":
        lines.append("wrote %s" % result["written"])
    return "\n".join(lines) + "\n"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="limhodge",
        description="limit mixed Hodge structures of normal crossing "
                    "degenerations, in exact arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("path", help="strata JSON file")
        p.add_argument("--format", dest="fmt", choices=("json", "table"),
                       default="table")
        p.add_argument("--strict", action="store_true",
                       help="exit nonzero on any failed verdict")
        p.add_argument("--dump", action="store_true",
                       help="include matrices in JSON output")
        p.add_argument("-o", "--output", default=None,
                       help="write the report to a file")

    for name in ("validate", "mhs", "polarize", "compare"):
        common(sub.add_parser(name))
    for name in ("e1", "e2"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--page", choices=("A", "K", "both"),
                       default="A")
    p = sub.add_parser("fixture")
    p.add_argument("kind", choices=("cycle", "projective", "product"))
    p.add_argument("--components", type=int, default=3,
                   help="number of components of the cycle")
    p.add_argument("--dim", type=int, default=2,
                   help="dimension of the projective space")
    p.add_argument("--format", dest="fmt", choices=("json", "table"),
                   default="table")
    p.add_argument("-o", "--output", default=None)
    return parser


def main(argv=None):
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    code, result = run(config)
    text = report_render(result, config.fmt)
    if config.command != "fixture" and config.output:
        try:
            with open(config.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            sys.stderr.write("error: %s\n" % e)
            return 3
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
