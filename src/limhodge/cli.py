"""Command-line front end: load and validate strata data, run the
limit mixed Hodge structure pipeline, emit deterministic reports,
generate fixtures.

Each command is one row of COMMANDS: its handler, the flags it reads
besides `path`, `--format` and `-o`, and its table renderer.  Each
fixture kind is one row of FIXTURES.

Exit codes: 0 success, 1 input, usage or validation error, 2
theorem-check failure, 3 I/O error.
"""

import argparse
import functools
import sys
from collections import namedtuple

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


# Handlers: handler(datum, args, result) fills the result dict, whose
# "command" and "input" are already set, and returns the exit code.

def _pages(args, datum):
    out = []
    if args.page in ("A", "both"):
        out.append(build_e1_A(datum))
    if args.page in ("K", "both"):
        out.append(build_e1_K(datum))
    return out


def _cmd_validate(datum, args, result):
    result["checks"] = strata.validate(datum)
    return 0 if strata.all_checks_pass(result["checks"]) else 1


def _cmd_e1(datum, args, result):
    result["pages"] = {}
    for page in _pages(args, datum):
        entry = {"cells": [{"m": m, "q": q, "dim": page.dim(m, q),
                            "d1_rank": rank(page.d1(m, q))}
                           for (m, q) in page.cell_keys()]}
        if isinstance(page, PageK):
            entry["m_max"] = page.m_max
        if args.dump:
            entry["d1"] = {"%d,%d" % c: page.d1(*c).to_json()
                           for c in page.cell_keys()}
        result["pages"][page.variant] = entry
    return 0


def _cmd_e2(datum, args, result):
    result["pages"] = {}
    for page in _pages(args, datum):
        cells = []
        for (m, q) in page.cell_keys():
            if not page.trusted(m):
                continue
            dim = page.betti(m, q)
            if dim:
                cells.append({"m": m, "q": q, "dim": dim})
        result["pages"][page.variant] = {"cells": cells}
    return 0


def _cmd_mhs(datum, args, result):
    lim = compute_limit(datum)
    n = lim.n
    coh = {}
    for q in range(0, 2 * n + 1):
        if lim.h(q) == 0:
            continue
        entry = {
            "dim": lim.h(q),
            "weights": {str(w): d for w, d in lim.weights[q].items()},
            "hodge": {rat_to_str(p): d for p, d in lim.hodge[q].items()},
            "N_ranks": [sum(rank(lim.n_power(m, q, i))
                            for (m, qq) in lim.e2 if qq == q)
                        for i in range(1, q + 1)],
        }
        if q <= n:
            entry["lefschetz_rank"] = sum(
                rank(lim.l_power(m, q, n - q))
                for (m, qq) in lim.e2 if qq == q)
        coh[str(q)] = entry
    result.update(n=n, cohomology=coh, checks=lim.verdicts,
                  trace=[rat_to_str(x) for x in lim.tr.row(0)]
                  if lim.tr.cols else [])
    if args.dump:
        result["N"] = {"%d,%d" % c: m.to_json() for c, m in lim.N.items()}
        result["pairing"] = {"%d,%d" % c: m.to_json()
                             for c, m in lim.Q.items()}
    return 0 if strata.all_checks_pass(lim.verdicts) else 2


def _cmd_polarize(datum, args, result):
    lim = compute_limit(datum)
    checks = lim.verdicts + pairing(lim) + verify_polarized(lim)
    result["checks"] = checks
    return 2 if args.strict and not strata.all_checks_pass(checks) else 0


def _cmd_compare(datum, args, result):
    rep, dims = compare_pages(datum)
    result["checks"] = rep
    result["cells"] = [{"m": m, "q": q, "dimA": a, "dimK": k}
                       for (m, q), (a, k) in sorted(dims.items())]
    return 0 if strata.all_checks_pass(rep) else 2


# Table renderers: the lines of a result dict without an error.

def _label(check):
    base = LABELS.get(check["check"], check["check"])
    return "%s %s" % (base, check["where"])


def _table_checks(result):
    lines = []
    failed = 0
    for c in result["checks"]:
        if c["ok"]:
            lines.append("ok   %s" % _label(c))
        else:
            failed += 1
            lines.append("FAIL %s: %s" % (_label(c), c["witness"]))
    lines.append("%d checks, %d failed" % (len(result["checks"]), failed))
    return lines


def _table_compare(result):
    return ["E2 (m=%d,q=%d)  A:%d K:%d"
            % (cell["m"], cell["q"], cell["dimA"], cell["dimK"])
            for cell in result["cells"]] + _table_checks(result)


def _table_pages(result):
    lines = []
    for variant in sorted(result["pages"]):
        lines.append("page %s" % variant)
        for cell in result["pages"][variant]["cells"]:
            row = "  (m=%d,q=%d) dim=%d" % (cell["m"], cell["q"],
                                            cell["dim"])
            if "d1_rank" in cell:
                row += " d1rank=%d" % cell["d1_rank"]
            lines.append(row)
    return lines


def _table_mhs(result):
    lines = ["n=%d" % result["n"]]
    for q in sorted(result["cohomology"], key=int):
        entry = result["cohomology"][q]
        ws = " ".join("w%s:%d" % (w, d)
                      for w, d in sorted(entry["weights"].items(),
                                         key=lambda kv: int(kv[0])))
        lines.append("H^%s  %s" % (q, ws))
    return lines + _table_checks(result)


PAGE = ("--page", {"choices": ("A", "K", "both"), "default": "A",
                   "help": "E1 model: quotient (A), Čech (K) or both"})
DUMP = ("--dump", {"action": "store_true",
                   "help": "include matrices in JSON output"})
STRICT = ("--strict", {"action": "store_true",
                       "help": "exit 2 on any failed verdict"})

Command = namedtuple("Command", "handler flags table")

COMMANDS = {
    "validate": Command(_cmd_validate, (), _table_checks),
    "e1": Command(_cmd_e1, (PAGE, DUMP), _table_pages),
    "e2": Command(_cmd_e2, (PAGE,), _table_pages),
    "mhs": Command(_cmd_mhs, (DUMP,), _table_mhs),
    "polarize": Command(_cmd_polarize, (STRICT,), _table_checks),
    "compare": Command(_cmd_compare, (), _table_compare),
}

# A fixture kind: its builder, its one size flag, that flag's default
# and the file name written without -o.
Fixture = namedtuple("Fixture", "build flag default name")

FIXTURES = {
    "cycle": Fixture(strata.fixture_cycle_of_p1, "--components", 3,
                     "cycle%d.json"),
    "projective": Fixture(strata.fixture_projective_space, "--dim", 2,
                          "p%d.json"),
    "product": Fixture(lambda n: strata.fixture_product_with_p1(
        strata.fixture_cycle_of_p1(n)), "--components", 3,
        "cycle%dxp1.json"),
}


def _write_fixture(args):
    """Write the fixture of `args.kind` and size `args.size`; returns
    the path written."""
    fixture = FIXTURES[args.kind]
    try:
        datum = fixture.build(args.size)
    except ValueError as e:
        raise strata.StrataError("%s %d: %s" % (fixture.flag, args.size,
                                                e)) from None
    path = args.output or fixture.name % args.size
    strata.save(datum, path)
    return path


def run(args):
    """Execute one parsed command line, a namespace of `build_parser`;
    returns (exit code, result dict)."""
    try:
        if args.command == "fixture":
            return 0, {"command": "fixture", "written": _write_fixture(args)}
        result = {"command": args.command, "input": args.path}
        datum = strata.load(args.path)
        return COMMANDS[args.command].handler(datum, args, result), result
    except OSError as e:
        return 3, {"command": args.command, "error": str(e)}
    except strata.StrataError as e:
        return 1, {"command": args.command, "error": str(e)}
    except AssertionError as e:
        return 2, {"command": args.command,
                   "error": "internal consistency failure: %s" % (e,)}


def report_render(result, fmt):
    """Render a result dict as schema-stable JSON or a plain table."""
    if fmt == "json":
        return strata.json_text(result) + "\n"
    if "error" in result:
        lines = ["error: %s" % result["error"]]
    elif result["command"] == "fixture":
        lines = ["wrote %s" % result["written"]]
    else:
        lines = COMMANDS[result["command"]].table(result)
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1, not argparse's 2, which
    is the code of a failed theorem check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser():
    """The parser of every command line, built on first use and then
    shared: parsing does not change it."""
    parser = _Parser(
        prog="limhodge",
        description="limit mixed Hodge structures of normal crossing "
                    "degenerations, in exact arithmetic")
    # -h, --format and -o of every command and fixture kind
    common = argparse.ArgumentParser()
    common.add_argument("--format", dest="fmt", choices=("json", "table"),
                        default="table")
    common.add_argument("-o", "--output", default=None, help="output file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], add_help=False)
        p.add_argument("path", help="strata JSON file")
        for flag, options in command.flags:
            p.add_argument(flag, **options)
    kinds = sub.add_parser("fixture").add_subparsers(dest="kind",
                                                     required=True)
    for kind, fixture in FIXTURES.items():
        p = kinds.add_parser(kind, parents=[common], add_help=False)
        p.add_argument(fixture.flag, dest="size", type=int,
                       default=fixture.default, help="default %(default)s")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    code, result = run(args)
    text = report_render(result, args.fmt)
    if args.command != "fixture" and args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            sys.stderr.write("error: %s\n" % e)
            return 3
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
