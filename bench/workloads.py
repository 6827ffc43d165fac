"""The benchmark's workloads: seeded input files, the CLI commands run
on them, and the closed-form oracle for each input.

Every input is built from the library fixtures in `limhodge.strata`.
The seed only permutes the order of `components` (and re-normalizes
every stratum key to that order); the geometry, and so every
label-invariant result, is the same for every seed, while pivot order
and therefore the work of the elimination changes.
"""

import json
import random
from fractions import Fraction

# CLI arguments of each command, before the input path.  Every call
# also gets `--format json` so the gate can read the report.
COMMANDS = {
    "validate": ["validate"],
    "e1": ["e1", "--page", "both", "--dump"],
    "e2": ["e2", "--page", "both"],
    "mhs": ["mhs", "--dump"],
    "polarize": ["polarize", "--strict"],
    "compare": ["compare"],
}

# Commands whose time is an end-to-end metric: every workload runs them,
# so each metric exists (and is nonzero) on every workload.
COMMON = ("validate", "mhs", "polarize")


# Closed-form oracle.  A Hodge table maps a degree q to
# ({weight: dim}, [rank N^1, ..., rank N^q]) on H^q of the limit.

def cycle_table():
    """Cycle of P^1s: H^0 = w0, H^1 = w0 + w2 (N: w2 -> w0 iso), H^2 = w2."""
    return {0: ({0: 1}, []), 1: ({0: 1, 2: 1}, [1]), 2: ({2: 1}, [0, 0])}


def projective_table(n):
    """P^n: one class of weight 2k in degree 2k, N = 0."""
    return {2 * k: ({2 * k: 1}, [0] * (2 * k)) for k in range(n + 1)}


def times_p1(table):
    """Künneth product with P^1: H^q(X x P^1) = H^q(X) + H^{q-2}(X)(-1),
    so weights convolve with (q+2, w+2) and N acts factorwise."""
    out = {}
    for q, (weights, ranks) in table.items():
        for shift in (0, 2):
            w_out, r_out = out.setdefault(q + shift, ({}, [0] * (q + shift)))
            for w, d in weights.items():
                w_out[w + shift] = w_out.get(w + shift, 0) + d
            for i, r in enumerate(ranks):
                r_out[i] += r
    return out


class Input:
    """One input file: a library fixture, multiplied `products` times
    by P^1, with the Hodge table the oracle expects of it."""

    def __init__(self, fixture, size, products=0):
        self.fixture = fixture
        self.size = size
        self.products = products
        stem = "cycle%d" if fixture == "cycle" else "p%d"
        self.fname = stem % size + "xp1" * products + ".json"

    def build(self):
        from limhodge import strata
        if self.fixture == "cycle":
            datum = strata.fixture_cycle_of_p1(self.size)
        else:
            datum = strata.fixture_projective_space(self.size)
        for _ in range(self.products):
            datum = strata.fixture_product_with_p1(datum)
        return datum

    def table(self):
        if self.fixture == "cycle":
            table = cycle_table()
        else:
            table = projective_table(self.size)
        for _ in range(self.products):
            table = times_p1(table)
        return table


class Workload:
    """Inputs and the commands run on each input, in pass order."""

    def __init__(self, name, inputs, commands):
        self.name = name
        self.inputs = inputs
        self.commands = commands

    def calls(self):
        """The (input file, command) pairs of one pass."""
        return [(inp.fname, cmd) for inp in self.inputs
                for cmd in self.commands]


WORKLOADS = {
    # Ring-axiom checks of a fourfold: dense Fraction matvec in Ring.mul
    # with little elimination.  An exactlin change should not move it.
    "fourfold-validate": Workload(
        "fourfold-validate", [Input("cycle", 3, products=3)],
        ["validate", "mhs", "polarize"]),
    # Every command on ten small inputs: elimination takes most of a
    # pass, in many small calls, so per-call set-up, loading and report
    # rendering also weigh.  An elimination change must show its gain here.
    "small-sweep": Workload(
        "small-sweep",
        [Input("projective", n) for n in range(1, 7)]
        + [Input("cycle", n) for n in range(3, 6)]
        + [Input("cycle", 3, products=1)],
        list(COMMANDS)),
}


def permuted_text(datum, rng):
    """The datum as strata JSON with `components` shuffled by rng and
    every stratum key re-joined in the new label order."""
    from limhodge import strata
    data = json.loads(strata.dumps(datum))
    labels = list(data["components"])
    rng.shuffle(labels)
    pos = {label: i for i, label in enumerate(labels)}

    def key(joined):
        return ",".join(sorted(joined.split(","), key=pos.__getitem__))

    data["components"] = labels
    data["strata"] = {key(k): v for k, v in data["strata"].items()}
    restrictions = {}
    for k, v in data["restrictions"].items():
        sigma, tau = k.split("|")
        restrictions["%s|%s" % (key(sigma), key(tau))] = v
    data["restrictions"] = restrictions
    gysin = {}
    for k, v in data["gysin"].items():
        sigma, nu = k.split("|")
        gysin["%s|%s" % (key(sigma), nu)] = v
    data["gysin"] = gysin
    return json.dumps(data, indent=1, sort_keys=True)


def write_inputs(workload, seed, directory):
    """Build each input of the workload, permute it by the seed and
    write it into directory under its file name."""
    for inp in workload.inputs:
        rng = random.Random("%d:%s" % (seed, inp.fname))
        with open(directory / inp.fname, "w") as fh:
            fh.write(permuted_text(inp.build(), rng))


def expected_cells(table):
    """E2 cells (m, q) -> dim implied by a Hodge table: the cell (m, q)
    is gr^W_{q+m} H^q."""
    return {(w - q, q): d
            for q, (weights, _) in table.items()
            for w, d in weights.items() if d}


def expected_cohomology(table):
    """The label-invariant part of an `mhs` report's cohomology."""
    out = {}
    for q, (weights, ranks) in table.items():
        hodge = {}
        for w, d in weights.items():
            p = str(Fraction(w, 2))
            hodge[p] = hodge.get(p, 0) + d
        out[str(q)] = {"weights": {str(w): d for w, d in weights.items()},
                       "hodge": hodge, "N_ranks": list(ranks)}
    return out
