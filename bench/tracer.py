"""Traced run: wraps the public functions of each limhodge layer from
outside the program, records spans in memory and turns them into the
per-layer metrics.

A span is [name id, start, end, parent span index]; spans of one pass
live in one list, in start order, so a parent always precedes its
children.  Work done by the hooks that compute counters (entry bit
sizes, page dimensions) is kept out of every span: span clocks read
`perf_counter() - skew`, and each hook adds its own duration to skew.
"""

import functools
import importlib
import statistics
from collections import Counter
from time import perf_counter

MODULES = ("exactlin", "cubical", "homalg", "strata", "limitpage", "cli")

# Wrapped callables per module; a dotted name is a method of a class.
# Module-level functions are also rebound in every module that did
# `from .module import name`, so those calls are counted too.
WRAPPED = {
    "exactlin": (
        "block_diag", "hstack", "vstack", "rref", "rank", "kernel",
        "image", "solve", "quotient", "inverse", "is_positive_definite",
        "determinant", "Matrix.__mul__", "Matrix.matvec",
        "Subspace.__init__", "Subspace.contains_vector",
        "Subspace.contains", "Subspace.coords", "Subspace.sum",
        "Subspace.intersect", "Subspace.image_under",
        "Subspace.preimage_under"),
    "cubical": ("chi", "wedge_insert_sign", "contract_sign"),
    "homalg": ("Complex.__init__", "Complex.cohomology"),
    "strata": ("Ring.mul", "validate", "loads"),
    "limitpage": (
        "build_e1_A", "build_e1_K", "E1Page.d1", "phi_e1",
        "compare_pages", "compute_limit", "pairing", "verify_polarized"),
    "cli": ("run", "report_render"),
}

# Elimination in exactlin: everything there but matrix arithmetic and
# stacking.  exactlin.elim.s is the time of its outermost calls.
NOT_ELIMINATION = ("exactlin.Matrix.__mul__", "exactlin.Matrix.matvec",
                   "exactlin.block_diag", "exactlin.hstack", "exactlin.vstack")

# Reported per-layer metrics read from spans: (metric, span, kind) with
# kind "calls", "s" (time of the outermost such calls) or "self_s".
SPAN_METRICS = [
    ("exactlin.rref.calls", "exactlin.rref", "calls"),
    ("exactlin.rref.self_s", "exactlin.rref", "self_s"),
    ("exactlin.rank.calls", "exactlin.rank", "calls"),
    ("exactlin.quotient.calls", "exactlin.quotient", "calls"),
    ("exactlin.quotient.s", "exactlin.quotient", "s"),
    ("exactlin.kernel.s", "exactlin.kernel", "s"),
    ("exactlin.inverse.s", "exactlin.inverse", "s"),
    ("exactlin.is_positive_definite.s", "exactlin.is_positive_definite",
     "s"),
    ("exactlin.Matrix.mul.calls", "exactlin.Matrix.__mul__", "calls"),
    ("exactlin.Matrix.mul.s", "exactlin.Matrix.__mul__", "s"),
    ("exactlin.Matrix.matvec.calls", "exactlin.Matrix.matvec", "calls"),
    ("exactlin.Matrix.matvec.s", "exactlin.Matrix.matvec", "s"),
    ("strata.Ring.mul.calls", "strata.Ring.mul", "calls"),
    ("strata.Ring.mul.s", "strata.Ring.mul", "s"),
    ("strata.validate.s", "strata.validate", "s"),
    ("strata.loads.s", "strata.loads", "s"),
    ("homalg.Complex.cohomology.calls", "homalg.Complex.cohomology",
     "calls"),
    ("homalg.Complex.cohomology.s", "homalg.Complex.cohomology", "s"),
    ("homalg.Complex.init.s", "homalg.Complex.__init__", "s"),
    ("limitpage.compute_limit.s", "limitpage.compute_limit", "s"),
    ("limitpage.pairing.s", "limitpage.pairing", "s"),
    ("limitpage.verify_polarized.s", "limitpage.verify_polarized", "s"),
    ("limitpage.build_e1_A.s", "limitpage.build_e1_A", "s"),
    ("limitpage.build_e1_K.s", "limitpage.build_e1_K", "s"),
    ("limitpage.E1Page.d1.s", "limitpage.E1Page.d1", "s"),
    ("limitpage.phi_e1.s", "limitpage.phi_e1", "s"),
    ("limitpage.compare_pages.s", "limitpage.compare_pages", "s"),
    ("cli.run.s", "cli.run", "s"),
    ("cli.report_render.s", "cli.report_render", "s"),
]

# Counters that must repeat exactly between two traced passes.
EXACT = ("exactlin.rref.calls", "exactlin.rref.cells",
         "strata.Ring.mul.calls", "limitpage.e1_dim.A",
         "limitpage.e1_dim.K", "cli.report_bytes")


def _rref_hook(counts, args, result):
    m = args[0]
    counts["exactlin.rref.cells"] += m.rows * m.cols
    bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in result[0].a for x in row), default=0)
    if bits > counts["exactlin.rref.max_bits"]:
        counts["exactlin.rref.max_bits"] = bits


def _page_hook(variant):
    def hook(counts, args, page):
        counts["limitpage.e1_dim." + variant] += sum(
            page.dim(*cell) for cell in page.cell_keys())
    return hook


def _validate_hook(counts, args, report):
    counts["strata.validate.checks"] += len(report)


def _render_hook(counts, args, text):
    counts["cli.report_bytes"] += len(text.encode("utf-8"))


HOOKS = {
    "exactlin.rref": _rref_hook,
    "limitpage.build_e1_A": _page_hook("A"),
    "limitpage.build_e1_K": _page_hook("K"),
    "strata.validate": _validate_hook,
    "cli.report_render": _render_hook,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans and
    counters of each traced pass in memory."""

    def __init__(self):
        self.names = ["%s.%s" % (mod, attr)
                      for mod, attrs in WRAPPED.items() for attr in attrs]
        self.passes = []        # per pass: (spans, counters, pass seconds)
        self.spans = []
        self.counts = Counter()
        self.skew = 0.0
        self._stack = []
        self._saved = []
        self._pass_skew = 0.0

    def _wrap(self, fn, nid):
        hook = HOOKS.get(self.names[nid])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter() - self.skew
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter() - self.skew
                stack.pop()
            if hook is not None:
                h0 = perf_counter()
                hook(self.counts, args, result)
                self.skew += perf_counter() - h0
            return result
        return traced

    def install(self):
        """Replace every callable in WRAPPED by its traced wrapper."""
        mods = {m: importlib.import_module("limhodge." + m) for m in MODULES}
        for nid, name in enumerate(self.names):
            mod, attr = name.split(".", 1)
            *path, last = attr.split(".")
            owner = mods[mod]
            for part in path:
                owner = getattr(owner, part)
            orig = vars(owner)[last]
            wrapper = self._wrap(orig, nid)
            targets = [owner]
            if not path:
                targets += [m for m in mods.values()
                            if m is not owner and vars(m).get(last) is orig]
            for target in targets:
                self._saved.append((target, last, orig))
                setattr(target, last, wrapper)

    def uninstall(self):
        for target, last, orig in reversed(self._saved):
            setattr(target, last, orig)
        self._saved = []

    def begin_pass(self):
        self.spans = []
        self.counts = Counter()
        self._pass_skew = self.skew

    def end_pass(self, seconds):
        """Close the pass; seconds is its wall time, from which the time
        spent in hooks is taken off."""
        self.passes.append((self.spans, self.counts,
                            seconds - (self.skew - self._pass_skew)))

    def pass_metrics(self, index):
        """Per-layer metrics of one traced pass."""
        spans, counts, seconds = self.passes[index]
        names = self.names
        group = ["elim" if n.startswith("exactlin.")
                 and n not in NOT_ELIMINATION else n.split(".", 1)[0]
                 for n in names]
        calls = Counter()
        total = Counter()
        self_s = Counter()
        outer = Counter()       # per group: time of calls not inside it
        outer_calls = Counter()
        for span in spans:
            nid, start, end, parent = span
            dur = end - start
            calls[nid] += 1
            self_s[nid] += dur
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
            same_name = same_group = False
            p = parent
            while p >= 0 and not same_name:
                pid = spans[p][0]
                same_name = pid == nid
                same_group = same_group or group[pid] == group[nid]
                p = spans[p][3]
            if not same_name:
                total[nid] += dur
            if not same_group:
                outer[group[nid]] += dur
                outer_calls[group[nid]] += 1
        ids = {n: i for i, n in enumerate(names)}
        kinds = {"calls": calls, "s": total, "self_s": self_s}
        out = {metric: kinds[kind][ids[span]]
               for metric, span, kind in SPAN_METRICS}
        out.update(counts)
        out["exactlin.elim.s"] = outer["elim"]
        out["exactlin.elim.share"] = 100.0 * outer["elim"] / seconds
        out["strata.validate.share"] = (
            100.0 * total[ids["strata.validate"]] / seconds)
        out["cubical.sign.calls"] = outer_calls["cubical"]
        out["trace.spans"] = len(spans)
        return out

    def summary(self):
        """The per-pass metrics over all traced passes, and whether the
        exact counters repeated in every pass.  A time is its minimum
        over the passes, as for the end-to-end metrics; any other value
        is its median."""
        per_pass = [self.pass_metrics(i) for i in range(len(self.passes))]
        keys = sorted({k for p in per_pass for k in p})
        merged = {}
        for k in keys:
            values = [p.get(k, 0) for p in per_pass]
            if k.endswith((".s", "_s")):
                merged[k] = min(values)
            elif all(isinstance(v, int) for v in values):
                merged[k] = statistics.median_low(values)
            else:
                merged[k] = statistics.median(values)
        repeats = all(p.get(k, 0) == per_pass[0].get(k, 0)
                      for p in per_pass for k in EXACT)
        return merged, repeats

    def dump(self):
        """All spans as a JSON-ready dict."""
        return {"names": self.names,
                "passes": [[[s[0], round(s[1], 7), round(s[2], 7), s[3]]
                            for s in spans]
                           for spans, _, _ in self.passes]}
