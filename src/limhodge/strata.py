"""Combinatorial input model of a projective normal crossing
degeneration: per-stratum rational cohomology rings, restriction and
Gysin maps, traces and ample classes, with validation and fixtures.

Conventions baked into the data model:
  - the stratum Y_sigma of the components indexed by sigma has
    dimension n - |sigma| + 1;
  - H^0 bases are component idempotents, the ring unit is the all-ones
    vector in H^0 coordinates;
  - the trace functional t_sigma carries Tate twist -dim Y_sigma and is
    normalized so that t(point class) = 1 per connected component;
  - the Gysin map g: H^j(Y_{sigma+nu}) -> H^{j+2}(Y_sigma) carries
    twist +1 and satisfies the adjunction
    t_sigma(g(a).b) = -t_{sigma+nu}(a.restrict(b)).
"""

import json
from fractions import Fraction as Q
from json.encoder import encode_basestring_ascii as _quote

from .exactlin import (
    ConsistencyError, Matrix, rank, rat_to_str, rat_from_str,
    is_positive_definite, kernel, kron, solve,
)
from .cubical import IndexSet


class StrataError(ValueError):
    """Structural error in a strata datum (missing maps, bad shapes)."""


class Ring:
    """Graded ring table: dims[i] = dim H^i, mult[(i, j)] a Matrix of
    shape (dims[i+j], dims[i]*dims[j]) with column index
    x_index * dims[j] + y_index."""

    def __init__(self, dims, mult):
        self.dims = list(dims)
        self.top = len(dims) - 1
        self.mult = dict(mult)

    def dim(self, i):
        if 0 <= i <= self.top:
            return self.dims[i]
        return 0

    @property
    def unit(self):
        return [Q(1)] * self.dim(0)

    def table(self, i, j):
        if self.dim(i) == 0 or self.dim(j) == 0 or self.dim(i + j) == 0:
            return Matrix.zero(self.dim(i + j), self.dim(i) * self.dim(j))
        m = self.mult.get((i, j))
        if m is None:
            raise StrataError("missing product table (%d,%d)" % (i, j))
        return m

    def mul(self, i, j, x, y):
        """The products of the columns of x, classes in H^i, with those
        of y, classes in H^j: the matrix T_ij (x (x) y), whose column
        a * y.cols + b is x_a . y_b in H^{i+j}."""
        di, dj, dk = self.dim(i), self.dim(j), self.dim(i + j)
        t = self.table(i, j)
        if (x.rows, y.rows, t.rows, t.cols) != (di, dj, dk, di * dj):
            raise ConsistencyError(
                "product (%d,%d): factors with %d and %d rows against a "
                "%dx%d table" % (i, j, x.rows, y.rows, t.rows, t.cols))
        return t * kron(x, y)

    def gram(self, i, j, trace):
        """The matrix t(e_a.e_b) of the pairing H^i x H^j -> Q through
        the functional t = `trace` on H^{i+j}: the row t.T_ij, cut into
        dim(i) rows of dim(j)."""
        row = (Matrix(1, len(trace), [trace]) * self.table(i, j)).nz[0]
        dj = self.dim(j)
        out = [{} for _ in range(self.dim(i))]
        for c, x in row.items():
            out[c // dj][c % dj] = x
        return Matrix.from_sparse(dj, out)

    def mult_operator(self, x, i, j):
        """The matrix of (y -> x.y): H^j -> H^{i+j} for x in H^i."""
        return self.mul(i, j, Matrix(len(x), 1, [[v] for v in x]),
                        Matrix.identity(self.dim(j)))


class StrataDatum:
    def __init__(self, n, labels, nerve, rings, restrictions, gysin,
                 traces, ample):
        self.n = n
        self.ix = IndexSet(labels)
        nerve = [frozenset(s) for s in nerve]
        for s in nerve:
            if not s or not s <= set(self.ix.labels):
                raise StrataError("bad nerve subset %r" % (sorted(s),))
        self.nerve = set(nerve)
        # Every walk over the nerve takes this order, so that a message
        # about malformed input names the same fault on every run.
        self.strata = sorted(self.nerve, key=self.ix.subset_key)
        self._covers = {s: [(nu, s | {nu}) for nu in self.ix.labels
                            if nu not in s and s | {nu} in self.nerve]
                        for s in self.strata}
        self.rings = {frozenset(s): r for s, r in rings.items()}
        self.restrictions = {(frozenset(a), frozenset(b)): m
                             for (a, b), m in restrictions.items()}
        self.gysin = {(frozenset(a), nu): m
                      for (a, nu), m in gysin.items()}
        self.traces = {frozenset(s): list(t) for s, t in traces.items()}
        self.ample = {frozenset(s): list(v) for s, v in ample.items()}
        self._structural_check()
        self._derive_missing_gysin()

    # basic accessors

    def stratum_dim(self, sigma):
        return self.n - len(sigma) + 1

    def covers(self, sigma):
        """The pairs (nu, sigma + nu) with sigma + nu in the nerve, in
        label order."""
        return self._covers[frozenset(sigma)]

    def ring(self, sigma):
        return self.rings[frozenset(sigma)]

    def trace_vec(self, sigma):
        return self.traces[frozenset(sigma)]

    def restrict_mat(self, sigma, tau, deg):
        """Matrix of a*: H^deg(Y_sigma) -> H^deg(Y_tau), sigma <= tau,
        composed along covering steps."""
        sigma, tau = frozenset(sigma), frozenset(tau)
        if not sigma <= tau:
            raise ConsistencyError("restriction from %r to %r, which it "
                                   "does not contain"
                                   % (sorted(sigma), sorted(tau)))
        cur = sigma
        out = Matrix.identity(self.ring(sigma).dim(deg))
        for x in self.ix.sort(tau - sigma):
            nxt = cur | {x}
            step = self.restrictions.get((cur, nxt), {}).get(deg)
            if step is None:
                step = Matrix.zero(self.ring(nxt).dim(deg),
                                   self.ring(cur).dim(deg))
            out = step * out
            cur = nxt
        return out

    def gysin_mat(self, sigma, nu, deg):
        """Matrix of g: H^deg(Y_{sigma+nu}) -> H^{deg+2}(Y_sigma)."""
        sigma = frozenset(sigma)
        m = self.gysin.get((sigma, nu), {}).get(deg)
        if m is None:
            m = Matrix.zero(self.ring(sigma).dim(deg + 2),
                            self.ring(sigma | {nu}).dim(deg))
        return m

    def ample_op(self, sigma, deg):
        r = self.ring(sigma)
        return r.mult_operator(self.ample[frozenset(sigma)], 2, deg)

    def euler_open(self, label):
        """chi of the open stratum of the component, by inclusion and
        exclusion over the nerve."""
        tot = Q(0)
        for s in self.strata:
            if label in s:
                chi_s = sum(self.ring(s).dims)
                tot += Q(-1) ** (len(s) - 1) * chi_s
        return tot

    def _structural_check(self):
        # A mis-shaped table is an input error: report it here with its
        # path, not later as a consistency failure (exit 2) in a kernel.
        def expect(path, m, rows, cols):
            if (m.rows, m.cols) != (rows, cols):
                raise StrataError("%s: expected %dx%d, got %dx%d"
                                  % (path, rows, cols, m.rows, m.cols))

        def ring_of(s, path):
            if s not in self.rings:
                raise StrataError("%s: unknown stratum %r"
                                  % (path, sorted(s)))
            return self.rings[s]

        for s in self.strata:
            for x in s:
                if len(s) > 1 and (s - {x}) not in self.nerve:
                    raise StrataError("nerve not subset-closed at %r"
                                      % (sorted(s),))
            if s not in self.rings:
                raise StrataError("missing ring for %r" % (sorted(s),))
            d = self.stratum_dim(s)
            ring = self.rings[s]
            if ring.top != 2 * d:
                raise StrataError(
                    "ring degree range of %r should end at %d"
                    % (sorted(s), 2 * d))
            if s not in self.traces:
                raise StrataError("missing trace for %r" % (sorted(s),))
            if len(self.traces[s]) != ring.dim(2 * d):
                raise StrataError("trace length mismatch at %r"
                                  % (sorted(s),))
            if s not in self.ample:
                raise StrataError("missing ample class for %r"
                                  % (sorted(s),))
            if len(self.ample[s]) != ring.dim(2):
                raise StrataError("ample length mismatch at %r"
                                  % (sorted(s),))
            odd = [i for i in range(1, ring.top + 1, 2) if ring.dim(i)]
            if odd:
                raise StrataError(
                    "strata/%s/dims: degree %d has dimension %d; Hodge-Tate "
                    "data has no odd cohomology"
                    % (skey(self.ix, s), odd[0], ring.dim(odd[0])))
            for (i, j), m in ring.mult.items():
                expect("strata/%s/products/%d,%d" % (skey(self.ix, s), i, j),
                       m, ring.dim(i + j), ring.dim(i) * ring.dim(j))
            for i in range(ring.top + 1):
                for j in range(ring.top + 1 - i):
                    if ring.dim(i) and ring.dim(j) and ring.dim(i + j) \
                            and (i, j) not in ring.mult:
                        raise StrataError("strata/%s/products/%d,%d: missing"
                                          % (skey(self.ix, s), i, j))
        for s in self.strata:
            for _, t in self.covers(s):
                if (s, t) not in self.restrictions:
                    raise StrataError("missing restriction %r -> %r"
                                      % (sorted(s), sorted(t)))
        for (s, t), mats in self.restrictions.items():
            path = "restrictions/%s|%s" % (skey(self.ix, s),
                                           skey(self.ix, t))
            if not (s < t and len(t) == len(s) + 1):
                raise StrataError("%s: the second stratum is not the first "
                                  "plus one label" % path)
            rs, rt = ring_of(s, path), ring_of(t, path)
            for deg, m in mats.items():
                expect("%s/%d" % (path, deg), m, rt.dim(deg), rs.dim(deg))
        for (s, nu), mats in self.gysin.items():
            path = "gysin/%s|%s" % (skey(self.ix, s), nu)
            if nu in s:
                raise StrataError("%s: %s is in the stratum" % (path, nu))
            rs, rt = ring_of(s, path), ring_of(s | {nu}, path)
            for deg, m in mats.items():
                expect("%s/%d" % (path, deg), m, rs.dim(deg + 2),
                       rt.dim(deg))

    def _derive_missing_gysin(self):
        """Fill in omitted Gysin maps from Poincaré duality and the
        trace adjunction t_s(g(a).b) = -t_{s+nu}(a.restrict(b)), which
        determines g uniquely once traces and products are fixed: with
        P the trace pairing of H^{i+2} and H^c on Y_s (c = 2 dim Y_s -
        i - 2), g on H^i solves P^T g = -(P' R_c)^T, P' the pairing of
        H^i and H^c on Y_{s+nu}."""
        for sigma in self.strata:
            for nu, tau in self.covers(sigma):
                if (sigma, nu) in self.gysin:
                    continue
                rs, rt = self.ring(sigma), self.ring(tau)
                mats = {}
                for i in range(rt.top + 1):
                    comp = rt.top - i
                    m = Matrix.zero(rs.dim(i + 2), rt.dim(i))
                    if m.rows and m.cols:
                        rhs = rt.gram(i, comp, self.traces[tau]) \
                            * self.restrict_mat(sigma, tau, comp)
                        m = solve(rs.gram(i + 2, comp,
                                          self.traces[sigma]).transpose(),
                                  -rhs.transpose())
                        if m is None:
                            raise StrataError(
                                "cannot derive gysin at %r|%s deg %d"
                                % (sorted(sigma), nu, i))
                    mats[i] = m
                self.gysin[(sigma, nu)] = mats


class Report(list):
    """Verdicts of a run, in order: dicts with keys check, where, ok and
    witness. A failing entry names its witness; a passing one has ""."""

    def add(self, check, where, ok, witness):
        ok = bool(ok)
        self.append({"check": check, "where": where, "ok": ok,
                     "witness": "" if ok else witness})

    def add_zero(self, check, where, defect):
        """A check that the matrix `defect` is zero; a failure names its
        first nonzero entry."""
        witness = first_entry(defect)
        self.add(check, where, not witness, witness)


def first_entry(m):
    """"entry (i,j) = x" for the first nonzero entry of m in row-major
    order, or "" if m is zero."""
    i = next((i for i, row in enumerate(m.nz) if row), None)
    if i is None:
        return ""
    j = min(m.nz[i])
    return "entry (%d,%d) = %s" % (i, j, rat_to_str(m.nz[i][j]))


def all_checks_pass(report):
    return all(r["ok"] for r in report)


def _swap(t, di, dj):
    """The table t of a product H^j x H^i read on H^i x H^j: column
    a*dj + b of the result is column b*di + a of t."""
    return Matrix.from_sparse(t.cols, [{(c % di) * dj + c // di: x
                                        for c, x in row.items()}
                                       for row in t.nz])


def validate(datum):
    """Run checks (a)-(h); returns a Report.

    Each identity of products is one matrix identity per degree tuple,
    written with Ring.mul, the matrix T_ij (x (x) y). A
    tuple with an empty basis in it is skipped: the identity holds
    there. A failing check names the last failing tuple in loop
    order."""
    one = Matrix.identity
    report = Report()
    for sigma in datum.strata:
        key = skey(datum.ix, sigma)
        ring = datum.ring(sigma)
        dim, T, mul = ring.dim, ring.table, ring.mul
        d = datum.stratum_dim(sigma)
        tr = datum.trace_vec(sigma)
        # (a) unit, graded commutativity, associativity
        wit = ""
        u = Matrix(dim(0), 1, [[1]] * dim(0))
        for j in range(0, 2 * d + 1):
            if dim(j) and not (mul(0, j, u, one(dim(j))) == one(dim(j))
                               == mul(j, 0, one(dim(j)), u)):
                wit = "unit fails in degree %d" % j
        for i in range(0, 2 * d + 1):
            for j in range(0, 2 * d + 1 - i):
                if dim(i) and dim(j) and dim(i + j) and T(i, j) != _swap(
                        T(j, i), dim(i), dim(j)):
                    wit = "commutativity fails at (%d,%d)" % (i, j)
        for i in range(0, 2 * d + 1):
            for j in range(0, 2 * d + 1 - i):
                for k in range(0, 2 * d + 1 - i - j):
                    if dim(i) and dim(j) and dim(k) and dim(i + j + k) \
                            and mul(i + j, k, T(i, j), one(dim(k))) \
                            != mul(i, j + k, one(dim(i)), T(j, k)):
                        wit = "associativity fails at (%d,%d,%d)" % (i, j, k)
        report.add("ring-axioms", key, not wit, wit)
        # (e) Poincaré duality
        wit = ""
        for k in range(0, 2 * d + 1):
            if dim(k) != dim(2 * d - k):
                wit = "betti asymmetry at degree %d" % k
            elif dim(k) and rank(ring.gram(k, 2 * d - k, tr)) != dim(k):
                wit = "degenerate pairing in degree %d" % k
        report.add("poincare-duality", key, not wit, wit)
        # (f) hard Lefschetz, with lop[b] = l on H^b and lef[b] = l^{d-b}
        # on H^b, b <= d
        wit = ""
        lop = [datum.ample_op(sigma, b) for b in range(2 * d + 1)]
        lef = []
        for b in range(d + 1):
            lef.append(one(dim(b)))
            for c in range(b, 2 * d - b, 2):
                lef[b] = lop[c] * lef[b]
        for k in range(1, d + 1):
            if dim(d - k) != dim(d + k) or rank(lef[d - k]) != dim(d - k):
                wit = "l^%d not an isomorphism" % k
        report.add("hard-lefschetz", key, not wit, wit)
        # (g) Hodge-Riemann on primitive parts (Hodge-Tate case): the
        # form (-1)^p t(l^{d-k} x . y) on the kernel of l^{d-k+1}
        wit = ""
        for p in range(0, d // 2 + 1):
            k = 2 * p
            if dim(k) == 0:
                continue
            prim = kernel(lop[2 * d - k] * lef[k])
            if prim.dim == 0:
                continue
            x = prim.basis
            form = x * lef[k].transpose() * ring.gram(2 * d - k, k, tr) \
                * x.transpose()
            asym = first_entry(form - form.transpose())
            if asym:
                wit = "primitive form not symmetric in degree %d: %s" \
                    % (k, asym)
            elif not is_positive_definite(form.scale((-1) ** p)):
                wit = "primitive form not positive in degree %d" % k
        report.add("hodge-riemann", key, not wit, wit)

    # (b) restriction functoriality and ring maps; (h) ample restriction
    for sigma in datum.strata:
        key = skey(datum.ix, sigma)
        for _, tau in datum.covers(sigma):
            rs, rt = datum.ring(sigma), datum.ring(tau)
            dt = datum.stratum_dim(tau)
            r = [datum.restrict_mat(sigma, tau, deg)
                 for deg in range(2 * dt + 1)]
            wit = ""
            if r[0].matvec(rs.unit) != rt.unit:
                wit = "unit not preserved"
            # R_{i+j} T_ij = T'_ij (R_i (x) R_j)
            for i in range(0, 2 * dt + 1):
                for j in range(0, 2 * dt + 1 - i):
                    if rs.dim(i) and rs.dim(j) and rt.dim(i + j) \
                            and r[i + j] * rs.table(i, j) \
                            != rt.mul(i, j, r[i], r[j]):
                        wit = "not a ring map at degrees (%d,%d)" % (i, j)
            where = "%s->%s" % (key, skey(datum.ix, tau))
            report.add("restriction-ring-map", where, not wit, wit)
            # (h)
            okh = datum.restrict_mat(sigma, tau, 2).matvec(
                datum.ample[sigma]) == datum.ample[tau]
            report.add("ample-restriction", where, okh,
                       "restricted ample class differs")
        # functoriality over two-step extensions
        for x, sx in datum.covers(sigma):
            for y, tau in datum.covers(sx):
                if x >= y:
                    continue
                ok = True
                wit = ""
                for deg in range(0, 2 * datum.stratum_dim(tau) + 1):
                    via_x = datum.restrict_mat(sx, tau, deg) * \
                        datum.restrict_mat(sigma, sx, deg)
                    via_y = datum.restrict_mat(sigma | {y}, tau, deg) * \
                        datum.restrict_mat(sigma, sigma | {y}, deg)
                    if via_x != via_y:
                        ok, wit = False, "paths differ in degree %d" % deg
                report.add("restriction-functoriality",
                           "%s->%s" % (key, skey(datum.ix, tau)),
                           ok, wit)

    # (c) projection formula and (d) Gysin-trace adjunction, for a in
    # H^i(Y_tau) and b in H^j(Y_sigma)
    for sigma in datum.strata:
        for nu, tau in datum.covers(sigma):
            wkey = "%s|%s" % (skey(datum.ix, sigma), nu)
            rs, rt = datum.ring(sigma), datum.ring(tau)
            dt = datum.stratum_dim(tau)
            t_s = Matrix(1, rs.dim(rs.top), [datum.trace_vec(sigma)])
            t_t = Matrix(1, rt.dim(rt.top), [datum.trace_vec(tau)])
            witc = witd = ""
            for i in range(0, 2 * dt + 1):
                g_i = datum.gysin_mat(sigma, nu, i)
                for j in range(0, 2 * dt + 1 - i):
                    if not (rt.dim(i) and rs.dim(j)):
                        continue
                    # a.r(b) = T'_ij (1 (x) R_j) and
                    # g(a).b = T_{i+2,j} (G_i (x) 1)
                    ar_b = rt.mul(i, j, one(rt.dim(i)),
                                  datum.restrict_mat(sigma, tau, j))
                    ga_b = rs.mul(i + 2, j, g_i, one(rs.dim(j)))
                    # (c): g(a . r(b)) = g(a) . b
                    if datum.gysin_mat(sigma, nu, i + j) * ar_b != ga_b:
                        witc = "projection formula fails at (%d,%d)" % (i, j)
                    # (d): t(g(a).b) = -t(a.r(b)); the witness names the
                    # last failing pair (a, b)
                    if i + j == 2 * dt:
                        diff = [(x, -y) for x, y in zip((t_s * ga_b).row(0),
                                                        (t_t * ar_b).row(0))
                                if x != -y]
                        if diff:
                            witd = "adjunction fails at (%d,%d): %s != %s" \
                                % ((i, j) + diff[-1])
            report.add("projection-formula", wkey, not witc, witc)
            report.add("gysin-trace-adjunction", wkey, not witd, witd)

    return report


# fixtures

def fixture_projective_space(n):
    """Single smooth component P^n, where h^i . h^j = h^{i+j}."""
    if n < 1:
        raise ValueError("need dimension at least 1")
    label = "X"
    dims = [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]
    mult = {(i, j): Matrix(1, 1, [[1]]) for i in range(0, 2 * n + 1, 2)
            for j in range(0, 2 * n + 1 - i, 2)}
    ring = Ring(dims, mult)
    return StrataDatum(
        n=n, labels=[label], nerve=[{label}],
        rings={frozenset({label}): ring},
        restrictions={}, gysin={},
        traces={frozenset({label}): [Q(1)]},
        ample={frozenset({label}): [Q(1)]},
    )


def point_ring():
    return Ring([1], {(0, 0): Matrix(1, 1, [[1]])})


def p1_ring():
    dims = [1, 0, 1]
    mult = {
        (0, 0): Matrix(1, 1, [[1]]),
        (0, 2): Matrix(1, 1, [[1]]),
        (2, 0): Matrix(1, 1, [[1]]),
        (2, 2): Matrix.zero(0, 1),
    }
    return Ring(dims, mult)


def fixture_cycle_of_p1(n_components):
    """Cycle of N projective lines meeting in N points (N >= 3): the
    special fiber of a degenerating elliptic curve."""
    if n_components < 3:
        raise ValueError("need at least 3 components")
    N = n_components
    labels = ["C%d" % i for i in range(N)]
    nerve = [{labels[i]} for i in range(N)]
    pairs = []
    for i in range(N):
        j = (i + 1) % N
        pairs.append(frozenset({labels[i], labels[j]}))
    nerve += [set(p) for p in pairs]
    rings = {}
    traces = {}
    ample = {}
    for i in range(N):
        s = frozenset({labels[i]})
        rings[s] = p1_ring()
        traces[s] = [Q(1)]
        ample[s] = [Q(1)]
    for p in pairs:
        rings[p] = point_ring()
        traces[p] = [Q(1)]
        ample[p] = []
    restrictions = {(frozenset({lab}), p): {0: Matrix(1, 1, [[1]]),
                                            2: Matrix.zero(0, 1)}
                    for p in pairs for lab in p}
    # The datum derives the Gysin maps: the adjunction
    # t_s(g(a).b) = -t_p(a.restrict(b)) forces g(1) = -(point class).
    return StrataDatum(
        n=1, labels=labels, nerve=nerve, rings=rings,
        restrictions=restrictions, gysin={}, traces=traces,
        ample=ample)


def fixture_product_with_p1(datum):
    """Künneth product of every stratum with P^1 (all classes are of
    even degree, so no Koszul signs enter). Degree k of Y x P^1 is
    H^k(Y) (x) 1, then H^{k-2}(Y) (x) h, and h.h = 0: so the product
    table (i, j) is the sum of the products of Y on the fiber parts
    (u, v) of its factors, placed in the fiber part u + v."""
    rings = {}
    traces = {}
    ample = {}
    fibers = {}
    for s, r in datum.rings.items():
        c = fibers[s] = _fibers(r)
        top = r.top + 2
        dims = [r.dim(k) + r.dim(k - 2) for k in range(top + 1)]
        mult = {}
        for i in range(0, top + 1):
            for j in range(0, top + 1 - i):
                m = mult[(i, j)] = Matrix.zero(dims[i + j], dims[i] * dims[j])
                for u, v in ((0, 0), (0, 2), (2, 0)):
                    if r.dim(i - u) and r.dim(j - v):
                        prod = r.mul(i - u, j - v, c[(i, u)], c[(j, v)])
                        m.add_block(r.dim(i + j) if u + v else 0, 0, prod)
        rings[s] = Ring(dims, mult)
        # t(x (x) h) = t(x); the ample class is l (x) 1 + 1 (x) h
        t, ell, one = datum.traces[s], datum.ample[s], r.unit
        traces[s] = (Matrix(1, len(t), [t]) * c[(top, 2)]).row(0)
        ample[s] = (Matrix(1, len(ell), [ell]) * c[(2, 0)]
                    + Matrix(1, len(one), [one]) * c[(2, 2)]).row(0)
    restrictions = {
        (s, t): _kunneth_lift(mats, fibers[s], datum.rings[t], rings[s],
                              rings[t])
        for (s, t), mats in datum.restrictions.items()}
    # The datum derives the Gysin maps from the adjunction.
    return StrataDatum(
        n=datum.n + 1, labels=list(datum.ix.labels),
        nerve=datum.strata, rings=rings,
        restrictions=restrictions, gysin={}, traces=traces,
        ample=ample)


def _fibers(ring):
    """{(k, u): C} for each degree k of ring (x) H(P^1) and u in {0, 2}:
    the 0/1 matrix C that reads the H^{k-u} coordinates of x (x) h^{u/2}
    off a class of degree k."""
    out = {}
    for k in range(ring.top + 3):
        lo = ring.dim(k)
        rows = Matrix.identity(lo + ring.dim(k - 2)).nz
        out[(k, 0)] = Matrix.from_sparse(len(rows), rows[:lo])
        out[(k, 2)] = Matrix.from_sparse(len(rows), rows[lo:])
    return out


def _kunneth_lift(mats, fibers, base_tgt, src, tgt):
    """Lift the restrictions mats[i]: H^i(Y) -> H^i(base_tgt) to the
    Künneth products src = Y x P^1 -> tgt, as the same block on both
    fiber parts u = 0, 2, in every degree of tgt; `fibers` are Y's."""
    new = {}
    for k in range(tgt.top + 1):
        m = new[k] = Matrix.zero(tgt.dim(k), src.dim(k))
        for u in (0, 2):
            if k - u in mats:
                m.add_block(base_tgt.dim(k) if u else 0, 0,
                            mats[k - u] * fibers[(k, u)])
    return new


# JSON round trip

def json_text(value):
    """json.dumps(value, indent=1, sort_keys=True) in one pass, for dicts
    with str keys, lists, str, int, bool and None; anything else, such as
    a float, a Fraction or an int key, raises TypeError."""
    return _json_text(value, "\n")


def _json_text(x, nl):
    """x as json_text writes it, nl the line break and indent of x."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    inner = nl + " "
    sep = "," + inner
    if isinstance(x, dict):
        if not x:
            return "{}"
        return "{%s%s%s}" % (inner, sep.join(
            _quote(k) + ": " + _json_text(v, inner)
            for k, v in sorted(x.items())), nl)
    if isinstance(x, list):
        if not x:
            return "[]"
        try:
            # a row of a matrix dump: a list of strings, quoted in C
            items = sep.join(map(_quote, x))
        except TypeError:
            items = sep.join(_json_text(v, inner) for v in x)
        return "[%s%s%s]" % (inner, items, nl)
    raise TypeError("Object of type %s is not JSON serializable"
                    % t.__name__)


def skey(ix, sigma):
    return ",".join(ix.sort(sigma))


def save(datum, path):
    with open(path, "w") as fh:
        fh.write(dumps(datum))


def dumps(datum):
    ix = datum.ix
    out = {
        "n": datum.n,
        "components": list(ix.labels),
        "hodge_tate": True,
        "strata": {},
        "restrictions": {},
        "gysin": {},
    }
    for s in datum.strata:
        ring = datum.ring(s)
        out["strata"][skey(ix, s)] = {
            "dims": ring.dims,
            "products": {"%d,%d" % ij: m.to_json()
                         for ij, m in ring.mult.items()},
            "trace": [rat_to_str(x) for x in datum.traces[s]],
            "ample": [rat_to_str(x) for x in datum.ample[s]],
        }
    for (s, t), mats in datum.restrictions.items():
        out["restrictions"]["%s|%s" % (skey(ix, s), skey(ix, t))] = {
            str(deg): m.to_json() for deg, m in mats.items()}
    for (s, nu), mats in datum.gysin.items():
        out["gysin"]["%s|%s" % (skey(ix, s), nu)] = {
            str(deg): m.to_json() for deg, m in mats.items()}
    return json_text(out)


def load(path):
    with open(path) as fh:
        return loads(fh.read())


def _parsed(path, parse, *args):
    """parse(*args), with a malformed value reported as a StrataError
    that names its JSON path."""
    try:
        return parse(*args)
    except ZeroDivisionError:
        raise StrataError("%s: zero denominator" % path) from None
    except (ValueError, TypeError, OverflowError) as e:
        raise StrataError("%s: %s" % (path, e)) from None


def _typed(kind, value):
    """value, if it has the JSON type kind; a bool is not an int."""
    if type(value) is not kind:
        raise TypeError("expected %s %s, got %s" % (
            "an" if kind is int else "a", kind.__name__, type(value).__name__))
    return value


def _degree(key):
    """The int of a key written as str(int) writes it, so that no two
    keys name the same degree."""
    d = int(key)
    if str(d) != key:
        raise ValueError("expected an integer key, got %r" % key)
    return d


def _split(key, sep):
    parts = key.split(sep)
    if len(parts) != 2:
        raise ValueError("expected a key of the form a%sb" % sep)
    return parts


def _repeated(items):
    """The first item of the list items that an earlier one equals, or
    None."""
    return next((x for i, x in enumerate(items) if x in items[:i]), None)


def _vector(value):
    return [rat_from_str(_typed(str, x)) for x in _typed(list, value)]


def _table(value, rows, cols):
    """The matrix of a JSON table that should be rows x cols; only a
    ragged one is rejected here, any other shape in _structural_check."""
    table = [_typed(list, r) for r in _typed(list, value)]
    # every entry a string: "" stands in when none is another type
    _typed(str, next((x for r in table for x in r if type(x) is not str), ""))
    if any(len(r) != len(table[0]) for r in table):
        raise ValueError("expected %dx%d, got ragged rows" % (rows, cols))
    return Matrix.from_json(table, cols)


def _maps(path, mats, source, target, shift):
    """Per-degree maps {"deg": table} from the ring `source` to degree
    deg + shift of the ring `target`."""
    out = {}
    for deg, m in _parsed(path, _typed, dict, mats).items():
        d = _parsed("%s/%s" % (path, deg), _degree, deg)
        out[d] = _parsed("%s/%s" % (path, deg), _table, m,
                         target.dim(d + shift), source.dim(d))
    return out


def loads(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise StrataError("invalid JSON: %s" % e)
    for field in ("n", "components", "strata"):
        if field not in _parsed("input", _typed, dict, data):
            raise StrataError("missing field %r" % field)
    if data.get("hodge_tate", True) is not True:
        raise StrataError("hodge_tate: only true is supported, got %s"
                          % json.dumps(data["hodge_tate"]))
    n = _parsed("n", _typed, int, data["n"])
    labels = _parsed("components", _typed, list, data["components"])
    if not all(isinstance(x, str) for x in labels):
        raise StrataError("components: expected a list of names")
    if not labels:
        raise StrataError("components: empty")
    dup = _repeated(labels)
    if dup is not None:
        raise StrataError("components: duplicate label %r" % dup)
    rings = {}
    traces = {}
    ample = {}
    nerve = []
    # The first key of each stratum, restriction and Gysin map: a key
    # in another label order names the same one.
    first = {}

    def once(path, key, what, name):
        if name in first:
            raise StrataError("%s: names the same %s as %s"
                              % (path, what, first[name]))
        first[name] = key

    def members(key):
        parts = key.split(",")
        dup = _repeated(parts)
        if dup is not None:
            raise ValueError("label %r repeated" % dup)
        return frozenset(parts)

    def stratum(key):
        s = members(key)
        if s not in rings:
            raise ValueError("unknown stratum %r" % key)
        return s

    for key, entry in _parsed("strata", _typed, dict,
                              data["strata"]).items():
        path = "strata/" + key
        for p in key.split(","):
            if p not in labels:
                raise StrataError("%s: unknown label %r" % (path, p))
        s = _parsed(path, members, key)
        once(path, key, "stratum", s)
        nerve.append(s)
        for field in ("dims", "products", "trace", "ample"):
            if field not in _parsed(path, _typed, dict, entry):
                raise StrataError("%s/%s missing" % (path, field))
        dims = _parsed(path + "/dims", _typed, list, entry["dims"])
        if any(type(d) is not int or d < 0 for d in dims):
            raise StrataError("%s/dims: expected counts" % path)
        ring = rings[s] = Ring(dims, {})
        for ij, m in _parsed(path + "/products", _typed, dict,
                             entry["products"]).items():
            where = "%s/products/%s" % (path, ij)
            i, j = (_parsed(where, _degree, x)
                    for x in _parsed(where, _split, ij, ","))
            ring.mult[(i, j)] = _parsed(where, _table, m, ring.dim(i + j),
                                        ring.dim(i) * ring.dim(j))
        traces[s] = _parsed(path + "/trace", _vector, entry["trace"])
        ample[s] = _parsed(path + "/ample", _vector, entry["ample"])
    restrictions = {}
    for key, mats in _parsed("restrictions", _typed, dict,
                             data.get("restrictions", {})).items():
        path = "restrictions/" + key
        a, b = _parsed(path, _split, key, "|")
        s, t = _parsed(path, stratum, a), _parsed(path, stratum, b)
        once(path, key, "restriction", (s, t))
        restrictions[(s, t)] = _maps(path, mats, rings[s], rings[t], 0)
    gysin = {}
    for key, mats in _parsed("gysin", _typed, dict,
                             data.get("gysin", {})).items():
        path = "gysin/" + key
        a, nu = _parsed(path, _split, key, "|")
        s = _parsed(path, stratum, a)
        # a label nu in s is reported by StrataDatum._structural_check
        t = s if nu in s else _parsed(path, stratum, a + "," + nu)
        once(path, key, "Gysin map", (s, nu))
        gysin[(s, nu)] = _maps(path, mats, rings[t], rings[s], 2)
    return StrataDatum(
        n=n, labels=labels, nerve=nerve, rings=rings,
        restrictions=restrictions, gysin=gysin, traces=traces,
        ample=ample)
