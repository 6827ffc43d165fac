"""Limit mixed Hodge structure of a projective normal crossing
degeneration, computed in exact arithmetic from a StrataDatum.

Two E1 pages are built from the strata data:

  - the A page (PageA): the weight-graded page of the quotient
    model, whose cell (m, q) is the direct sum of H^{q-m-2r}(Y_sigma)
    over u-degrees r and subsets sigma of m+2r+1 components whose
    intersection is non-empty;
  - the K page (PageK): the weight-graded page of the Cech model
    of the twisted de Rham complex, whose summands carry a Cech subset
    A, a u-degree r and a residue subset sigma with A + sigma in the
    nerve (sigma may meet A).

Cells are indexed by (m, q): m is the centered weight index, q the
cohomological degree, and d1 maps (m, q) -> (m-1, q+1).  The spectral
sequences degenerate at E2; the limit cohomology H^q is the direct sum
of the E2 cells (m, q) with weight w = q + m and Hodge type
((q+m)/2, (q+m)/2) in the Hodge-Tate case.

Normalization conventions (all certified by machine checks):
  - each summand is read in its twist-normalized rational basis; a
    pairing component is admissible only when the twists balance;
  - the A-page d1 carries global signs s_G = s_R = -1 on its Gysin and
    restriction parts, the K-page parts carry (-1)^k relative to the
    Cech degree k; these are pinned jointly by d1*d1 = 0, the vanishing
    of PageK.trace_row composed with d1, and the chain-map property of the
    comparison map phi;
  - the Lefschetz operator acts as +(ample class) on every summand;
  - the trace of a point class is +1;
  - with no odd cohomology, every cell has q = m mod 2: (-1)^(m(q+1)) = 1.
"""

from fractions import Fraction as Q
from itertools import combinations

from .exactlin import (
    ConsistencyError, Matrix, kernel, rank, vstack, is_positive_definite,
)
from .homalg import Complex
from .cubical import chi, wedge_insert_sign, contract_sign
from .strata import Report, StrataError, all_checks_pass, first_entry


def eps(a):
    """The sign (-1)^(a(a-1)/2), for any integer a."""
    return -1 if (a * (a - 1) // 2) % 2 else 1


class SummandA:
    """Summand H^c(Y_sigma) of an A-page cell: subset sigma of size
    m+2r+1, u-degree r, carried degree c, twist m+r."""

    __slots__ = ("sigma", "r", "c", "dim", "offset")

    def __init__(self, sigma, r, c, dim):
        self.sigma = frozenset(sigma)
        self.r = r
        self.c = c
        self.dim = dim
        self.offset = 0

    @property
    def key(self):
        return (self.sigma, self.r)

    @property
    def stratum(self):
        return self.sigma

    @property
    def n_key(self):
        """Key of the summand N maps this one to: one u-degree up."""
        return (self.sigma, self.r + 1)

    @property
    def tw(self):
        return len(self.sigma) - 1 - self.r


class SummandK:
    """Summand H^c(Y_{A+sigma}) of a K-page cell: Cech subset A (of
    size k+1), u-degree r >= 0 and residue subset sigma of size
    m+k-2r; sigma may intersect A."""

    __slots__ = ("cech", "r", "sigma", "c", "dim", "offset")

    def __init__(self, cech, r, sigma, c, dim):
        self.cech = frozenset(cech)
        self.r = r
        self.sigma = frozenset(sigma)
        self.c = c
        self.dim = dim
        self.offset = 0

    @property
    def key(self):
        return (self.cech, self.r, self.sigma)

    @property
    def stratum(self):
        return self.cech | self.sigma

    @property
    def n_key(self):
        """Key of the summand N maps this one to: one u-degree down;
        None, which keys no summand, at r = 0."""
        return (self.cech, self.r - 1, self.sigma) if self.r else None


class E1Page:
    """E1 page of one of the two weight spectral sequences.

    cells maps (m, q) to the ordered summand list; d1, n_mat and l_mat
    return the cellwise matrices of the differential, the monodromy
    operator N and the Lefschetz operator l, and cohomology the E2
    cells.  A subclass supplies the d1 components of each summand
    (_d1_from) and the trace functional (trace_row).
    """

    variant = None      # the page's name in reports and check names

    def __init__(self, datum, cells):
        self.datum = datum
        self.n = datum.n
        self.cells = cells
        self._lookup = {}
        for cell, lst in cells.items():
            table = {}
            off = 0
            for s in lst:
                s.offset = off
                off += s.dim
                table[s.key] = s
            self._lookup[cell] = (table, off)
        self._d1 = {}
        self._cx = {}
        self._restrict = {}

    def summands(self, m, q):
        return self.cells.get((m, q), [])

    def dim(self, m, q):
        entry = self._lookup.get((m, q))
        return entry[1] if entry else 0

    def find(self, m, q, key):
        entry = self._lookup.get((m, q))
        return entry[0].get(key) if entry else None

    def cell_keys(self):
        return sorted(self.cells)

    def trusted(self, m):
        """Whether the E2 cells of weight index m are computed in full."""
        return True

    # differentials and operators

    def restrict(self, sigma, tau, deg):
        """datum.restrict_mat(sigma, tau, deg), composed once per page.
        The matrix is shared between calls: only read it, as
        Matrix.add_block does."""
        key = (sigma, tau, deg)
        mat = self._restrict.get(key)
        if mat is None:
            mat = self._restrict[key] = self.datum.restrict_mat(*key)
        return mat

    def d1(self, m, q):
        if (m, q) not in self._d1:
            out = Matrix.zero(self.dim(m - 1, q + 1), self.dim(m, q))
            for s in self.summands(m, q):
                self._d1_from(s, m, q, out)
            self._d1[(m, q)] = out
        return self._d1[(m, q)]

    def n_mat(self, m, q):
        """Monodromy operator cell (m, q) -> (m-2, q): the u-degree
        shift, identity on matching summands, zero where the target
        summand is absent."""
        out = Matrix.zero(self.dim(m - 2, q), self.dim(m, q))
        for s in self.summands(m, q):
            tgt = self.find(m - 2, q, s.n_key)
            if tgt is None:
                continue
            out.add_block(tgt.offset, s.offset, Matrix.identity(s.dim))
        return out

    def l_mat(self, m, q):
        """Lefschetz operator cell (m, q) -> (m, q+2): multiplication
        by the ample class on every summand."""
        out = Matrix.zero(self.dim(m, q + 2), self.dim(m, q))
        for s in self.summands(m, q):
            tgt = self.find(m, q + 2, s.key)
            if tgt is None:
                continue
            out.add_block(tgt.offset, s.offset,
                          self.datum.ample_op(s.stratum, s.c))
        return out

    def _diagonal(self, s):
        """The complex of E1 cells and d1 along the line m + q = s, the
        cell (m, q) in degree -m; the zero complex when no cell lies on
        the line."""
        if s not in self._cx:
            ms = [mm for (mm, qq) in self.cells if mm + qq == s]
            degs = range(-max(ms), -min(ms) + 1) if ms else ()
            self._cx[s] = Complex({p: self.dim(-p, s + p) for p in degs},
                                  {p: self.d1(-p, s + p) for p in degs})
        return self._cx[s]

    def betti(self, m, q):
        """The dimension of the E2 cell (m, q), from the ranks of d1."""
        return self._diagonal(m + q).betti(-m)

    def cohomology(self, m, q):
        """(dim, proj, sec) of the E2 cell (m, q): the cohomology of the
        complex of E1 cells and d1 along the line m + q = const."""
        return self._diagonal(m + q).cohomology(-m)


class PageA(E1Page):
    """The A page: the weight-graded page of the quotient model."""

    variant = "A"

    def _d1_from(self, s, m, q, out):
        dat, ix = self.datum, self.datum.ix
        for nu in ix.sort(s.sigma):
            tgt = self.find(m - 1, q + 1, (s.sigma - {nu}, s.r))
            if tgt is None:
                continue
            mat = dat.gysin_mat(s.sigma - {nu}, nu, s.c)
            out.add_block(tgt.offset, s.offset, mat,
                          -contract_sign(ix, nu, s.sigma))
        for nu, tau in dat.covers(s.sigma):
            tgt = self.find(m - 1, q + 1, (tau, s.r + 1))
            if tgt is None:
                continue
            mat = self.restrict(s.sigma, tau, s.c)
            out.add_block(tgt.offset, s.offset, mat,
                          -wedge_insert_sign(ix, nu, s.sigma))

    def trace_row(self):
        """The trace functional on the cell (0, 2n), as a 1 x dim row
        matrix: the sum of the stratum traces over the r = 0
        single-component summands."""
        dat, n = self.datum, self.n
        row = Matrix.zero(1, self.dim(0, 2 * n))
        for s in self.summands(0, 2 * n):
            if s.r == 0:
                row.add_block(0, s.offset,
                              Matrix(1, s.dim, [dat.trace_vec(s.sigma)]))
        return row

    def pairing(self, m, q):
        """Matrix P of the rational pairing between the E1 cells (m, q)
        and (-m, 2n-q): the summand (sigma, r) pairs only with
        (sigma, r+m), through the stratum cup product and trace, with
        coefficient eps(m), as (-1)^(m(q+1)) = 1 when q = m mod 2."""
        dat, n = self.datum, self.n
        out = Matrix.zero(self.dim(m, q), self.dim(-m, 2 * n - q))
        kap = eps(m)
        for s in self.summands(m, q):
            part = self.find(-m, 2 * n - q, (s.sigma, s.r + m))
            if part is None:
                continue
            # twist balance: tw_x + tw_y + (c_x + c_y)/2 = n
            if s.tw + part.tw + (s.c + part.c) // 2 != n:
                raise ConsistencyError("pairing: twist imbalance at "
                                       "m=%d,q=%d for %r"
                                       % (m, q, sorted(s.sigma)))
            gram = dat.ring(s.sigma).gram(s.c, part.c,
                                          dat.trace_vec(s.sigma))
            out.add_block(s.offset, part.offset, gram, kap)
        return out


class PageK(E1Page):
    """The K page: the weight-graded page of the Cech model, truncated
    at weight index m <= m_max (the u-tower is infinite in m)."""

    variant = "K"

    def __init__(self, datum, cells, m_max):
        super().__init__(datum, cells)
        self.m_max = m_max
        self._selfop = {}
        self._ext = {}
        self._signs = {}

    def trusted(self, m):
        """The truncation at m_max cuts the cells of weight index m_max
        off from their d1-sources, so their E2 is too large."""
        return m <= self.m_max - 1

    def _d1_from(self, s, m, q, out):
        entry = self._lookup.get((m - 1, q + 1))
        if entry is None:
            return
        table, tau = entry[0], s.stratum
        ksign = -1 if (len(s.cech) - 1) % 2 else 1
        # stratumwise Gysin; a residue label inside the Cech subset
        # contributes the cup product with the self-intersection class
        ext = self._extensions(tau)
        for nu, _ in ext:
            if nu not in s.sigma:
                continue
            tgt = table.get((s.cech, s.r, s.sigma - {nu}))
            if tgt is None:
                continue
            if nu in s.cech:
                mat = self._self_op(nu, tau, s.c)
            else:
                mat = self.datum.gysin_mat(tau - {nu}, nu, s.c)
            out.add_block(tgt.offset, s.offset, mat,
                          ksign * self._sign(nu, s.sigma))
        # dlog-t part: lowers the u-degree, adds a residue label
        if s.r >= 1:
            for nu, up in ext:
                if nu in s.sigma:
                    continue
                tgt = table.get((s.cech, s.r - 1, s.sigma | {nu}))
                if tgt is None:
                    continue
                out.add_block(tgt.offset, s.offset,
                              self.restrict(tau, up, s.c),
                              ksign * self._sign(nu, s.sigma))
        # Cech coface
        for nu, up in ext:
            if nu in s.cech:
                continue
            tgt = table.get((s.cech | {nu}, s.r, s.sigma))
            if tgt is None:
                continue
            out.add_block(tgt.offset, s.offset, self.restrict(tau, up, s.c),
                          self._sign(nu, s.cech))

    def _sign(self, nu, a):
        """contract_sign or wedge_insert_sign of nu and a, once per page."""
        sign = self._signs.get((nu, a))
        if sign is None:
            f = contract_sign if nu in a else wedge_insert_sign
            sign = self._signs[(nu, a)] = f(self.datum.ix, nu, a)
        return sign

    def _extensions(self, tau):
        """The pairs (nu, tau + nu) with tau + nu in the nerve, in label
        order, built once per page; for nu in tau, tau + nu = tau."""
        if tau not in self._ext:
            self._ext[tau] = [(nu, tau | {nu}) for nu in self.datum.ix.labels
                              if tau | {nu} in self.datum.nerve]
        return self._ext[tau]

    def _self_class(self, nu, tau):
        """Degree-2 self-intersection class of the nu-th component on
        Y_tau.  The restrictions of all components to Y_nu sum to zero
        in the ambient family, so the self-restriction equals minus the
        sum of the Gysin images g_mu(1) over the other components."""
        dat = self.datum
        single = frozenset({nu})
        acc = [Q(0)] * dat.ring(single).dim(2)
        for mu, pair in dat.covers(single):
            v = dat.gysin_mat(single, mu, 0).matvec(dat.ring(pair).unit)
            acc = [a - b for a, b in zip(acc, v)]
        return dat.restrict_mat(single, tau, 2).matvec(acc)

    def _self_op(self, nu, tau, c):
        """Multiplication by _self_class(nu, tau) from degree c of
        Y_tau, built once per page and shared like restrict's
        matrices: only read it."""
        key = (nu, tau, c)
        mat = self._selfop.get(key)
        if mat is None:
            mat = self._selfop[key] = self.datum.ring(tau).mult_operator(
                self._self_class(nu, tau), 2, c)
        return mat

    def trace_row(self):
        """The trace functional on the cell (0, 2n), as a 1 x dim row
        matrix.  Nonzero only on summands with r = 0 and sigma = A
        minus one label nu; the component is
        eps(k) (-1)^k contract_sign(nu, A) times the stratum trace."""
        dat, ix, n = self.datum, self.datum.ix, self.n
        row = Matrix.zero(1, self.dim(0, 2 * n))
        for s in self.summands(0, 2 * n):
            if s.r != 0 or not s.sigma <= s.cech \
                    or len(s.sigma) != len(s.cech) - 1:
                continue
            nu = next(iter(s.cech - s.sigma))
            k = len(s.cech) - 1
            ksign = -1 if k % 2 else 1
            coeff = eps(k) * ksign * contract_sign(ix, nu, s.cech)
            # a trace of another length than s.dim is a ConsistencyError
            row.add_block(0, s.offset,
                          Matrix(1, s.dim, [dat.trace_vec(s.cech)]), coeff)
        return row


def build_e1_A(datum):
    """E1 page of the quotient-model weight spectral sequence."""
    ix = datum.ix
    cells = {}
    for sigma in datum.strata:
        ring = datum.ring(sigma)
        size = len(sigma)
        for r in range(size):
            m = size - 1 - 2 * r
            for c in range(ring.top + 1):
                if ring.dim(c) == 0:
                    continue
                cells.setdefault((m, c + size - 1), []).append(
                    SummandA(sigma, r, c, ring.dim(c)))
    for lst in cells.values():
        lst.sort(key=lambda s: (s.r, ix.subset_key(s.sigma)))
    return PageA(datum, cells)


def build_e1_K(datum):
    """E1 page of the Cech-model weight spectral sequence, truncated
    at weight index m <= m_max = 2n+2: the u-tower extends to
    arbitrarily large m but E2 is supported in |m| <= 2n - |q - n|."""
    m_max = 2 * datum.n + 2
    ix = datum.ix
    # Cech and residue subsets are empty or lie in the (subset-closed) nerve
    keys = {s: ix.subset_key(s) for s in [frozenset()] + datum.strata}
    cells = {}
    for tau in datum.strata:
        ring = datum.ring(tau)
        members = ix.sort(tau)
        degs = [c for c in range(ring.top + 1) if ring.dim(c)]
        for asize in range(1, len(members) + 1):
            for cech_t in combinations(members, asize):
                cech = frozenset(cech_t)
                k = asize - 1
                rest = tau - cech
                for rsize in range(asize + 1):
                    for rho_t in combinations(cech_t, rsize):
                        sigma = rest | frozenset(rho_t)
                        r = 0
                        while len(sigma) - k + 2 * r <= m_max:
                            m = len(sigma) - k + 2 * r
                            for c in degs:
                                cells.setdefault(
                                    (m, c + len(sigma) + k), []).append(
                                    SummandK(cech, r, sigma, c,
                                             ring.dim(c)))
                            r += 1
    for lst in cells.values():
        lst.sort(key=lambda s: (keys[s.cech], s.r, keys[s.sigma]))
    return PageK(datum, cells, m_max)


def phi_e1(page_a, page_k):
    """The comparison map: the A-summand (sigma, r) is sent, for every
    subset A of sigma with |A| >= r+1, to the K-summand
    (A, |A|-1-r, sigma - A) carried by the same stratum cohomology,
    with coefficient (-1)^(|A|-1) chi(A, sigma - A).  Returns the
    components {(m, q): matrix}, one for every cell of the A page."""
    ix = page_a.datum.ix
    comps = {}
    for (m, q), lst in page_a.cells.items():
        out = Matrix.zero(page_k.dim(m, q), page_a.dim(m, q))
        for s in lst:
            members = ix.sort(s.sigma)
            for asize in range(s.r + 1, len(members) + 1):
                for cech_t in combinations(members, asize):
                    cech = frozenset(cech_t)
                    k = asize - 1
                    tgt = page_k.find(m, q,
                                      (cech, k - s.r, s.sigma - cech))
                    if tgt is None:
                        raise ConsistencyError(
                            "phi: no K summand for %r at m=%d,q=%d"
                            % (cech_t, m, q))
                    ksign = -1 if k % 2 else 1
                    coeff = ksign * chi(ix, cech, s.sigma - cech)
                    out.add_block(tgt.offset, s.offset,
                                  Matrix.identity(s.dim), coeff)
        comps[(m, q)] = out
    return comps


def pairing_descent_defect(page, m, q):
    """Q(d1 u, v) + (-1)^q Q(u, d1 v) as a matrix on the E1 cells
    (m+1, q-1) x (-m, 2n-q); zero exactly when the pairing descends
    to E2."""
    n = page.n
    d_left = page.d1(m + 1, q - 1)
    d_right = page.d1(-m, 2 * n - q)
    p_here = page.pairing(m, q)
    p_up = page.pairing(m + 1, q - 1)
    sgn = -1 if q % 2 else 1
    return d_left.transpose() * p_here + (p_up * d_right).scale(sgn)


class LimitMHS:
    """The limit mixed Hodge structure: E2 cells of the A page with
    weights, Hodge types, the operators N and l, the rational pairing
    and the trace, all descended to E2, and its Lefschetz module."""

    def __init__(self, datum):
        self.datum = datum
        self.n = datum.n
        self.page = build_e1_A(datum)
        self.e2 = {}
        for cell in self.page.cell_keys():
            dim, proj, sec = self.page.cohomology(*cell)
            if dim:
                self.e2[cell] = (dim, proj, sec)
        # each E2 cell (m, q) is the whole of gr^W_{q+m} H^q
        self.weights = {}
        self.hodge = {}
        for (m, q) in sorted(self.e2, key=lambda cell: (cell[1], cell[0])):
            dim = self.e2[(m, q)][0]
            self.weights.setdefault(q, {})[q + m] = dim
            self.hodge.setdefault(q, {})[Q(q + m, 2)] = dim
        # descend N and l to E2. N commutes with d1 on every datum: it
        # is the identity (sigma, r) -> (sigma, r+1), and d1 out of
        # (sigma, r) does not depend on r. l does only on valid data.
        self.N = {}
        self.l = {}
        for (m, q), (dim, _, sec) in self.e2.items():
            tn = self.e2.get((m - 2, q))
            self.N[(m, q)] = (tn[1] * self.page.n_mat(m, q) * sec) \
                if tn else Matrix.zero(0, dim)
            tl = self.e2.get((m, q + 2))
            if tl:
                image = self.page.l_mat(m, q) * sec
                wit = first_entry(self.page.d1(m, q + 2) * image)
                if wit:
                    raise StrataError(
                        "l does not descend to E2 from m=%d,q=%d: d1 of its "
                        "image has %s; run validate on the input"
                        % (m, q, wit))
                self.l[(m, q)] = tl[1] * image
        # descend the pairing
        self.Q = {}
        for (m, q), (dim, _, sec) in self.e2.items():
            part = self.e2.get((-m, 2 * self.n - q))
            if part is None:
                continue
            p1 = self.page.pairing(m, q)
            self.Q[(m, q)] = sec.transpose() * p1 * part[2]
        # the trace on H^{2n}
        top = self.e2.get((0, 2 * self.n))
        self.tr = (self.page.trace_row() * top[2]) if top \
            else Matrix.zero(1, 0)
        self.verdicts = self._basic_verdicts()

    def dim(self, m, q):
        entry = self.e2.get((m, q))
        return entry[0] if entry else 0

    def h(self, q):
        return sum(d for (m, qq), (d, _, _) in self.e2.items()
                   if qq == q)

    def _block(self, op, m, q, dm, dq):
        """op's block from E2 (m, q) to (m + dm, q + dq), or zero."""
        blk = op.get((m, q))
        if blk is None:
            blk = Matrix.zero(self.dim(m + dm, q + dq), self.dim(m, q))
        return blk

    def _power(self, op, m, q, dm, dq, i):
        """op^i from E2 (m, q), each step going by (dm, dq)."""
        mat = Matrix.identity(self.dim(m, q))
        for k in range(i):
            mat = self._block(op, m + k * dm, q + k * dq, dm, dq) * mat
        return mat

    def n_block(self, m, q):
        return self._block(self.N, m, q, -2, 0)

    def n_power(self, m, q, i):
        return self._power(self.N, m, q, -2, 0, i)

    def l_power(self, m, q, j):
        return self._power(self.l, m, q, 0, 2, j)

    def q_block(self, m, q):
        blk = self.Q.get((m, q))
        if blk is None:
            blk = Matrix.zero(self.dim(m, q),
                              self.dim(-m, 2 * self.n - q))
        return blk

    # the Lefschetz module: primitive pieces and their forms

    def primitive(self, q, i):
        """P_i inside E2(i, q): kernel of N^{i+1} and of l^{n-q+1}."""
        m1 = self.n_power(i, q, i + 1)
        m2 = self.l_power(i, q, self.n - q + 1)
        return kernel(vstack([m1, m2]))

    def primitive_form(self, q, i):
        """The rational form x -> eps(q) Q(x, l^{n-q} N^i x) on the
        primitive piece P_i of H^q, in the basis of primitive(q, i)."""
        prim = self.primitive(q, i)
        op = self.l_power(-i, q, self.n - q) * self.n_power(i, q, i)
        x = prim.basis
        return prim, (x * self.q_block(i, q) * op * x.transpose()).scale(
            eps(q))

    def _basic_verdicts(self):
        report = Report()
        n = self.n
        # Euler oracle against open-stratum characteristics
        euler = sum((-1 if q % 2 else 1) * self.h(q)
                    for q in range(2 * n + 1))
        oracle = sum(self.datum.euler_open(x)
                     for x in self.datum.ix.labels)
        report.add("euler-oracle", "total", euler == oracle,
                   "%s != %s" % (euler, oracle))
        # weight-support bounds
        bad = [(m, q) for (m, q) in self.e2
               if not (-q <= m <= q
                       and -2 * n + q <= m <= 2 * n - q)]
        report.add("weight-bounds", "all cells", not bad,
                   bad and "cell %r" % (bad[0],))
        # H^{2n}: single weight 2n, trace defined and rational
        report.add("top-weight", "q=%d" % (2 * n),
                   all(m == 0 for (m, q) in self.e2 if q == 2 * n),
                   "weight spread in top degree")
        return report


def compute_limit(datum):
    return LimitMHS(datum)


def pairing(limit):
    """Certify the identities of the pairing descended to E2: descent,
    symmetry, perfectness, orthogonality and N-antisymmetry."""
    report = Report()
    n = limit.n
    page = limit.page
    cells = sorted(limit.e2)
    for (m, q) in cells:
        where = "m=%d,q=%d" % (m, q)
        partner = (-m, 2 * n - q)
        # descent: the E1 pairing is d1-adjoint up to (-1)^q
        report.add_zero("Q-descent", where,
                        pairing_descent_defect(page, m, q))
        if partner not in limit.e2:
            report.add("Q-perfect", where, False, "partner cell missing")
            continue
        qmat = limit.q_block(m, q)
        qback = limit.q_block(*partner)
        sgn = -1 if q % 2 else 1
        report.add("Q-symmetry", where,
                   qback == qmat.transpose().scale(sgn),
                   "Q(y,x) != (-1)^q Q(x,y)")
        report.add("Q-perfect", where,
                   qmat.rows == qmat.cols and rank(qmat) == qmat.rows,
                   "pairing not perfect")
        # F- and W-orthogonality: nonzero components only pair Hodge
        # levels p and n-p and weights w and 2n-w
        px = Q(q + m, 2)
        py = Q(2 * n - q - m, 2)
        report.add("Q-orthogonality", where, px + py == n,
                   "Hodge levels do not balance")
        # N-antisymmetry: Q(Nx, y) + Q(x, Ny) = 0 with
        # x in E2(m,q), y in E2(2-m, 2n-q)
        src_y = (2 - m, 2 * n - q)
        nx = limit.n_block(m, q)
        ny = limit.n_block(*src_y)
        report.add_zero("Q-N-antisymmetry", where,
                        nx.transpose() * limit.q_block(m - 2, q)
                        + limit.q_block(m, q) * ny)
    return report


def verify_polarized(limit):
    """Full polarization report: N-nilpotence, the weight symmetry
    N^i: gr-weight (q+i) -> (q-i), hard Lefschetz across the middle
    degree, and positive definiteness of the primitive forms."""
    report = Report()
    n = limit.n
    for q in range(0, 2 * n + 1):
        ms = sorted(m for (m, qq) in limit.e2 if qq == q)
        if not ms:
            continue
        # (i) N^{q+1} = 0 on H^q
        ok = all(limit.n_power(m, q, q + 1).is_zero() for m in ms)
        report.add("N-nilpotent", "q=%d" % q, ok, "N^%d != 0" % (q + 1))
        # (ii) N^i: weight q+i -> weight q-i is an isomorphism
        for i in range(1, max(ms, default=0) + 1):
            da, db = limit.dim(i, q), limit.dim(-i, q)
            if da == 0 and db == 0:
                continue
            rk = rank(limit.n_power(i, q, i))
            report.add("weight-symmetry", "N^%d at q=%d" % (i, q),
                       da == db and rk == da,
                       "N^%d: dim %d -> dim %d rank %d" % (i, da, db, rk))
    # (iii) hard Lefschetz l^{n-q}: H^q -> H^{2n-q} blockwise
    for q in range(0, n + 1):
        for m in sorted(m for (m, qq) in limit.e2 if qq == q):
            da = limit.dim(m, q)
            db = limit.dim(m, 2 * n - q)
            rk = rank(limit.l_power(m, q, n - q))
            report.add("hard-lefschetz", "l^%d at m=%d,q=%d" % (n - q, m, q),
                       da == db and rk == da,
                       "l^%d: dim %d -> dim %d rank %d" % (n - q, da, db, rk))
    # (iv)+(v) primitive pieces and positivity
    for q in range(0, n + 1):
        for i in range(0, q + 1):
            if limit.dim(i, q) == 0:
                continue
            prim, form = limit.primitive_form(q, i)
            if prim.dim == 0:
                continue
            where = "P_%d at q=%d" % (i, q)
            asym = first_entry(form - form.transpose())
            report.add("primitive-symmetric", where, not asym,
                       "form not symmetric: " + asym)
            report.add("HL-positivity", where,
                       not asym and is_positive_definite(form),
                       "form not symmetric: " + asym if asym else
                       "form not positive definite on a %d-dim piece"
                       % prim.dim)
    return report


def compare_pages(datum):
    """Cross-certification of the two pages: d1 squares to zero, the
    comparison map is a chain map commuting with N and l, the trace
    functional kills d1 and pulls back to the stratum trace sum, and
    the induced map on E2 is a cellwise isomorphism.  E2 dimensions
    come by rank-nullity from one rank per d1; the rank of the induced
    map is rank [B_K ; phi Z_A] - rank B_K (cocycles Z, coboundaries
    B) when phi is a chain map, else read off the E2 quotients."""
    page_a, page_k = build_e1_A(datum), build_e1_K(datum)
    comps = phi_e1(page_a, page_k)

    def phi(m, q):
        if (m, q) in comps:
            return comps[(m, q)]
        return Matrix.zero(page_k.dim(m, q), page_a.dim(m, q))

    n = datum.n
    report = Report()
    for page in (page_a, page_k):
        for (m, q) in page.cell_keys():
            report.add_zero("d1-squared-" + page.variant,
                            "m=%d,q=%d" % (m, q),
                            page.d1(m - 1, q + 1) * page.d1(m, q))
    d1_squares_zero = all_checks_pass(report)
    for (m, q) in page_a.cell_keys():
        where = "m=%d,q=%d" % (m, q)
        report.add_zero("phi-chain-map", where,
                        page_k.d1(m, q) * phi(m, q)
                        - phi(m - 1, q + 1) * page_a.d1(m, q))
        report.add_zero("phi-N-commute", where,
                        page_k.n_mat(m, q) * phi(m, q)
                        - phi(m - 2, q) * page_a.n_mat(m, q))
        report.add_zero("phi-l-commute", where,
                        page_k.l_mat(m, q) * phi(m, q)
                        - phi(m, q + 2) * page_a.l_mat(m, q))
    theta = page_k.trace_row()
    report.add_zero("theta-d1", "cell (1,%d)" % (2 * n - 1),
                    theta * page_k.d1(1, 2 * n - 1))
    report.add("theta-phi-trace", "cell (0,%d)" % (2 * n),
               theta * phi(0, 2 * n) == page_a.trace_row(),
               "theta pulled back along phi differs from the stratum "
               "traces")
    if not d1_squares_zero:
        return report, {}  # E2 is undefined
    chain_map = all(r["ok"] for r in report if r["check"] == "phi-chain-map")
    ranks = {(page, m, q): rank(page.d1(m, q))
             for page in (page_a, page_k) for (m, q) in page.cells}

    def e2_dim(page, m, q):
        # rank-nullity, as d1 squares to zero
        return page.dim(m, q) - ranks.get((page, m, q), 0) \
            - ranks.get((page, m + 1, q - 1), 0)

    cell_dims = {}
    trusted = {(m, q) for page in (page_a, page_k)
               for (m, q) in page.cells if page.trusted(m)}
    for (m, q) in sorted(trusted):
        da, dk = e2_dim(page_a, m, q), e2_dim(page_k, m, q)
        if not (da or dk):
            continue
        cell_dims[(m, q)] = (da, dk)
        if chain_map:
            # phi maps Z_A into Z_K and B_A into B_K, so the image of
            # H(phi) is (B_K + phi Z_A) / B_K; it is 0 if da or dk is
            cycles = kernel(page_a.d1(m, q)).basis
            rk = rank(vstack([page_k.d1(m + 1, q - 1).transpose(),
                              cycles * phi(m, q).transpose()])) \
                - ranks.get((page_k, m + 1, q - 1), 0)
        else:
            rk = rank(page_k.cohomology(m, q)[1] * phi(m, q)
                      * page_a.cohomology(m, q)[2])
        report.add("E2-iso", "m=%d,q=%d" % (m, q), da == dk and rk == da,
                   "E2 dims %d vs %d, induced rank %d" % (da, dk, rk))
    return report, cell_dims
