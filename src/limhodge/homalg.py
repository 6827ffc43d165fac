"""Bounded cochain complexes of finite-dimensional Q-spaces.

Sign conventions: the differential of K[m] is (-1)^m d_K; the cone of
f: K -> L is C(f)^p = K^{p+1} (+) L^p with d(x,y) = (-dx, f(x)+dy),
alpha(f)(y) = (0,y), beta(f)(x,y) = -x; the tensor differential is
d (x) 1 + (-1)^p 1 (x) d; the identification K[a] (x) L[b] ->
(K (x) L)[a+b] carries the sign (-1)^{pb} on K[a]^p (x) L[b]^q.
"""

from fractions import Fraction as Q

from .exactlin import (
    ConsistencyError, Matrix, Subspace, kernel, image, quotient, rank,
    solve, hstack, block_diag,
)


class Complex:
    """Bounded cochain complex over Q.

    dims: map degree -> dimension (zero outside [lo, hi]);
    d: map degree p -> Matrix of shape (dim(p+1), dim(p)).
    """

    def __init__(self, dims, diffs, check=True):
        self.dims = {p: n for p, n in dims.items() if n > 0 or p in dims}
        degs = [p for p, n in dims.items() if n > 0]
        self.lo = min(degs) if degs else 0
        self.hi = max(degs) if degs else 0
        self.d = {}
        for p in range(self.lo, self.hi + 1):
            m = diffs.get(p)
            if m is None:
                m = Matrix.zero(self.dim(p + 1), self.dim(p))
            if (m.rows, m.cols) != (self.dim(p + 1), self.dim(p)):
                raise ConsistencyError("differential shape at degree", p)
            self.d[p] = m
        if check:
            for p in range(self.lo, self.hi):
                if not (self.d[p + 1] * self.d[p]).is_zero():
                    raise ConsistencyError("d^2 != 0 at degree", p)
        self._coh = {}

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        for p in range(lo, hi + 1):
            if self.dim(p) != other.dim(p):
                return False
            if self.diff(p) != other.diff(p):
                return False
        return True

    __hash__ = None

    def dim(self, p):
        return self.dims.get(p, 0)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def diff(self, p):
        return self.d.get(p, Matrix.zero(self.dim(p + 1), self.dim(p)))

    def cohomology(self, p):
        """(dim, proj, sec) for H^p = ker d^p / im d^{p-1}.

        proj maps cocycles in degree p to class coordinates; sec picks
        representative cocycles.
        """
        if p not in self._coh:
            z = kernel(self.diff(p))
            b = image(self.diff(p - 1))
            self._coh[p] = quotient(z, b)
        return self._coh[p]

    def betti(self, p):
        return self.cohomology(p)[0]

    def total_cohomology_dims(self):
        return {p: self.betti(p) for p in self.degrees()
                if self.betti(p) > 0}


def zero_complex():
    return Complex({0: 0}, {})


class ChainMap:
    def __init__(self, source, target, components, check=True):
        self.source = source
        self.target = target
        self.f = {}
        lo = min(source.lo, target.lo)
        hi = max(source.hi, target.hi)
        for p in range(lo, hi + 1):
            m = components.get(p)
            if m is None:
                m = Matrix.zero(target.dim(p), source.dim(p))
            assert m.rows == target.dim(p) and m.cols == source.dim(p), \
                ("chain map shape at degree", p)
            self.f[p] = m
        if check:
            for p in range(lo, hi):
                lhs = self.target.diff(p) * self.comp(p)
                rhs = self.comp(p + 1) * self.source.diff(p)
                assert lhs == rhs, ("chain map does not commute with d at", p)

    def comp(self, p):
        return self.f.get(p, Matrix.zero(self.target.dim(p),
                                         self.source.dim(p)))

    def induced_on_cohomology(self, p):
        """Matrix H^p(source) -> H^p(target)."""
        hs, _, sec_s = self.source.cohomology(p)
        ht, proj_t, _ = self.target.cohomology(p)
        return proj_t * self.comp(p) * sec_s


def shift(k, m):
    """K[m]: degree p of the result is degree p+m of K, d -> (-1)^m d."""
    dims = {p - m: k.dim(p) for p in k.degrees()}
    sign = Q(1) if m % 2 == 0 else Q(-1)
    diffs = {p - m: k.diff(p).scale(sign) for p in k.degrees()}
    return Complex(dims, diffs, check=False)


def shift_map(f, m):
    """f[m]: same component matrices, shifted degrees."""
    return ChainMap(shift(f.source, m), shift(f.target, m),
                    {p - m: f.comp(p) for p in f.f}, check=False)


def tensor_summands(k, l, n):
    """Ordered summand list [(p, q)] with p+q = n, p ascending."""
    out = []
    for p in k.degrees():
        q = n - p
        if k.dim(p) > 0 and l.dim(q) > 0:
            out.append((p, q))
    return out


def tensor(k, l):
    """Total complex of K (x) L with the Koszul-sign differential."""
    lo, hi = k.lo + l.lo, k.hi + l.hi
    dims = {}
    for n in range(lo, hi + 1):
        dims[n] = sum(k.dim(p) * l.dim(n - p) for p, _ in
                      tensor_summands(k, l, n))
    if not any(dims.values()):
        return zero_complex()
    offsets = {}
    for n in range(lo, hi + 1):
        off = {}
        pos = 0
        for p, q in tensor_summands(k, l, n):
            off[(p, q)] = pos
            pos += k.dim(p) * l.dim(q)
        offsets[n] = off
    diffs = {}
    for n in range(lo, hi + 1):
        m = Matrix.zero(dims.get(n + 1, 0), dims.get(n, 0))
        for (p, q), src_off in offsets[n].items():
            dk, dl = k.dim(p), l.dim(q)
            # d_K (x) 1 into summand (p+1, q)
            tgt = offsets.get(n + 1, {}).get((p + 1, q))
            if tgt is not None:
                dmat = k.diff(p)
                for i in range(k.dim(p + 1)):
                    for j in range(dk):
                        c = dmat.a[i][j]
                        if c == 0:
                            continue
                        for b in range(dl):
                            m.a[tgt + i * dl + b][src_off + j * dl + b] += c
            # (-1)^p 1 (x) d_L into summand (p, q+1)
            tgt = offsets.get(n + 1, {}).get((p, q + 1))
            if tgt is not None:
                s = Q(1) if p % 2 == 0 else Q(-1)
                dmat = l.diff(q)
                for a_ in range(dk):
                    for i in range(l.dim(q + 1)):
                        for j in range(dl):
                            c = dmat.a[i][j]
                            if c == 0:
                                continue
                            m.a[tgt + a_ * l.dim(q + 1) + i][
                                src_off + a_ * dl + j] += s * c
        diffs[n] = m
    return Complex(dims, diffs)


def tensor_offsets(k, l, n):
    """{(p, q): offset} into the basis of (K (x) L)^n."""
    off = {}
    pos = 0
    for p, q in tensor_summands(k, l, n):
        off[(p, q)] = pos
        pos += k.dim(p) * l.dim(q)
    return off


def tensor_map(f, g):
    """f (x) g as a chain map tensor(sources) -> tensor(targets).

    Both f and g have degree 0, so no Koszul sign enters.
    """
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    comps = {}
    for n in src.degrees():
        m = Matrix.zero(tgt.dim(n), src.dim(n))
        soff = tensor_offsets(f.source, g.source, n)
        toff = tensor_offsets(f.target, g.target, n)
        for (p, q), so in soff.items():
            if (p, q) not in toff:
                fa = f.comp(p)
                ga = g.comp(q)
                assert fa.rows == 0 or ga.rows == 0
                continue
            to = toff[(p, q)]
            fa = f.comp(p)
            ga = g.comp(q)
            for i1 in range(fa.rows):
                for j1 in range(fa.cols):
                    c1 = fa.a[i1][j1]
                    if c1 == 0:
                        continue
                    for i2 in range(ga.rows):
                        for j2 in range(ga.cols):
                            c2 = ga.a[i2][j2]
                            if c2 == 0:
                                continue
                            m.a[to + i1 * ga.rows + i2][
                                so + j1 * ga.cols + j2] += c1 * c2
        comps[n] = m
    return ChainMap(src, tgt, comps)


def tensor_assoc(a, b, c):
    """The regrouping isomorphism (A (x) B) (x) C -> A (x) (B (x) C)
    (a permutation of basis vectors, no signs)."""
    ab = tensor(a, b)
    bc = tensor(b, c)
    src = tensor(ab, c)
    tgt = tensor(a, bc)
    comps = {}
    for n in src.degrees():
        m = Matrix.zero(tgt.dim(n), src.dim(n))
        soff = tensor_offsets(ab, c, n)
        toff = tensor_offsets(a, bc, n)
        for (pq, r), so in soff.items():
            aboff = tensor_offsets(a, b, pq)
            for (p, q), abo in aboff.items():
                bcoff = tensor_offsets(b, c, q + r)
                to = toff[(p, q + r)] + 0
                bco = bcoff[(q, r)]
                da, db, dc = a.dim(p), b.dim(q), c.dim(r)
                dbc = bc.dim(q + r)
                for i in range(da):
                    for j in range(db):
                        for k_ in range(dc):
                            col = so + (abo + i * db + j) * dc + k_
                            row = to + i * dbc + bco + j * dc + k_
                            m.a[row][col] = Q(1)
        comps[n] = m
    return ChainMap(src, tgt, comps)


def shift_tensor_iso(k, l, a, b):
    """The isomorphism K[a] (x) L[b] -> (K (x) L)[a+b].

    On the summand K[a]^p (x) L[b]^q it is (-1)^{pb} times the identity
    under the tautological identification of underlying spaces.
    """
    ka, lb = shift(k, a), shift(l, b)
    src = tensor(ka, lb)
    tgt = shift(tensor(k, l), a + b)
    comps = {}
    for n in src.degrees():
        m = Matrix.zero(tgt.dim(n), src.dim(n))
        # src summand (p, q): K[a]^p = K^{p+a}, L[b]^q = L^{q+b};
        # tgt summand at degree n+a+b of K (x) L: (p+a, q+b).
        src_off = {}
        pos = 0
        for p, q in tensor_summands(ka, lb, n):
            src_off[(p, q)] = pos
            pos += ka.dim(p) * lb.dim(q)
        tgt_off = {}
        pos = 0
        for pp, qq in tensor_summands(k, l, n + a + b):
            tgt_off[(pp, qq)] = pos
            pos += k.dim(pp) * l.dim(qq)
        for (p, q), so in src_off.items():
            to = tgt_off[(p + a, q + b)]
            s = Q(1) if (p * b) % 2 == 0 else Q(-1)
            sz = ka.dim(p) * lb.dim(q)
            for i in range(sz):
                m.a[to + i][so + i] = s
        comps[n] = m
    return ChainMap(src, tgt, comps)


def cone(f):
    """Mapping cone C(f)^p = K^{p+1} (+) L^p; returns (C, alpha, beta).

    alpha(f): L -> C(f), y -> (0, y); beta(f): C(f) -> K[1],
    (x, y) -> -x.
    """
    k, l = f.source, f.target
    lo = min(k.lo - 1, l.lo)
    hi = max(k.hi - 1, l.hi)
    dims = {p: k.dim(p + 1) + l.dim(p) for p in range(lo, hi + 1)}
    diffs = {}
    for p in range(lo, hi + 1):
        dk1, dl = k.dim(p + 1), l.dim(p)
        rows = k.dim(p + 2) + l.dim(p + 1)
        m = Matrix.zero(rows, dk1 + dl)
        dkm = k.diff(p + 1)
        for i in range(k.dim(p + 2)):
            for j in range(dk1):
                m.a[i][j] = -dkm.a[i][j]
        fm = f.comp(p + 1)
        for i in range(l.dim(p + 1)):
            for j in range(dk1):
                m.a[k.dim(p + 2) + i][j] = fm.a[i][j]
        dlm = l.diff(p)
        for i in range(l.dim(p + 1)):
            for j in range(dl):
                m.a[k.dim(p + 2) + i][dk1 + j] = dlm.a[i][j]
        diffs[p] = m
    c = Complex(dims, diffs)
    alpha = ChainMap(l, c, {
        p: Matrix.from_rows(
            [[Q(0)] * l.dim(p) for _ in range(k.dim(p + 1))]
            + Matrix.identity(l.dim(p)).to_lists(), cols=l.dim(p))
        for p in range(lo, hi + 1)})
    k1 = shift(k, 1)
    beta = ChainMap(c, k1, {
        p: hstack([Matrix.identity(k.dim(p + 1)).scale(-1),
                   Matrix.zero(k.dim(p + 1), l.dim(p))])
        for p in range(lo, hi + 1)})
    return c, alpha, beta


def zeta(f, m):
    """The isomorphism C(f)[m] -> C(f[m]), (x, y) -> ((-1)^m x, y)."""
    c, _, _ = cone(f)
    cm = shift(c, m)
    fm = shift_map(f, m)
    cfm, _, _ = cone(fm)
    s = Q(1) if m % 2 == 0 else Q(-1)
    comps = {}
    for p in cm.degrees():
        dk = f.source.dim(p + m + 1)
        dl = f.target.dim(p + m)
        blk = block_diag([Matrix.identity(dk).scale(s),
                          Matrix.identity(dl)])
        comps[p] = blk
    return ChainMap(cm, cfm, comps)


def check_exact(f, g):
    """Check 0 -> K -f-> L -g-> M -> 0 is exact degreewise."""
    k, l, m = f.source, f.target, g.target
    assert g.source is l or g.source == l
    lo = min(k.lo, l.lo, m.lo)
    hi = max(k.hi, l.hi, m.hi)
    for p in range(lo, hi + 1):
        fp, gp = f.comp(p), g.comp(p)
        rank_f, rank_g = rank(fp), rank(gp)
        if rank_f != k.dim(p):
            raise ValueError("not exact: f not injective at degree %d" % p)
        if rank_g != m.dim(p):
            raise ValueError("not exact: g not surjective at degree %d" % p)
        if not (gp * fp).is_zero() or rank_f + rank_g != l.dim(p):
            raise ValueError("not exact: im f != ker g at degree %d" % p)


def connecting(f, g):
    """Connecting morphism of 0 -> K -> L -> M -> 0 on cohomology.

    Computed by the zigzag through the cone of f: a class of H^p(M) is
    lifted to a cocycle (x, y) of C(f) with g(y) representing it, and
    sent to beta(x, y) = -x; this equals the classical lift-d-pullback
    connecting homomorphism.

    Returns {p: Matrix H^p(M) -> H^{p+1}(K)}.
    """
    check_exact(f, g)
    k, l, m = f.source, f.target, g.target
    out = {}
    lo = min(k.lo, l.lo, m.lo)
    hi = max(k.hi, l.hi, m.hi)
    for p in range(lo, hi + 1):
        hm, _, sec_m = m.cohomology(p)
        hk, proj_k, _ = k.cohomology(p + 1)
        mat = Matrix.zero(hk, hm)
        for j in range(hm):
            z = [sec_m.a[i][j] for i in range(m.dim(p))]
            y = solve(g.comp(p), z)
            assert y is not None
            dy = l.diff(p).matvec(y)
            x = solve(f.comp(p + 1), dy)
            assert x is not None
            cls = proj_k.matvec(x)
            for i in range(hk):
                mat.a[i][j] = cls[i]
        out[p] = mat
    return out


class FilteredComplex:
    """Complex with an increasing filtration W by subcomplexes (and an
    optional decreasing F)."""

    def __init__(self, complex_, w, f=None, check=True):
        self.complex = complex_
        # w: {m: {p: Subspace}}; missing degrees default to zero space.
        self.w_weights = sorted(w)
        self.w = w
        self.f = f
        if check:
            self._validate()
        self._gr_cache = {}

    def _validate(self):
        c = self.complex
        assert self.w_weights, "empty filtration"
        top = self.w_weights[-1]
        for p in c.degrees():
            assert self.w_sub(top, p).dim == c.dim(p), \
                "W not exhaustive at degree %d" % p
            prev = None
            for m in self.w_weights:
                cur = self.w_sub(m, p)
                if prev is not None:
                    assert cur.contains(prev), \
                        ("W not increasing at", m, p)
                prev = cur
        for m in self.w_weights:
            for p in c.degrees():
                img = self.w_sub(m, p).image_under(c.diff(p))
                assert self.w_sub(m, p + 1).contains(img), \
                    ("d does not preserve W", m, p)

    def w_sub(self, m, p):
        n = self.complex.dim(p)
        if m < self.w_weights[0]:
            return Subspace.zero(n)
        if m > self.w_weights[-1]:
            m = self.w_weights[-1]
        while m not in self.w:
            m -= 1
        return self.w[m].get(p, Subspace.zero(n))

    def shifted(self, k_):
        """The filtered complex (K[k], W[k]) with W[k]_m = W_{m-k}."""
        c = shift(self.complex, k_)
        w = {m + k_: {p - k_: s for p, s in layer.items()}
             for m, layer in self.w.items()}
        return FilteredComplex(c, w, check=False)

    def gr(self, m):
        """(Complex gr_m, proj {p: Matrix}, sec {p: Matrix})."""
        if m in self._gr_cache:
            return self._gr_cache[m]
        c = self.complex
        dims, projs, secs = {}, {}, {}
        for p in c.degrees():
            d, pr, se = quotient(self.w_sub(m, p), self.w_sub(m - 1, p))
            dims[p] = d
            projs[p] = pr
            secs[p] = se
        diffs = {p: projs.get(p + 1,
                              Matrix.zero(0, c.dim(p + 1))) * c.diff(p)
                 * secs[p]
                 for p in c.degrees() if p + 1 in projs}
        grc = Complex(dims, diffs)
        self._gr_cache[m] = (grc, projs, secs)
        return self._gr_cache[m]

    def gysin(self, m):
        """gamma_m: H^p(gr_m) -> H^{p+1}(gr_{m-1}), the connecting map of
        0 -> gr_{m-1} -> W_m/W_{m-2} -> gr_m -> 0."""
        c = self.complex
        grm, proj_m, sec_m = self.gr(m)
        grm1, proj_m1, sec_m1 = self.gr(m - 1)
        mid_dims, mid_proj, mid_sec = {}, {}, {}
        for p in c.degrees():
            d, pr, se = quotient(self.w_sub(m, p), self.w_sub(m - 2, p))
            mid_dims[p] = d
            mid_proj[p] = pr
            mid_sec[p] = se
        mid_diffs = {p: mid_proj[p + 1] * c.diff(p) * mid_sec[p]
                     for p in c.degrees() if p + 1 in mid_proj}
        mid = Complex(mid_dims, mid_diffs)
        fmap = ChainMap(grm1, mid,
                        {p: mid_proj[p] * sec_m1[p] for p in c.degrees()})
        gmap = ChainMap(mid, grm,
                        {p: proj_m[p] * mid_sec[p] for p in c.degrees()})
        return connecting(fmap, gmap)


def gr_map(kf, m, f_components):
    """Induced map gr_m -> gr_{m-1}[1] of a degree-1 map f with
    f(W_a) subset W_{a-1} in the next degree; returns {p: Matrix}."""
    _, proj_m1, _ = kf.gr(m - 1)
    _, _, sec_m = kf.gr(m)
    out = {}
    for p in kf.complex.degrees():
        fm = f_components.get(p)
        if fm is None or p + 1 not in proj_m1:
            continue
        out[p] = proj_m1[p + 1] * fm * sec_m[p]
    return out


class SpectralPage:
    def __init__(self, page_index, cells, diffs, proj=None, sec=None):
        self.page_index = page_index
        self.cells = cells      # {(p, q): dim}
        self.diffs = diffs      # {(p, q): Matrix to (p+r, q-r+1)}
        self.proj = proj or {}
        self.sec = sec or {}

    def dim(self, p, q):
        return self.cells.get((p, q), 0)

    def diff(self, p, q):
        r = self.page_index
        return self.diffs.get(
            (p, q), Matrix.zero(self.dim(p + r, q - r + 1), self.dim(p, q)))


def spectral(kf):
    """E1 and E2 pages of the W-spectral sequence.

    E1^{p,q} = H^{p+q}(gr_{-p}); d1 is the Gysin connecting map; E2 is
    the cohomology of (E1, d1). Returns (e1, e2, degeneration_ok) where
    degeneration_ok reports whether sum_p dim E2^{p,q} over p+q = n
    equals dim H^n of the total complex for every n.
    """
    c = kf.complex
    weights = range(kf.w_weights[0], kf.w_weights[-1] + 1)
    e1_cells, e1_diffs = {}, {}
    gys = {m: kf.gysin(m) for m in weights}
    for m in weights:
        grm, _, _ = kf.gr(m)
        p = -m
        for deg in c.degrees():
            q = deg - p
            h = grm.betti(deg)
            if h:
                e1_cells[(p, q)] = h
            mat = gys[m].get(deg)
            if mat is not None and (h or mat.cols):
                e1_diffs[(p, q)] = mat
    e1 = SpectralPage(1, e1_cells, e1_diffs)
    e2_cells, e2_proj, e2_sec = {}, {}, {}
    for (p, q) in sorted(e1_cells):
        dout = e1.diff(p, q)
        din = e1.diff(p - 1, q)
        z = kernel(dout)
        b = image(din)
        dim2, pr, se = quotient(z, b)
        if dim2:
            e2_cells[(p, q)] = dim2
        e2_proj[(p, q)] = pr
        e2_sec[(p, q)] = se
    e2 = SpectralPage(2, e2_cells, {}, e2_proj, e2_sec)
    ok = True
    for n in c.degrees():
        tot = sum(d for (p, q), d in e2_cells.items() if p + q == n)
        if tot != c.betti(n):
            ok = False
    return e1, e2, ok


def einf_dims_by_total_degree(kf):
    """dim E_inf summed per total degree, via the standard Z/B formula
    with F^p = W_{-p}; equals {n: dim H^n} once the sequence converges."""
    c = kf.complex
    # Run pages until stabilization by computing E_r dims directly.
    lo_w, hi_w = kf.w_weights[0], kf.w_weights[-1]
    span = hi_w - lo_w + 2

    def w_at(m, p):
        return kf.w_sub(m, p)

    def z_r(r, m, deg):
        # {x in W_m C^deg : dx in W_{m-r} C^{deg+1}}
        return w_at(m, deg).preimage_under(c.diff(deg), w_at(m - r, deg + 1))

    out = {}
    r = span + 1
    for deg in c.degrees():
        tot = 0
        for m in range(lo_w, hi_w + 1):
            zr = z_r(r, m, deg)
            zprev = z_r(r - 1, m - 1, deg)
            dz = z_r(r - 1, m + r - 1, deg - 1).image_under(c.diff(deg - 1))
            denom = zprev.sum(dz).intersect(zr)
            tot += zr.dim - denom.dim
        out[deg] = tot
    return out
