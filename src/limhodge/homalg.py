"""Bounded cochain complexes of finite-dimensional Q-spaces.

Sign conventions: the differential of K[m] is (-1)^m d_K; the cone of
f: K -> L is C(f)^p = K^{p+1} (+) L^p with d(x,y) = (-dx, f(x)+dy),
alpha(f)(y) = (0,y), beta(f)(x,y) = -x; the tensor differential is
d (x) 1 + (-1)^p 1 (x) d.  A filtered complex carries an increasing
filtration W by subcomplexes.
"""

from fractions import Fraction as Q

from .exactlin import (
    ConsistencyError, Matrix, Subspace, kernel, image, quotient, rank,
    solve, hstack, vstack, block_diag, kron,
)


class Complex:
    """Bounded cochain complex over Q.

    dims: map degree -> dimension (zero outside [lo, hi]);
    d: map degree p -> Matrix of shape (dim(p+1), dim(p)).
    """

    def __init__(self, dims, diffs):
        self.dims = dict(dims)
        degs = [p for p, n in dims.items() if n > 0]
        self.lo = min(degs) if degs else 0
        self.hi = max(degs) if degs else 0
        self.d = {}
        for p in range(self.lo, self.hi + 1):
            m = diffs.get(p)
            if m is None:
                m = Matrix.zero(self.dim(p + 1), self.dim(p))
            if (m.rows, m.cols) != (self.dim(p + 1), self.dim(p)):
                raise ConsistencyError(
                    "differential at degree %d: expected %dx%d, got %dx%d"
                    % (p, self.dim(p + 1), self.dim(p), m.rows, m.cols))
            self.d[p] = m
        for p in range(self.lo, self.hi):
            if not (self.d[p + 1] * self.d[p]).is_zero():
                raise ConsistencyError("d^2 != 0 at degree %d" % p)
        self._ranks = {}

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
        d = self.d.get(p)
        return Matrix.zero(self.dim(p + 1), self.dim(p)) if d is None else d

    def cohomology(self, p):
        """(dim, proj, sec) for H^p = ker d^p / im d^{p-1}.

        proj maps cocycles in degree p to class coordinates; sec picks
        representative cocycles.
        """
        return quotient(kernel(self.diff(p)), image(self.diff(p - 1)))

    def _rank_d(self, p):
        """rank d^p, computed once per degree."""
        if p not in self._ranks:
            self._ranks[p] = rank(self.d[p]) if p in self.d else 0
        return self._ranks[p]

    def betti(self, p):
        """dim H^p by rank-nullity: dim(p) - rank d^p - rank d^{p-1},
        as the constructor checks d^2 = 0."""
        if not self.dim(p):
            return 0
        return self.dim(p) - self._rank_d(p) - self._rank_d(p - 1)


def zero_complex():
    return Complex({0: 0}, {})


class ChainMap:
    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.f = {}
        lo = min(source.lo, target.lo)
        hi = max(source.hi, target.hi)
        for p in range(lo, hi + 1):
            m = components.get(p)
            if m is None:
                m = Matrix.zero(target.dim(p), source.dim(p))
            if (m.rows, m.cols) != (target.dim(p), source.dim(p)):
                raise ConsistencyError("chain map: %dx%d component at "
                                       "degree %d" % (m.rows, m.cols, p))
            self.f[p] = m
        for p in range(lo, hi):
            lhs = self.target.diff(p) * self.comp(p)
            rhs = self.comp(p + 1) * self.source.diff(p)
            if lhs != rhs:
                raise ConsistencyError("chain map does not commute "
                                       "with d at degree %d" % p)

    def comp(self, p):
        m = self.f.get(p)
        return Matrix.zero(self.target.dim(p), self.source.dim(p)) \
            if m is None else m

    def induced_on_cohomology(self, p):
        """Matrix H^p(source) -> H^p(target)."""
        _, _, sec_s = self.source.cohomology(p)
        _, proj_t, _ = self.target.cohomology(p)
        return proj_t * self.comp(p) * sec_s


def shift(k, m):
    """K[m]: degree p of the result is degree p+m of K, d -> (-1)^m d."""
    dims = {p - m: k.dim(p) for p in k.degrees()}
    sign = Q(1) if m % 2 == 0 else Q(-1)
    diffs = {p - m: k.diff(p).scale(sign) for p in k.degrees()}
    return Complex(dims, diffs)


def shift_map(f, m):
    """f[m]: same component matrices, shifted degrees."""
    return ChainMap(shift(f.source, m), shift(f.target, m),
                    {p - m: f.comp(p) for p in f.f})


def tensor(k, l):
    """Total complex of K (x) L with the Koszul-sign differential."""
    lo, hi = k.lo + l.lo, k.hi + l.hi
    dims = {n: sum(k.dim(p) * l.dim(n - p) for p in k.degrees())
            for n in range(lo, hi + 1)}
    offsets = {n: tensor_offsets(k, l, n) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo, hi + 1):
        m = Matrix.zero(dims.get(n + 1, 0), dims.get(n, 0))
        for (p, q), src_off in offsets[n].items():
            dk, dl = k.dim(p), l.dim(q)
            # d_K (x) 1 into summand (p+1, q)
            tgt = offsets.get(n + 1, {}).get((p + 1, q))
            if tgt is not None:
                m.add_block(tgt, src_off,
                            kron(k.diff(p), Matrix.identity(dl)))
            # (-1)^p 1 (x) d_L into summand (p, q+1)
            tgt = offsets.get(n + 1, {}).get((p, q + 1))
            if tgt is not None:
                m.add_block(tgt, src_off,
                            kron(Matrix.identity(dk), l.diff(q)),
                            1 if p % 2 == 0 else -1)
        diffs[n] = m
    return Complex(dims, diffs)


def tensor_offsets(k, l, n):
    """{(p, q): offset} into the basis of (K (x) L)^n: the summands
    K^p (x) L^q, p + q = n, of nonzero dimension, p ascending."""
    off = {}
    pos = 0
    for p in k.degrees():
        size = k.dim(p) * l.dim(n - p)
        if size:
            off[(p, n - p)] = pos
            pos += size
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
            fa = f.comp(p)
            ga = g.comp(q)
            if (p, q) not in toff:
                if fa.rows and ga.rows:
                    raise ConsistencyError("tensor_map: no target summand "
                                           "(%d, %d)" % (p, q))
                continue
            m.add_block(toff[(p, q)], so, kron(fa, ga))
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
            dc = c.dim(r)
            for (p, q), abo in tensor_offsets(a, b, pq).items():
                # move embeds B^q (x) C^r at its offset in (B (x) C)^{q+r}
                move = Matrix.zero(bc.dim(q + r), b.dim(q) * dc)
                move.add_block(tensor_offsets(b, c, q + r)[(q, r)], 0,
                               Matrix.identity(b.dim(q) * dc))
                m.add_block(toff[(p, q + r)], so + abo * dc,
                            kron(Matrix.identity(a.dim(p)), move))
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
        m.add_block(0, 0, k.diff(p + 1), -1)
        m.add_block(k.dim(p + 2), 0, f.comp(p + 1))
        m.add_block(k.dim(p + 2), dk1, l.diff(p))
        diffs[p] = m
    c = Complex(dims, diffs)
    alpha = ChainMap(l, c, {
        p: vstack([Matrix.zero(k.dim(p + 1), l.dim(p)),
                   Matrix.identity(l.dim(p))])
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
    if not (g.source is l or g.source == l):
        raise ConsistencyError("check_exact: g does not start at the "
                               "target of f")
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
        _, _, sec_m = m.cohomology(p)
        _, proj_k, _ = k.cohomology(p + 1)
        y = solve(g.comp(p), sec_m)
        if y is None:
            raise ConsistencyError("connecting: no lift through g at "
                                   "degree %d" % p)
        x = solve(f.comp(p + 1), l.diff(p) * y)
        if x is None:
            raise ConsistencyError("connecting: d of the lift is not "
                                   "in the image of f at degree %d" % p)
        out[p] = proj_k * x
    return out


class FilteredComplex:
    """Complex with an increasing filtration W by subcomplexes."""

    def __init__(self, complex_, w):
        self.complex = complex_
        # w: {m: {p: Subspace}}; missing degrees default to zero space.
        self.w_weights = sorted(w)
        self.w = w
        self._validate()

    def _validate(self):
        c = self.complex
        if not self.w_weights:
            raise ConsistencyError("empty filtration")
        top = self.w_weights[-1]
        for p in c.degrees():
            if self.w_sub(top, p).dim != c.dim(p):
                raise ConsistencyError("W not exhaustive at degree %d" % p)
            for m0, m in zip(self.w_weights, self.w_weights[1:]):
                if not self.w_sub(m, p).contains(self.w_sub(m0, p)):
                    raise ConsistencyError("W not increasing at weight %d, "
                                           "degree %d" % (m, p))
        for m in self.w_weights:
            for p in c.degrees():
                img = self.w_sub(m, p).image_under(c.diff(p))
                if not self.w_sub(m, p + 1).contains(img):
                    raise ConsistencyError("d does not preserve W at "
                                           "weight %d, degree %d" % (m, p))

    def w_sub(self, m, p):
        n = self.complex.dim(p)
        if m < self.w_weights[0]:
            return Subspace.zero(n)
        if m > self.w_weights[-1]:
            m = self.w_weights[-1]
        while m not in self.w:
            m -= 1
        return self.w[m].get(p, Subspace.zero(n))
