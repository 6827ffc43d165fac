"""Index combinatorics and Čech complexes of co-cubical complexes.

A co-cubical complex assigns a cochain complex K(sigma) to every
nonempty subset sigma of a finite label set and a compatible map
K(iota): K(sigma) -> K(tau) to every inclusion sigma <= tau.  Its Čech
complex carries the differential delta + (-1)^k partial on the cell of
Čech degree k, the filtrations W and deltaW, and the product tau.

The Čech complex has one cell per subset that carries a complex,
written as its labels in index order (an increasing tuple), so it
computes Čech cohomology, and tau is the Alexander-Whitney cup product.
No pipeline module builds it: `strata` takes `IndexSet` from here, and
`limitpage` only the sign helpers `chi`, `wedge_insert_sign` and
`contract_sign`.

Every orientation sign counts labels before another: (-1) to the
number of labels of a subset that come before a given label in index
order (`_sign_before`).
"""

from itertools import combinations

from .exactlin import Matrix, Subspace, _require, kron
from .homalg import (
    Complex, ChainMap, FilteredComplex, tensor, tensor_offsets, tensor_map,
    zero_complex,
)


class IndexSet:
    def __init__(self, labels):
        labels = list(labels)
        _require(labels, "empty index set")
        _require(len(set(labels)) == len(labels), "labels not distinct")
        self.labels = labels
        self._pos = {x: i for i, x in enumerate(labels)}

    def pos(self, label):
        return self._pos[label]

    def sort(self, labels):
        return tuple(sorted(labels, key=self.pos))

    def subsets(self, size):
        return [frozenset(c) for c in combinations(self.labels, size)]

    def subset_key(self, sigma):
        return tuple(self.pos(x) for x in self.sort(sigma))


def _sign_before(ix, nu, a):
    """(-1) to the number of labels of A before nu."""
    p = ix.pos(nu)
    return -1 if sum(ix.pos(x) < p for x in a) % 2 else 1


def chi(ix, a, b):
    """Sign s with e_A wedge e_B = s * e_{A union B}; A, B disjoint
    subsets with reference generators.  Moving each label of A to its
    place passes the labels of B before it."""
    a, b = frozenset(a), frozenset(b)
    if a & b:
        raise ValueError("subsets not disjoint")
    s = 1
    for x in a:
        s *= _sign_before(ix, x, b)
    return s


def wedge_insert_sign(ix, nu, a):
    """Sign s with e_nu wedge e_A = s * e_{A union {nu}}: moving e_nu
    to its place passes the labels of A before it."""
    if nu in a:
        raise ValueError("subsets not disjoint")
    return _sign_before(ix, nu, a)


def contract_sign(ix, nu, a):
    """Sign s with e_A = s * (e_nu wedge e_{A minus nu}); the inverse of
    e_nu wedge applied to e_A is s * e_{A minus nu}."""
    if nu not in a:
        raise ValueError("label not in subset")
    return _sign_before(ix, nu, a)


class CoCubicalComplex:
    """complexes: {frozenset: Complex}; cover_maps: {(sigma, tau):
    ChainMap} for tau = sigma + one label.  General inclusion maps are
    composites; path independence is the functoriality check."""

    def __init__(self, ix, complexes, cover_maps):
        self.ix = ix
        self.complexes = dict(complexes)
        self.cover_maps = dict(cover_maps)
        self._map_cache = {}
        self._check_functorial()

    def complex(self, sigma):
        return self.complexes[frozenset(sigma)]

    def map(self, sigma, tau):
        """The matrix family of K(iota): K(sigma) -> K(tau)."""
        sigma, tau = frozenset(sigma), frozenset(tau)
        _require(sigma <= tau, "map: source subset not in target")
        key = (sigma, tau)
        if key in self._map_cache:
            return self._map_cache[key]
        src = self.complex(sigma)
        cur = sigma
        out = {p: Matrix.identity(src.dim(p)) for p in src.degrees()}
        for x in self.ix.sort(tau - sigma):
            nxt = cur | {x}
            step = self.cover_maps[(cur, nxt)]
            tgt_c = self.complex(nxt)
            cur_c = self.complex(cur)
            out = {
                p: step.comp(p) * (out[p] if p in out else
                                   Matrix.zero(cur_c.dim(p), src.dim(p)))
                for p in tgt_c.degrees()
            }
            cur = nxt
        self._map_cache[key] = out
        return out

    def _check_functorial(self):
        for (sigma, tau), f in self.cover_maps.items():
            _require(f.source is self.complexes[sigma]
                     and f.target is self.complexes[tau],
                     "cover map %r: not between the complexes of its ends",
                     (sorted(sigma), sorted(tau)))
        for sigma in self.complexes:
            for x, y in combinations(self.ix.labels, 2):
                tau = sigma | {x, y}
                if x in sigma or y in sigma or tau not in self.complexes:
                    continue
                via_x = self._compose((sigma, sigma | {x}),
                                      (sigma | {x}, tau))
                via_y = self._compose((sigma, sigma | {y}),
                                      (sigma | {y}, tau))
                for p in self.complexes[tau].degrees():
                    _require(via_x.get(p) == via_y.get(p),
                             "functoriality fails from %r to %r in "
                             "degree %d", sorted(sigma), sorted(tau), p)

    def _compose(self, step1, step2):
        f1 = self.cover_maps[step1]
        f2 = self.cover_maps[step2]
        return {p: f2.comp(p) * f1.comp(p)
                for p in self.complexes[step2[1]].degrees()}


def tensor_cocubical(k, l):
    """The co-cubical complex sigma -> K(sigma) (x) L(sigma)."""
    _require(k.ix is l.ix or k.ix.labels == l.ix.labels,
             "tensor_cocubical: different index sets")
    complexes = {s: tensor(k.complexes[s], l.complexes[s])
                 for s in k.complexes}
    cover = {}
    for key in k.cover_maps:
        fm = tensor_map(k.cover_maps[key], l.cover_maps[key])
        # rebuild on the shared complex objects
        cover[key] = ChainMap(complexes[key[0]], complexes[key[1]], fm.f)
    return CoCubicalComplex(k.ix, complexes, cover)


class CechComplex:
    """Total Čech complex of a co-cubical complex, which hosts tau.

    The cell of Čech degree k is a (k + 1)-subset that carries a
    complex, written as its labels in index order and listed by k and
    then label positions, so the cells follow the diagram, not the label
    set.  blocks[n] is the ordered list of (k, idx, l, offset, size)
    with k + l = n and idx the tuple.
    """

    def __init__(self, K):
        self.K = K
        self.ix = K.ix
        self.cells = cells = sorted(
            ((len(s) - 1, self.ix.sort(s)) for s in K.complexes),
            key=lambda c: (c[0], [self.ix.pos(x) for x in c[1]]))
        degs = set()
        for k, idx in cells:
            c = K.complex(idx)
            for l in c.degrees():
                if c.dim(l) > 0:
                    degs.add(k + l)
        if not degs:
            self.total = zero_complex()
            self.blocks = {}
            return
        lo, hi = min(degs), max(degs)
        self.blocks = {}
        dims = {}
        for n in range(lo, hi + 1):
            blks = []
            off = 0
            for k, idx in cells:
                l = n - k
                c = K.complex(idx)
                sz = c.dim(l)
                if sz > 0:
                    blks.append((k, idx, l, off, sz))
                    off += sz
            self.blocks[n] = blks
            dims[n] = off
        diffs = {}
        for n in range(lo, hi + 1):
            diffs[n] = self._build_diff(n, dims)
        self.total = Complex(dims, diffs)

    def _build_diff(self, n, dims):
        rows = dims.get(n + 1, 0)
        cols = dims.get(n, 0)
        m = Matrix.zero(rows, cols)
        tgt_blocks = {(k, idx): (off, sz)
                      for k, idx, l, off, sz in self.blocks.get(n + 1, [])}
        for k, idx, l, off, sz in self.blocks.get(n, []):
            stalk = self.K.complex(idx)
            # (-1)^k partial: same cell index, l -> l+1
            t = tgt_blocks.get((k, idx))
            if t is not None:
                m.add_block(t[0], off, stalk.diff(l), 1 if k % 2 == 0 else -1)
            # delta part: Čech degree k -> k+1
            self._delta(m, k, idx, l, off, tgt_blocks)
        return m

    def _delta(self, m, k, lam, l, off, tgt_blocks):
        # component of delta(f) at mu = lam + nu: K(iota)(f_lam) with
        # sign (-1)^i, i the position of nu in mu
        for nu in self.ix.labels:
            if nu in lam:
                continue
            mu = self.ix.sort(lam + (nu,))
            t = tgt_blocks.get((k + 1, mu))
            if t is None:
                continue
            mat = self.K.map(frozenset(lam), frozenset(mu)).get(l)
            if mat is not None:
                m.add_block(t[0], off, mat, _sign_before(self.ix, nu, lam))


def cech_filtration(cechc, filts, delta=False):
    """Filtered structure on the Čech total complex.

    filts: {frozenset: FilteredComplex over K(sigma)}.  W_m of cell
    (k, l) is W_m K^l; with delta=True it is W_{m+k} K^l (the deltaW
    filtration).
    """
    lows = [f.w_weights[0] for f in filts.values()]
    highs = [f.w_weights[-1] for f in filts.values()]
    maxk = max((k for k, _ in cechc.cells), default=0)
    lo = min(lows) - (maxk if delta else 0)
    hi = max(highs)
    w = {}
    for mlevel in range(lo, hi + 1):
        layer = {}
        for n, blks in cechc.blocks.items():
            rows = []
            for k, idx, l, off, sz in blks:
                eff = mlevel + (k if delta else 0)
                sub = filts[frozenset(idx)].w_sub(eff, l)
                rows += [{off + j: x for j, x in brow.items()}
                         for brow in sub.basis.nz]
            layer[n] = Subspace.span(cechc.total.dim(n), rows)
        w[mlevel] = layer
    return FilteredComplex(cechc.total, w)


def tau(cech_k, cech_l, cech_kl):
    """The product morphism C(K) (x) C(L) -> C(K (x) L), the
    Alexander-Whitney cup product.

    tau_{k,l}(f (x) g)_lam = K(iota)(f_{h_k(lam)}) (x)
    L(iota)(g_{t_k(lam)}), with h_k(lam) the first k + 1 labels of the
    increasing tuple lam and t_k(lam) its last l + 1, totaled with the
    sign (-1)^{(p-k)l} where p is the total degree of f and k, l the
    Čech degrees.
    """
    src = tensor(cech_k.total, cech_l.total)
    tgt = cech_kl.total
    comps = {}
    for n in src.degrees():
        m = Matrix.zero(tgt.dim(n), src.dim(n))
        soff = tensor_offsets(cech_k.total, cech_l.total, n)
        tgt_blocks = {(k, idx): (off, sz, l)
                      for k, idx, l, off, sz in cech_kl.blocks.get(n, [])}
        for (p, q), so in soff.items():
            for kf, mu, a, offk, szk in cech_k.blocks.get(p, []):
                for lg, nu, b, offl, szl in cech_l.blocks.get(q, []):
                    if mu[-1] != nu[0]:
                        continue
                    lam = mu + nu[1:]
                    key = (kf + lg, lam)
                    if key not in tgt_blocks:
                        continue
                    toff, tsz, tl = tgt_blocks[key]
                    _require(tl == a + b, "tau: degree %d of the target "
                             "cell is not %d + %d", tl, a, b)
                    sgn = -1 if ((p - kf) * lg) % 2 else 1
                    sig = frozenset(lam)
                    kmat = cech_k.K.map(frozenset(mu), sig).get(a)
                    lmat = cech_l.K.map(frozenset(nu), sig).get(b)
                    if kmat is None or lmat is None:
                        continue
                    # kcols (x) lcols reads f_mu (x) g_nu off the summand
                    # (p, q) and maps it by K(iota) (x) L(iota) into the
                    # summand (a, b) of the stalk (K (x) L)(lam)^{a+b}
                    stoff = tensor_offsets(cech_k.K.complex(sig),
                                           cech_l.K.complex(sig),
                                           a + b)[(a, b)]
                    kcols = Matrix.zero(kmat.rows, cech_k.total.dim(p))
                    kcols.add_block(0, offk, kmat)
                    lcols = Matrix.zero(lmat.rows, cech_l.total.dim(q))
                    lcols.add_block(0, offl, lmat)
                    m.add_block(toff + stoff, so, kron(kcols, lcols), sgn)
        comps[n] = m
    return ChainMap(src, tgt, comps)


def constant_cocubical(ix):
    """K(sigma) = Q in degree 0 with identity maps."""
    complexes = {}
    for size in range(1, len(ix.labels) + 1):
        for s in ix.subsets(size):
            complexes[s] = Complex({0: 1}, {})
    cover = {}
    for s in complexes:
        for x in ix.labels:
            if x in s:
                continue
            t = s | {x}
            cover[(s, t)] = ChainMap(complexes[s], complexes[t],
                                     {0: Matrix.identity(1)})
    return CoCubicalComplex(ix, complexes, cover)
