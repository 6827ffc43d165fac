import ast
import itertools
import os
import random
from fractions import Fraction as Q

import pytest

from limhodge.exactlin import Matrix, Subspace
from limhodge.homalg import (
    Complex, ChainMap, FilteredComplex, tensor, tensor_map, tensor_assoc,
    tensor_offsets,
)
from limhodge.cubical import (
    IndexSet, chi, wedge_insert_sign, contract_sign, CoCubicalComplex,
    tensor_cocubical, CechComplex, cech_filtration, tau, constant_cocubical,
)
from limhodge.strata import (
    fixture_projective_space, fixture_cycle_of_p1, fixture_product_with_p1,
)
from limhodge.limitpage import compute_limit

from test_cli import _run_python


def inversion_sign(labels, lam):
    """The reference for `chi`: the sign of the permutation that sorts
    lam into the order of labels, (-1) to its number of inversions."""
    pos = [labels.index(x) for x in lam]
    inversions = sum(pos[i] > pos[j] for i in range(len(pos))
                     for j in range(i + 1, len(pos)))
    return -1 if inversions % 2 else 1


def test_chi_matches_inversion_parity():
    """chi(A, B) is the sign of e_sort(A) wedge e_sort(B) against
    e_sort(A union B), on every disjoint pair of subsets of a label set
    in an order that is not the order of the labels' names."""
    labels = list("abcdef")
    random.Random(5).shuffle(labels)
    ix = IndexSet(labels)
    subsets = [frozenset(c) for size in range(len(labels) + 1)
               for c in itertools.combinations(labels, size)]
    pairs = 0
    for a in subsets:
        for b in subsets:
            if a & b:
                continue
            lam = sorted(a, key=labels.index) + sorted(b, key=labels.index)
            assert chi(ix, a, b) == inversion_sign(labels, lam), (a, b)
            pairs += 1
    assert pairs == 3 ** len(labels)


def test_chi_antisymmetry():
    ix = IndexSet(["a", "b"])
    assert chi(ix, {"a"}, {"b"}) == 1
    assert chi(ix, {"b"}, {"a"}) == -1
    with pytest.raises(ValueError):
        chi(ix, {"a"}, {"a"})


def test_wedge_and_contract():
    ix = IndexSet(["a", "b", "c"])
    assert wedge_insert_sign(ix, "a", {"b", "c"}) == 1
    assert wedge_insert_sign(ix, "b", {"a", "c"}) == -1
    assert contract_sign(ix, "b", {"a", "b", "c"}) == -1
    # contraction inverts wedging
    for nu, rest in [("a", {"b"}), ("b", {"a"}), ("c", {"a", "b"})]:
        s = wedge_insert_sign(ix, nu, rest)
        assert s * contract_sign(ix, nu, rest | {nu}) == 1


def test_sign_rules_match_chi_on_every_subset():
    """Counting the labels of A before nu gives chi's signs, for a
    label order that is not the order of the labels' names."""
    ix = IndexSet(["c", "e", "a", "d", "b"])
    for size in range(len(ix.labels) + 1):
        for a in map(frozenset, itertools.combinations(ix.labels, size)):
            for nu in ix.labels:
                if nu in a:
                    assert contract_sign(ix, nu, a) == \
                        chi(ix, (nu,), a - {nu})
                    with pytest.raises(ValueError):
                        wedge_insert_sign(ix, nu, a)
                else:
                    assert wedge_insert_sign(ix, nu, a) == \
                        chi(ix, (nu,), a)
                    with pytest.raises(ValueError):
                        contract_sign(ix, nu, a)


def test_constant_complex_two_labels_models():
    ix = IndexSet(["a", "b"])
    K = constant_cocubical(ix)
    c = CechComplex(K)
    assert c.total.dim(0) == 2 and c.total.dim(1) == 1
    assert c.total.betti(0) == 1
    # one cell per subset: the nerve is an edge, which is contractible
    assert c.total.betti(1) == 0


def test_single_label_both_models():
    ix = IndexSet(["a"])
    K = constant_cocubical(ix)
    c = CechComplex(K)
    assert c.total.dim(0) == 1
    assert c.total.betti(0) == 1


def nerve_cocubical(ix, simplices):
    """Q in degree 0 on every nonempty face of the given simplices, with
    identity maps: the constant diagram on the simplicial complex they
    span."""
    faces = {frozenset(f) for simplex in simplices
             for size in range(1, len(simplex) + 1)
             for f in itertools.combinations(simplex, size)}
    complexes = {f: Complex({0: 1}, {}) for f in faces}
    cover = {(s, t): ChainMap(complexes[s], complexes[t],
                              {0: Matrix.identity(1)})
             for s in complexes for t in complexes
             if s < t and len(t) == len(s) + 1}
    return CoCubicalComplex(ix, complexes, cover)


def increasing_tuple_cells(K):
    """The Čech cells by their defining enumeration: every increasing
    tuple of the labels, by length and then label positions, kept when
    its set carries a complex."""
    ix = K.ix
    return [(k, t) for k in range(len(ix.labels))
            for t in itertools.combinations(ix.labels, k + 1)
            if frozenset(t) in K.complexes]


def test_cech_cells_match_increasing_tuples():
    for labels in (["b", "a", "c"], ["c", "a", "d", "b"]):
        ix = IndexSet(labels)
        path = nerve_cocubical(ix, zip(labels, labels[1:]))
        for K in (constant_cocubical(ix), path):
            assert CechComplex(K).cells == increasing_tuple_cells(K)


def test_cech_complex_scales_with_the_diagram():
    # 30 labels have 2^30 - 1 subsets, and the path diagram uses 59
    labels = ["x%d" % i for i in range(30)]
    c = CechComplex(nerve_cocubical(IndexSet(labels),
                                    zip(labels, labels[1:])))
    assert len(c.cells) == 59
    assert (c.total.dim(0), c.total.dim(1)) == (30, 29)
    # a path is contractible
    assert (c.total.betti(0), c.total.betti(1)) == (1, 0)


def betti_numbers(cech):
    return [cech.total.betti(k) for k in cech.total.degrees()]


def torus_triangles(n):
    """The 2n^2 triangles of the n x n triangulated torus."""
    out = []
    for i, j in itertools.product(range(n), repeat=2):
        corner = ((i + 1) % n, (j + 1) % n)
        out.append([(i, j), ((i + 1) % n, j), corner])
        out.append([(i, j), (i, (j + 1) % n), corner])
    return out


def test_cech_model_of_a_simplicial_complex_closed_forms():
    """The Čech complex of the constant diagram on a simplicial complex
    computes its cohomology, in one cell per face."""
    for size, cells in zip(range(2, 6), (3, 7, 15, 31)):
        c = CechComplex(constant_cocubical(
            IndexSet(["v%d" % i for i in range(size)])))
        assert len(c.cells) == cells
        # the full simplex is contractible
        assert betti_numbers(c) == [1] + [0] * (size - 1)
    torus = torus_triangles(3)
    tetrahedron = list(itertools.combinations("abcd", 3))
    for simplices, cells, betti in ((torus, 54, [1, 2, 1]),
                                    (tetrahedron, 14, [1, 0, 1])):
        labels = sorted({x for simplex in simplices for x in simplex})
        c = CechComplex(nerve_cocubical(IndexSet(labels), simplices))
        assert len(c.cells) == cells
        assert betti_numbers(c) == betti


def nerve_fixtures():
    return [
        fixture_projective_space(1),
        fixture_projective_space(2),
        fixture_projective_space(3),
        fixture_cycle_of_p1(3),
        fixture_cycle_of_p1(4),
        fixture_cycle_of_p1(5),
        fixture_cycle_of_p1(9),
        fixture_product_with_p1(fixture_cycle_of_p1(3)),
        fixture_product_with_p1(fixture_product_with_p1(
            fixture_cycle_of_p1(4))),
    ]


def nerve_and_weight_zero():
    """For each fixture: {q: dim} of H^q(Γ) from the Čech model of the
    constant diagram on its nerve Γ, and of the weight-0 part of H^q of
    its limit, nonzero entries only."""
    out = []
    for datum in nerve_fixtures():
        cech = CechComplex(nerve_cocubical(datum.ix, datum.nerve)).total
        gamma = {q: cech.betti(q) for q in cech.degrees() if cech.betti(q)}
        weights = compute_limit(datum).weights
        out.append((gamma, {q: w[0] for q, w in weights.items()
                            if w.get(0)}))
    return out


def check_nerve_oracle(pairs):
    """gr^W_0 of the limit is the cohomology of the dual complex Γ
    (Steenbrink, Invent. Math. 31, 1976): a point for P^n, a circle for
    a cycle of P^1s and its products with P^1."""
    assert [gamma for gamma, _ in pairs] == \
        [{0: 1}] * 3 + [{0: 1, 1: 1}] * 6
    for gamma, weight_zero in pairs:
        assert gamma == weight_zero


def test_cech_model_of_the_nerve_gives_weight_zero():
    check_nerve_oracle(nerve_and_weight_zero())


def test_cech_model_of_the_nerve_under_optimize(tmp_path):
    """`python -O` strips asserts; the nerve oracle may not rest on
    one."""
    script = ("import sys\nsys.path.insert(0, %r)\n"
              "from test_cubical import nerve_and_weight_zero\n"
              "print(nerve_and_weight_zero())\n"
              % os.path.dirname(os.path.abspath(__file__)))
    proc = _run_python(["-O"], ["-c", script], tmp_path)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    check_nerve_oracle(ast.literal_eval(proc.stdout))


def diag_cocubical(ix, rng, maxdeg=2, maxdim=2):
    """Functorial by construction: every stalk is a complex with zero
    differential and every cover map is a fixed diagonal truncation."""
    complexes = {}
    dimtab = {}
    for size in range(1, len(ix.labels) + 1):
        for s in ix.subsets(size):
            dims = {p: rng.randint(1, maxdim) for p in range(maxdeg + 1)}
            complexes[s] = Complex(dims, {})
            dimtab[s] = dims
    cover = {}
    for s in complexes:
        for x in ix.labels:
            if x in s:
                continue
            t = s | {x}
            comps = {}
            for p in complexes[t].degrees():
                rows_n = complexes[t].dim(p)
                cols_n = complexes[s].dim(p)
                m = Matrix.zero(rows_n, cols_n)
                for i in range(min(rows_n, cols_n)):
                    m[i, i] = Q(1)
                comps[p] = m
            cover[(s, t)] = ChainMap(complexes[s], complexes[t], comps)
    try:
        return CoCubicalComplex(ix, complexes, cover)
    except AssertionError:
        return constant_cocubical(ix)


def test_cech_d_squared_random():
    rng = random.Random(17)
    for labels in (["a", "b"], ["a", "b", "c"]):
        ix = IndexSet(labels)
        for _ in range(3):
            K = diag_cocubical(ix, rng)
            CechComplex(K)       # constructor asserts d^2 = 0


def test_tau_is_chain_map_constant():
    ix = IndexSet(["a", "b"])
    K = constant_cocubical(ix)
    L = constant_cocubical(ix)
    KL = tensor_cocubical(K, L)
    t = tau(CechComplex(K), CechComplex(L), CechComplex(KL))
    # ChainMap constructor verified d-commutation exactly
    assert t.comp(0).rows == CechComplex(KL).total.dim(0)


def test_tau_degree_zero_is_pointwise_product():
    ix = IndexSet(["a", "b"])
    K = constant_cocubical(ix)
    KL = tensor_cocubical(K, K)
    ck = CechComplex(K)
    t = tau(ck, ck, CechComplex(KL))
    # on (0,0)-cochains the product is f_lam * g_lam
    m = t.comp(0)
    # source: C^0 (x) C^0 with C^0 = Q^2 (cells a, b)
    # target: C^0 of C(K (x) K) = Q^2
    assert m == Matrix.from_rows(
        [[1, 0, 0, 0], [0, 0, 0, 1]], cols=4)


def test_tau_mixed_degree_sign():
    # f in C^{0,0}, g in C^{1,0}: sign (-1)^{(p-k)l} = +1
    ix = IndexSet(["a", "b"])
    K = constant_cocubical(ix)
    KL = tensor_cocubical(K, K)
    ck = CechComplex(K)
    t = tau(ck, ck, CechComplex(KL))
    m = t.comp(1)
    # source degree 1 summands: C^0 (x) C^1 and C^1 (x) C^0
    # target: C^1 cell (a,b), 1-dim
    # component tau(f (x) g)_{(a,b)} = f_a * g_{(a,b)} from C^0 (x) C^1
    soff = tensor_offsets(ck.total, ck.total, 1)
    o01 = soff[(0, 1)]
    # cell a is coordinate 0 of C^0; tuple (a,b) is coordinate 0 of C^1
    col = o01 + 0 * ck.total.dim(1) + 0
    row = 0  # tuple (a,b) in target
    assert m.a[row][col] == 1


def test_tau_chain_map_random():
    rng = random.Random(31)
    for labels in (["a", "b"], ["a", "b", "c"]):
        ix = IndexSet(labels)
        for _ in range(3):
            K = diag_cocubical(ix, rng, maxdeg=1)
            L = diag_cocubical(ix, rng, maxdeg=1)
            KL = tensor_cocubical(K, L)
            tau(CechComplex(K), CechComplex(L),
                CechComplex(KL))  # constructor asserts


def entrywise_tau(cech_k, cech_l, cech_kl):
    """The reference for `tau`: each product of an entry of K(iota) with
    one of L(iota), added at its index, with the sign (-1)^{(p-k)l}."""
    src = tensor(cech_k.total, cech_l.total)
    comps = {}
    for n in src.degrees():
        m = Matrix.zero(cech_kl.total.dim(n), src.dim(n))
        tgt_blocks = {(k, idx): off
                      for k, idx, l, off, sz in cech_kl.blocks.get(n, [])}
        soff = tensor_offsets(cech_k.total, cech_l.total, n)
        for (p, q), so in soff.items():
            for kf, mu, a, offk, _ in cech_k.blocks.get(p, []):
                for lg, nu, b, offl, _ in cech_l.blocks.get(q, []):
                    lam = mu + nu[1:]
                    key = (kf + lg, lam)
                    if mu[-1] != nu[0] or len(set(lam)) != len(lam) \
                            or key not in tgt_blocks:
                        continue
                    sgn = Q(1) if ((p - kf) * lg) % 2 == 0 else Q(-1)
                    sig = frozenset(lam)
                    kmat = cech_k.K.map(frozenset(mu), sig).get(a)
                    lmat = cech_l.K.map(frozenset(nu), sig).get(b)
                    if kmat is None or lmat is None:
                        continue
                    stalk_l = cech_l.K.complex(sig)
                    stoff = tensor_offsets(cech_k.K.complex(sig), stalk_l,
                                           a + b)[(a, b)]
                    for i1, row1 in enumerate(kmat.nz):
                        for j1, c1 in row1.items():
                            for i2, row2 in enumerate(lmat.nz):
                                for j2, c2 in row2.items():
                                    row = tgt_blocks[key] + stoff \
                                        + i1 * stalk_l.dim(b) + i2
                                    col = so + (offk + j1) * \
                                        cech_l.total.dim(q) + offl + j2
                                    m[row, col] += sgn * c1 * c2
        comps[n] = m
    return comps


def test_tau_matches_entrywise_reference():
    rng = random.Random(53)
    for labels in (["a", "b"], ["a", "b", "c"]):
        ix = IndexSet(labels)
        for maxdeg in (1, 2, 2):
            K = diag_cocubical(ix, rng, maxdeg=maxdeg)
            L = diag_cocubical(ix, rng, maxdeg=maxdeg)
            ck, cl = CechComplex(K), CechComplex(L)
            ckl = CechComplex(tensor_cocubical(K, L))
            assert tau(ck, cl, ckl).f == entrywise_tau(ck, cl, ckl)


def entrywise_assoc(a, b, c):
    """The reference for `tensor_assoc`: each basis vector e_i (x) e_j
    (x) e_k of (A (x) B) (x) C sent to its index in A (x) (B (x) C)."""
    ab, bc = tensor(a, b), tensor(b, c)
    comps = {}
    for n in tensor(ab, c).degrees():
        m = Matrix.zero(tensor(a, bc).dim(n), tensor(ab, c).dim(n))
        toff = tensor_offsets(a, bc, n)
        for (pq, r), so in tensor_offsets(ab, c, n).items():
            for (p, q), abo in tensor_offsets(a, b, pq).items():
                to = toff[(p, q + r)]
                bco = tensor_offsets(b, c, q + r)[(q, r)]
                db, dc = b.dim(q), c.dim(r)
                for i in range(a.dim(p)):
                    for j in range(db):
                        for k in range(dc):
                            m[to + i * bc.dim(q + r) + bco + j * dc + k,
                              so + (abo + i * db + j) * dc + k] = 1
        comps[n] = m
    return comps


def test_tensor_assoc_matches_entrywise_reference():
    rng = random.Random(59)
    for _ in range(20):
        a, b, c = (
            Complex({p: rng.randint(0, 3)
                     for p in range(rng.randint(-1, 1), rng.randint(1, 3))},
                    {}) for _ in range(3))
        assert tensor_assoc(a, b, c).f == entrywise_assoc(a, b, c)


def test_tau_associativity():
    rng = random.Random(41)
    for labels in (["a", "b"],):
        ix = IndexSet(labels)
        K = diag_cocubical(ix, rng, maxdeg=1)
        L = diag_cocubical(ix, rng, maxdeg=1)
        M = diag_cocubical(ix, rng, maxdeg=1)
        KL = tensor_cocubical(K, L)
        LM = tensor_cocubical(L, M)
        KLM1 = tensor_cocubical(KL, M)
        KLM2 = tensor_cocubical(K, LM)
        ck, cl, cm = CechComplex(K), CechComplex(L), CechComplex(M)
        ckl, clm = CechComplex(KL), CechComplex(LM)
        cklm1, cklm2 = CechComplex(KLM1), CechComplex(KLM2)
        t_kl = tau(ck, cl, ckl)
        t_lm = tau(cl, cm, clm)
        t_kl_m = tau(ckl, cm, cklm1)
        t_k_lm = tau(ck, clm, cklm2)
        # stalkwise regrouping iso lifted to the Čech total
        lift = {}
        for n in cklm1.total.degrees():
            mtx = Matrix.zero(cklm2.total.dim(n), cklm1.total.dim(n))
            tgt = {(k, idx): (off, sz) for k, idx, l, off, sz
                   in cklm2.blocks.get(n, [])}
            for k, idx, l, off, sz in cklm1.blocks.get(n, []):
                sig = frozenset(idx)
                asso = tensor_assoc(K.complex(sig), L.complex(sig),
                                    M.complex(sig))
                am = asso.comp(l)
                toff, tsz = tgt[(k, idx)]
                for i in range(am.rows):
                    for j in range(am.cols):
                        if am.a[i][j] != 0:
                            mtx[toff + i, off + j] = am.a[i][j]
            lift[n] = mtx
        assoc_target = ChainMap(cklm1.total, cklm2.total, lift)
        # source regrouping (C(K) (x) C(L)) (x) C(M) ->
        # C(K) (x) (C(L) (x) C(M))
        assoc_source = tensor_assoc(ck.total, cl.total, cm.total)
        left = {}
        id_cm = ChainMap(cm.total, cm.total,
                         {p: Matrix.identity(cm.total.dim(p))
                          for p in cm.total.degrees()})
        id_ck = ChainMap(ck.total, ck.total,
                         {p: Matrix.identity(ck.total.dim(p))
                          for p in ck.total.degrees()})
        tkl_x_id = tensor_map(t_kl, id_cm)
        id_x_tlm = tensor_map(id_ck, t_lm)
        for n in assoc_source.source.degrees():
            lhs = assoc_target.comp(n) * t_kl_m.comp(n) * tkl_x_id.comp(n)
            rhs = t_k_lm.comp(n) * id_x_tlm.comp(n) * assoc_source.comp(n)
            assert lhs == rhs, ("associativity fails at degree", n)


def two_step_stalk():
    """Stalk [Q -id-> Q] with W_0 = [0 -> Q], W_1 = all."""
    c = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    w = {
        0: {0: Subspace.zero(1), 1: Subspace.full(1)},
        1: {0: Subspace.full(1), 1: Subspace.full(1)},
    }
    return c, w


def filtered_constantish(ix):
    """Co-cubical complex with the two-step stalk everywhere and
    identity cover maps, plus its stalk filtrations."""
    complexes = {}
    filts = {}
    for size in range(1, len(ix.labels) + 1):
        for s in ix.subsets(size):
            c, w = two_step_stalk()
            complexes[s] = c
            filts[s] = FilteredComplex(c, w)
    cover = {}
    for s in complexes:
        for x in ix.labels:
            if x in s:
                continue
            t = s | {x}
            cover[(s, t)] = ChainMap(
                complexes[s], complexes[t],
                {p: Matrix.identity(1) for p in (0, 1)})
    return CoCubicalComplex(ix, complexes, cover), filts


def test_tau_filtration_bounds():
    ix = IndexSet(["a", "b"])
    K, filts = filtered_constantish(ix)
    KL = tensor_cocubical(K, K)
    ck = CechComplex(K)
    ckl = CechComplex(KL)
    t = tau(ck, ck, ckl)
    # stalk filtration on K (x) K by W_m = sum W_a (x) W_b, a+b = m
    kl_filts = {}
    for s in KL.complexes:
        c = KL.complexes[s]
        w = {}
        for m in range(0, 3):
            layer = {}
            for p in c.degrees():
                rows = []
                offs = tensor_offsets(K.complexes[s], K.complexes[s], p)
                for (p1, p2), off in offs.items():
                    for a in range(0, m + 1):
                        b = m - a
                        s1 = filts[s].w_sub(a, p1)
                        s2 = filts[s].w_sub(b, p2)
                        for r1 in s1.basis.to_lists():
                            for r2 in s2.basis.to_lists():
                                v = [Q(0)] * c.dim(p)
                                d2 = K.complexes[s].dim(p2)
                                for i1, x1 in enumerate(r1):
                                    for i2, x2 in enumerate(r2):
                                        v[off + i1 * d2 + i2] += x1 * x2
                                rows.append(v)
                layer[p] = Subspace(c.dim(p), rows)
            w[m] = layer
        kl_filts[s] = FilteredComplex(c, w)
    for delta in (False, True):
        fk = cech_filtration(ck, filts, delta=delta)
        fkl = cech_filtration(ckl, kl_filts, delta=delta)
        # check tau(W_a (x) W_b) inside W_{a+b}
        for a in range(0, 2):
            for b in range(0, 2):
                for p in ck.total.degrees():
                    for q in ck.total.degrees():
                        n = p + q
                        soff = tensor_offsets(ck.total, ck.total, n)
                        if (p, q) not in soff:
                            continue
                        off = soff[(p, q)]
                        sa = fk.w_sub(a, p)
                        sb = fk.w_sub(b, q)
                        tgt = fkl.w_sub(a + b, n)
                        for r1 in sa.basis.to_lists():
                            for r2 in sb.basis.to_lists():
                                v = [Q(0)] * t.source.dim(n)
                                dq = ck.total.dim(q)
                                for i1, x1 in enumerate(r1):
                                    for i2, x2 in enumerate(r2):
                                        v[off + i1 * dq + i2] += x1 * x2
                                img = t.comp(n).matvec(v)
                                assert tgt.contains_vector(img), \
                                    (delta, a, b, p, q)


def test_gr_deltaw_dimension_identity():
    ix = IndexSet(["a", "b"])
    K, filts = filtered_constantish(ix)
    c = CechComplex(K)
    kf = cech_filtration(c, filts, delta=True)
    for m in range(kf.w_weights[0], kf.w_weights[-1] + 1):
        for n in c.total.degrees():
            expect = 0
            for k, idx, l, off, sz in c.blocks.get(n, []):
                s = frozenset(idx)
                wm = filts[s].w_sub(m + k, l).dim
                wm1 = filts[s].w_sub(m + k - 1, l).dim
                expect += wm - wm1
            gr = kf.w_sub(m, n).dim - kf.w_sub(m - 1, n).dim
            assert gr == expect, (m, n)
