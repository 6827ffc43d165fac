import random
from fractions import Fraction as Q

import pytest

from limhodge.exactlin import ConsistencyError, Matrix, rank, image
from limhodge.homalg import (
    Complex, ChainMap, shift, shift_map, tensor, cone, zeta, connecting,
    check_exact,
)


def M(rows, cols=None):
    if isinstance(rows, list):
        return Matrix.from_rows([[Q(x) for x in r] for r in rows], cols=cols)
    raise TypeError


def two_term(entry=1):
    """[Q -> Q] in degrees 0, 1 with differential `entry`."""
    return Complex({0: 1, 1: 1}, {0: M([[entry]])})


def test_shift_sign_rule():
    k = two_term(1)
    k1 = shift(k, 1)
    assert k1.dim(-1) == 1 and k1.dim(0) == 1
    assert k1.diff(-1) == M([[-1]])
    assert shift(k, 0).diff(0) == k.diff(0)
    assert shift(shift(k, 2), 3).diff(-5) == shift(k, 5).diff(-5)


def test_shift_composition_random():
    rng = random.Random(7)
    k = random_complex(rng, lo=-1, hi=2, maxdim=3)
    a, b = 1, 2
    s1 = shift(shift(k, a), b)
    s2 = shift(k, a + b)
    for p in s2.degrees():
        assert s1.dim(p) == s2.dim(p)
        assert s1.diff(p) == s2.diff(p)


def test_tensor_points():
    pt = Complex({0: 1}, {})
    t = tensor(pt, pt)
    assert t.dim(0) == 1 and t.betti(0) == 1


def test_tensor_d_squared_random():
    rng = random.Random(3)
    for _ in range(5):
        k = random_complex(rng, lo=0, hi=2, maxdim=3)
        l = random_complex(rng, lo=-1, hi=1, maxdim=3)
        tensor(k, l)  # constructor asserts d^2 = 0


def test_betti_by_rank_nullity_equals_cohomology():
    """betti(p) = dim(p) - rank d^p - rank d^{p-1} agrees with the
    quotient of cocycles by coboundaries, also on tensor products,
    where consecutive differentials are both nonzero."""
    rng = random.Random(7)
    for _ in range(20):
        k = random_complex(rng, lo=-1, hi=2, maxdim=3)
        l = random_complex(rng, lo=0, hi=1, maxdim=3)
        for c in (k, tensor(k, l)):
            for p in range(c.lo - 1, c.hi + 2):
                assert c.betti(p) == c.cohomology(p)[0], p


def test_cone_of_identity_acyclic():
    k = Complex({0: 1}, {})
    f = ChainMap(k, k, {0: Matrix.identity(1)})
    c, alpha, beta = cone(f)
    assert c.dim(-1) == 1 and c.dim(0) == 1
    assert c.betti(-1) == 0 and c.betti(0) == 0


def test_cone_of_zero_splits():
    k = two_term(1)
    l = two_term(2)
    f = ChainMap(k, l, {})
    c, _, _ = cone(f)
    k1 = shift(k, 1)
    for p in c.degrees():
        assert c.dim(p) == k1.dim(p) + l.dim(p)
        assert c.betti(p) == k1.betti(p) + l.betti(p)


def test_cone_long_exact_sequence_random():
    rng = random.Random(11)
    for _ in range(10):
        k = random_complex(rng, lo=0, hi=2, maxdim=3)
        l = random_complex(rng, lo=0, hi=2, maxdim=3)
        f = random_chain_map(rng, k, l)
        c, alpha, beta = cone(f)
        k1 = shift(k, 1)
        for p in c.degrees():
            a_p = alpha.induced_on_cohomology(p)
            b_p = beta.induced_on_cohomology(p)
            assert (b_p * a_p).is_zero()
            assert rank(a_p) + rank(b_p) + (l.betti(p) - rank(a_p)) \
                == l.betti(p) + rank(b_p)
            # exactness at H(C(f)): ker(b) = im(a)
            assert image(a_p).dim + rank(b_p) == c.betti(p)


def test_zeta_diagram():
    rng = random.Random(5)
    for m in (-2, -1, 0, 1, 2):
        k = random_complex(rng, lo=0, hi=2, maxdim=2)
        l = random_complex(rng, lo=0, hi=2, maxdim=2)
        f = random_chain_map(rng, k, l)
        z = zeta(f, m)
        sgn = Q(-1) ** (m % 2)
        c, alpha, beta = cone(f)
        cm = shift(c, m)
        fm = shift_map(f, m)
        cfm, alpha_m, beta_m = cone(fm)
        for p in cm.degrees():
            # zeta is an isomorphism degreewise
            assert rank(z.comp(p)) == cm.dim(p) == cfm.dim(p)
            # zeta o alpha(f)[m] = alpha(f[m])
            assert z.comp(p) * alpha.comp(p + m) == alpha_m.comp(p)
            # beta(f[m]) o zeta = (-1)^m beta(f)[m]
            assert beta_m.comp(p) * z.comp(p) \
                == beta.comp(p + m).scale(sgn)


def ses_fixture():
    """0 -> [0 -> Q] -> [Q -id-> Q] -> [Q -> 0] -> 0."""
    k = Complex({0: 0, 1: 1}, {})
    l = two_term(1)
    m = Complex({0: 1, 1: 0}, {})
    f = ChainMap(k, l, {1: Matrix.identity(1)})
    g = ChainMap(l, m, {0: Matrix.identity(1)})
    return k, l, m, f, g


def test_connecting_basic_iso():
    k, l, m, f, g = ses_fixture()
    gam = connecting(f, g)
    assert gam[0] == Matrix.identity(1)


def test_connecting_shift_identity():
    _, _, _, f, g = ses_fixture()
    gam = connecting(f, g)
    for mm in (-2, -1, 0, 1, 2):
        gam_m = connecting(shift_map(f, mm), shift_map(g, mm))
        sgn = Q(-1) ** (mm % 2)
        # gamma(f,g)[m] = (-1)^m gamma(f[m], g[m])
        assert gam[0] == gam_m[-mm].scale(sgn)


def test_connecting_split_zero():
    k = Complex({0: 1}, {})
    l = Complex({0: 2}, {})
    m = Complex({0: 1}, {})
    f = ChainMap(k, l, {0: M([[1], [0]])})
    g = ChainMap(l, m, {0: M([[0, 1]])})
    gam = connecting(f, g)
    assert all(mat.is_zero() for mat in gam.values())


def test_connecting_triangle_stalk():
    # Q -> Q^2 -> Q as zero-differential complexes in degree 0.
    k = Complex({0: 1}, {})
    l = Complex({0: 2}, {})
    m = Complex({0: 1}, {})
    f = ChainMap(k, l, {0: M([[1], [1]])})
    g = ChainMap(l, m, {0: M([[1, -1]])})
    gam = connecting(f, g)
    assert all(mat.is_zero() for mat in gam.values())


def test_connecting_non_exact_error():
    k = Complex({0: 1}, {})
    l = Complex({0: 1}, {})
    m = Complex({0: 1}, {})
    f = ChainMap(k, l, {0: Matrix.identity(1)})
    g = ChainMap(l, m, {0: Matrix.identity(1)})
    with pytest.raises(ValueError):
        connecting(f, g)


def test_connecting_shift_identity_random():
    rng = random.Random(23)
    for _ in range(6):
        k = random_complex(rng, lo=0, hi=2, maxdim=2)
        l, f, g, m = random_extension(rng, k)
        gam = connecting(f, g)
        for mm in (-2, -1, 0, 1, 2):
            gam_m = connecting(shift_map(f, mm), shift_map(g, mm))
            sgn = Q(-1) ** (mm % 2)
            for p, mat in gam.items():
                assert mat == gam_m[p - mm].scale(sgn)


# randomized builders

def random_complex(rng, lo, hi, maxdim):
    """Random bounded complex with exact d^2 = 0, built from a random
    map's kernel/image splicing."""
    dims = {p: rng.randint(0, maxdim) for p in range(lo, hi + 1)}
    diffs = {}
    for p in range(lo, hi):
        a = Matrix(dims.get(p + 1, 0), dims.get(p, 0),
                   [[Q(rng.randint(-2, 2)) for _ in range(dims.get(p, 0))]
                    for _ in range(dims.get(p + 1, 0))])
        diffs[p] = a
    # enforce d^2 = 0 by zeroing every second differential
    for p in range(lo, hi):
        if (p - lo) % 2 == 1:
            diffs[p] = Matrix.zero(dims.get(p + 1, 0), dims.get(p, 0))
    return Complex(dims, diffs)


def random_chain_map(rng, k, l):
    """Random chain map k -> l found by solving the commutation
    constraints; falls back to zero."""
    comps = {}
    # solve degreewise from the left; here we just use scalar multiples
    # of zero plus random maps on degrees where both differentials vanish
    for p in range(min(k.lo, l.lo), max(k.hi, l.hi) + 1):
        if k.diff(p).is_zero() and l.diff(p).is_zero() \
                and k.diff(p - 1).is_zero() and l.diff(p - 1).is_zero():
            comps[p] = Matrix(l.dim(p), k.dim(p),
                              [[Q(rng.randint(-2, 2))
                                for _ in range(k.dim(p))]
                               for _ in range(l.dim(p))])
    try:
        return ChainMap(k, l, comps)
    except AssertionError:
        return ChainMap(k, l, {})


def random_extension(rng, k):
    """Short exact sequence 0 -> k -> l -> m -> 0 with l a twisted sum."""
    mdims = {p: rng.randint(0, 2) for p in k.degrees()}
    m = Complex(mdims, {p: Matrix.zero(mdims.get(p + 1, 0), mdims.get(p, 0))
                        for p in k.degrees()})
    ldims = {p: k.dim(p) + m.dim(p) for p in k.degrees()}
    # l differential: block upper triangular with a random twist t: M -> K[1]
    ldiffs = {}
    twists = {p: Matrix(k.dim(p + 1), m.dim(p),
                        [[Q(rng.randint(-1, 1)) for _ in range(m.dim(p))]
                         for _ in range(k.dim(p + 1))])
              for p in k.degrees()}
    for p in k.degrees():
        rows = k.dim(p + 1) + m.dim(p + 1)
        mat = Matrix.zero(rows, ldims[p])
        dk = k.diff(p)
        for i in range(k.dim(p + 1)):
            for j in range(k.dim(p)):
                mat[i, j] = dk.a[i][j]
            for j in range(m.dim(p)):
                mat[i, k.dim(p) + j] = twists[p].a[i][j]
        ldiffs[p] = mat
    # d^2 = 0 needs dk ∘ t = 0 in general; retry with zero twist if broken
    try:
        l = Complex(ldims, ldiffs)
    except AssertionError:
        for p in k.degrees():
            for i in range(k.dim(p + 1)):
                for j in range(m.dim(p)):
                    ldiffs[p][i, k.dim(p) + j] = Q(0)
        l = Complex(ldims, ldiffs)
    fcomp = {p: Matrix.from_rows(
        Matrix.identity(k.dim(p)).to_lists()
        + [[Q(0)] * k.dim(p) for _ in range(m.dim(p))], cols=k.dim(p))
        for p in k.degrees()}
    gcomp = {p: Matrix.from_rows(
        [[Q(0)] * k.dim(p) + row for row in
         Matrix.identity(m.dim(p)).to_lists()],
        cols=ldims[p]) for p in k.degrees()}
    f = ChainMap(k, l, fcomp)
    g = ChainMap(l, m, gcomp)
    check_exact(f, g)
    return l, f, g, m


def test_complex_errors_name_degree_and_shapes():
    with pytest.raises(ConsistencyError) as err:
        Complex({0: 1, 1: 2}, {0: Matrix(1, 1)})
    assert str(err.value) == \
        "differential at degree 0: expected 2x1, got 1x1"
    with pytest.raises(ConsistencyError) as err:
        Complex({0: 1, 1: 1, 2: 1}, {0: M([[1]]), 1: M([[1]])})
    assert str(err.value) == "d^2 != 0 at degree 0"
